"""Thread contexts of the simulated kernel.

Following the paper (footnote 2), a "thread" is any kernel execution
context: a system call, a deferred-work kworker, or an RCU softirq
callback.  Background threads are created dynamically by ``QUEUE_WORK`` /
``CALL_RCU`` instructions; the scheduler above the machine decides when
they run, which is how AITIA exercises the asynchronous bug patterns of
Figure 4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


class ThreadKind(enum.Enum):
    SYSCALL = "syscall"
    KWORKER = "kworker"
    RCU = "rcu_softirq"
    #: A hardware interrupt handler: runs to completion, non-preemptible.
    #: The paper leaves IRQ contexts as future work (section 4.6); the
    #: reproduction models them as injectable, atomic execution contexts.
    IRQ = "irq"


class ThreadState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"  # waiting on a lock
    DONE = "done"


@dataclass
class Frame:
    """One call-stack frame: the function being executed and the index of
    the next instruction to execute inside it."""

    func: str
    pc: int = 0


@dataclass
class ThreadContext:
    """The full state of one simulated kernel thread."""

    tid: int
    name: str
    kind: ThreadKind
    entry: str
    state: ThreadState = ThreadState.READY
    regs: Dict[str, Any] = field(default_factory=dict)
    frames: List[Frame] = field(default_factory=list)
    locks_held: List[str] = field(default_factory=list)
    blocked_on: Optional[str] = None
    #: Name of the thread whose instruction spawned this one (for kworkers
    #: and RCU callbacks); the execution-history model records it as the
    #: invocation source.
    spawned_by: Optional[str] = None
    spawn_instr: Optional[str] = None
    #: Per-instruction execution counters, keyed by code address; gives the
    #: occurrence index used to address accesses inside loops.
    exec_counts: Dict[int, int] = field(default_factory=dict)
    steps: int = 0
    #: Mutation generation: bumped once per executed step (and on wake /
    #: restore).  Captures are cached against it, so an unchanged thread
    #: is never re-copied.
    gen: int = 0
    _cap: Optional["ThreadImage"] = field(default=None, repr=False,
                                          compare=False)
    _cap_gen: int = field(default=-1, repr=False, compare=False)

    @property
    def done(self) -> bool:
        return self.state is ThreadState.DONE

    @property
    def runnable(self) -> bool:
        return self.state is ThreadState.READY

    def current_frame(self) -> Frame:
        if not self.frames:
            raise RuntimeError(f"thread {self.name} has no active frame")
        return self.frames[-1]

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "regs": dict(self.regs),
            "frames": [Frame(fr.func, fr.pc) for fr in self.frames],
            "locks_held": list(self.locks_held),
            "blocked_on": self.blocked_on,
            "exec_counts": dict(self.exec_counts),
            "steps": self.steps,
        }

    def restore(self, snap: dict) -> None:
        self.state = snap["state"]
        self.regs = dict(snap["regs"])
        self.frames = [Frame(fr.func, fr.pc) for fr in snap["frames"]]
        self.locks_held = list(snap["locks_held"])
        self.blocked_on = snap["blocked_on"]
        self.exec_counts = dict(snap["exec_counts"])
        self.steps = snap["steps"]
        self.gen += 1

    def capture(self) -> "ThreadImage":
        """Identity plus mutable state: enough to *recreate* the thread on a
        machine where it does not exist (unlike :meth:`snapshot`, which only
        rewinds an existing context).

        The image is cached against :attr:`gen`: a thread that has not run
        since the previous checkpoint returns the same (immutable) image
        without copying its registers or counters again."""
        if self._cap is None or self._cap_gen != self.gen:
            self._cap = ThreadImage(
                tid=self.tid, name=self.name, kind=self.kind,
                entry=self.entry, spawned_by=self.spawned_by,
                spawn_instr=self.spawn_instr, state=self.snapshot())
            self._cap_gen = self.gen
        return self._cap

    @classmethod
    def from_image(cls, image: "ThreadImage") -> "ThreadContext":
        ctx = cls(tid=image.tid, name=image.name, kind=image.kind,
                  entry=image.entry, spawned_by=image.spawned_by,
                  spawn_instr=image.spawn_instr)
        ctx.restore(image.state)
        return ctx


@dataclass(frozen=True)
class ThreadImage:
    """Full capture of one thread, including the identity fields a plain
    state snapshot omits; machine-level checkpoints carry these so a restore
    can rebuild the thread list from scratch (threads spawned after the
    capture point, or discarded by an earlier rewind, come back)."""

    tid: int
    name: str
    kind: ThreadKind
    entry: str
    spawned_by: Optional[str]
    spawn_instr: Optional[str]
    state: dict
