"""Schedule enforcement: the hypervisor side of AITIA's hypercall protocol.

:class:`ScheduleController` boots one run of the simulated kernel and makes
it follow a :class:`~repro.core.schedule.Schedule`:

* **Preemptions** (LIFS reproduce schedules): when the running thread is
  about to execute a scheduled instruction, it is parked on the trampoline
  and control switches to the named thread — the breakpoint/VM-exit dance
  of paper section 4.4.  When a thread finishes, the most recently parked
  thread resumes (LIFO), and background threads spawned during the run are
  scheduled after the initial threads.
* **Order constraints** (Causality Analysis diagnosis schedules): the
  constrained instructions must execute in queue order.  A thread about to
  execute a constrained instruction out of turn is parked until its entry
  becomes the head.  A head entry whose instruction can no longer execute —
  its thread finished, or skipped the instruction via a race-steered
  control flow — is *dropped* and recorded: this is exactly the signal
  Causality Analysis uses to learn that flipping one race made another
  disappear (section 3.4).

While a preempted instruction is parked, a watchpoint is installed on the
data address it was about to touch; conflicting accesses from other threads
are trapped and reported, which is how LIFS identifies data races.

Like the real hypervisor, which lets the guest run freely between hardware
traps, the run loop does enforcement work only where a breakpoint is
armed.  It keeps running the active thread without re-choosing, probes the
installed breakpoints once per instruction by ``(thread, instr_addr)``,
and computes the occurrence and matches preemptions or constraints only
on a hit; the instruction then goes to the machine's post-validation entry
point.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.schedule import OrderConstraint, Preemption, Schedule
from repro.hypervisor.breakpoints import (
    Breakpoint,
    BreakpointManager,
    Watchpoint,
    WatchpointHit,
    WatchpointManager,
)
from repro.hypervisor.snapshot import (
    CheckpointPolicy,
    RunCheckpoint,
    restore_machine,
    snapshot_machine,
)
from repro.hypervisor.trampoline import ParkReason, Trampoline
from repro.kernel.access import MemoryAccess
from repro.kernel.failures import Failure
from repro.kernel.machine import KernelMachine, SpawnEvent, TraceEntry
from repro.kernel.threads import ThreadState
from repro.observe.tracer import as_tracer

#: Upper bound on executed instructions per run; exceeding it indicates a
#: broken model rather than a kernel failure.
MAX_RUN_STEPS = 500_000


@dataclass
class RunResult:
    """Everything one enforced run produced."""

    schedule: Schedule
    failure: Optional[Failure]
    trace: List[TraceEntry]
    accesses: List[MemoryAccess]
    spawn_events: List[SpawnEvent]
    fired_preemptions: List[Preemption]
    #: Global seq at which each fired preemption parked its thread (aligned
    #: with ``fired_preemptions``).
    fired_seqs: List[int]
    dropped_constraints: List[OrderConstraint]
    infeasible_constraints: List[OrderConstraint]
    watch_hits: List[WatchpointHit]
    steps: int
    #: Forced context switches (fired preemptions) — the paper's
    #: "interleaving count".
    interleavings: int
    #: Of those, how many preempted threads ran again afterwards.
    resumed_interleavings: int
    thread_names: List[str]
    #: thread name -> kind value ("syscall" / "kworker" / "rcu_softirq" /
    #: "irq"); lets consumers treat IRQ handlers as non-preemptible.
    thread_kinds: Dict[str, str]

    @property
    def failed(self) -> bool:
        return self.failure is not None

    def executed_constraints(self) -> int:
        return len(self.schedule.constraints) - len(self.dropped_constraints)

    def signature(self) -> Tuple:
        """Mazurkiewicz-style equivalence signature: the per-thread
        instruction sequences plus the per-location order of conflicting
        accesses.  Two runs with equal signatures are equivalent in the
        DPOR sense LIFS prunes by (section 3.3)."""
        per_thread: Dict[str, List[int]] = {}
        get = per_thread.get
        for entry in self.trace:
            seq = get(entry.thread)
            if seq is None:
                per_thread[entry.thread] = [entry.instr_addr]
            else:
                seq.append(entry.instr_addr)
        per_location: Dict[int, List[Tuple[str, int]]] = {}
        get = per_location.get
        for access in self.accesses:
            seq = get(access.data_addr)
            if seq is None:
                per_location[access.data_addr] = [
                    (access.thread, access.instr_addr)]
            else:
                seq.append((access.thread, access.instr_addr))
        return (
            tuple(sorted((t, tuple(seq)) for t, seq in per_thread.items())),
            tuple(sorted((loc, tuple(seq))
                         for loc, seq in per_location.items())),
        )

    def signature_hash(self) -> int:
        """Stable 64-bit digest of :meth:`signature`.  Unlike ``hash()``
        (salted per process for strings) the digest is identical across
        processes and sessions, so it can be persisted and compared —
        replay recordings store it.  LIFS dedups within one search, so it
        keys on the cheaper ``hash()`` instead."""
        digest = hashlib.blake2b(repr(self.signature()).encode("utf-8"),
                                 digest_size=8).digest()
        return int.from_bytes(digest, "big")


class ScheduleController:
    """Runs one machine under one schedule.

    Normally the machine is freshly booted; with ``resume_from`` the
    controller instead restores machine *and* enforcement state from a
    :class:`RunCheckpoint` and interprets only the run's suffix.  The
    suffix unfolds exactly as a fresh run would past the checkpoint — the
    loop is deterministic in (machine state, pending preemptions,
    constraints, trampoline, active thread) — so the resulting
    :class:`RunResult` is bit-identical, including ``steps``, which keeps
    whole-run semantics (prefix + suffix); the checkpoint's own ``steps``
    is the work the resume skipped.

    With ``checkpoint_policy`` set, the run captures prefix checkpoints
    into :attr:`checkpoints` for later runs to resume from: one at entry
    (fresh runs only), one just before each preemption fires, and — only
    when the policy's ``interval`` is positive — one every ``interval``
    executed instructions.  Constraint schedules are never checkpointed:
    the constraint-queue cursor is not part of a checkpoint.
    """

    def __init__(self, machine: KernelMachine, schedule: Schedule,
                 watch_races: bool = True, tracer=None,
                 resume_from: Optional[RunCheckpoint] = None,
                 checkpoint_policy: Optional[CheckpointPolicy] = None) -> None:
        self.machine = machine
        self.schedule = schedule
        self.watch_races = watch_races
        self.tracer = as_tracer(tracer)
        self.trampoline = Trampoline()
        self.breakpoints = BreakpointManager()
        self.watchpoints = WatchpointManager()
        self._pending_preemptions: List[Preemption] = list(schedule.preemptions)
        self._fired: List[Tuple[Preemption, int]] = []  # (preemption, seq)
        self._constraints: List[OrderConstraint] = list(schedule.constraints)
        self._head = 0
        self._dropped: List[OrderConstraint] = []
        self._infeasible: List[OrderConstraint] = []
        self._active: Optional[str] = None
        self._steps = 0
        self._policy = checkpoint_policy if not schedule.constraints else None
        self._steps_since_capture = 0
        self.checkpoints: List[RunCheckpoint] = []
        self._resumed_from = resume_from
        #: Cached _thread_order result, keyed on the thread count (the
        #: roster only grows during a run, and only by spawns at the end).
        self._order_cache: Optional[Tuple[int, List[str]]] = None
        if resume_from is not None:
            self._apply_checkpoint(resume_from)
        for p in self._pending_preemptions:
            self.breakpoints.install(Breakpoint(p.instr_addr, p.thread,
                                                p.occurrence))
        #: One breakpoint per constraint, disarmed as the head passes it.
        self._constraint_bps = [Breakpoint(c.instr_addr, c.thread,
                                           c.occurrence)
                                for c in self._constraints]
        for bp in self._constraint_bps:
            self.breakpoints.install(bp)

    def _apply_checkpoint(self, ckpt: RunCheckpoint) -> None:
        # A checkpoint past the boot point encodes scheduling decisions,
        # which are only valid under the same start order; a boot
        # checkpoint (steps == 0, nothing fired) resumes under any.
        if ckpt.steps and tuple(ckpt.start_order) != \
                tuple(self.schedule.start_order):
            raise ValueError("checkpoint start order does not match schedule")
        restore_machine(self.machine, ckpt.machine)
        if ckpt.trampoline is not None:
            self.trampoline.restore(ckpt.trampoline)
        if ckpt.watchpoints is not None:
            self.watchpoints.restore(ckpt.watchpoints)
        self._fired = list(ckpt.fired)
        for p, _ in self._fired:
            try:
                self._pending_preemptions.remove(p)
            except ValueError:
                raise ValueError(
                    "checkpoint fired a preemption the schedule does not "
                    "contain — it is not a prefix of this run") from None
        self._active = ckpt.active
        self._steps = ckpt.steps

    def _maybe_capture(self) -> None:
        policy = self._policy
        if policy is None or len(self.checkpoints) >= policy.max_checkpoints:
            return
        if self.machine.halted or self.machine.all_done():
            return
        self._steps_since_capture = 0
        self.checkpoints.append(RunCheckpoint(
            machine=snapshot_machine(self.machine),
            horizon_seq=self.machine._seq,
            steps=self._steps,
            fired=tuple(self._fired),
            trampoline=self.trampoline.snapshot(),
            watchpoints=self.watchpoints.snapshot(),
            active=self._active,
            start_order=tuple(self.schedule.start_order),
        ))

    # ------------------------------------------------------------------
    # Thread choice
    # ------------------------------------------------------------------
    def _thread_order(self) -> List[str]:
        """Initial threads in start order, then dynamically spawned threads
        in spawn order.  Recomputed only when the roster grows."""
        cached = self._order_cache
        count = len(self.machine.threads)
        if cached is not None and cached[0] == count:
            return cached[1]
        names = [t.name for t in self.machine.threads]
        ordered = [n for n in self.schedule.start_order if n in names]
        ordered.extend(n for n in names if n not in ordered)
        self._order_cache = (count, ordered)
        return ordered

    def _known(self, name: str) -> bool:
        return name in self.machine._by_name

    def _runnable(self, name: str) -> bool:
        # Schedules may reference background threads that only exist in
        # some interleavings (race-steered invocations); an unspawned
        # thread is simply not runnable.
        thread = self.machine._by_name.get(name)
        if thread is None:
            return False
        return thread.runnable and not self.trampoline.is_parked(name)

    def _head_constraint(self) -> Optional[OrderConstraint]:
        if self._head < len(self._constraints):
            return self._constraints[self._head]
        return None

    def _choose(self) -> Optional[str]:
        # 1. Drive toward the head constraint: its owner must run to reach
        #    the constrained instruction.
        head = self._head_constraint()
        if head is not None:
            if self.trampoline.constraint_index(head.thread) == self._head:
                self.trampoline.release(head.thread)
            if self._runnable(head.thread):
                return head.thread
        # 2. Continue the active thread.
        if self._active is not None and self._runnable(self._active):
            return self._active
        # 3. First runnable, un-parked thread in schedule order.
        for name in self._thread_order():
            if self._runnable(name):
                return name
        # 4. Resume the most recently preempted runnable thread.
        for name in self.trampoline.resume_candidates():
            if self.machine.thread(name).runnable:
                self.trampoline.release(name)
                return name
        return None

    # ------------------------------------------------------------------
    # Stuck resolution
    # ------------------------------------------------------------------
    def _constraint_disappeared(self, head: OrderConstraint) -> bool:
        """Can the head constraint's instruction still execute?"""
        if not self._known(head.thread):
            # The owning background thread was never invoked in this run —
            # a race-steered control flow made it disappear.
            return True
        owner = self.machine.thread(head.thread)
        if owner.done:
            return True
        parked_index = self.trampoline.constraint_index(head.thread)
        if parked_index is not None and parked_index > self._head:
            # The owner reached a *later* constrained instruction without
            # passing the head: a race-steered control flow skipped it.
            return True
        return False

    def _pass_head(self) -> None:
        """Retire the head constraint: disarm its breakpoint, advance the
        queue and release the threads parked behind it."""
        self.breakpoints.remove(self._constraint_bps[self._head])
        self._head += 1
        self.trampoline.release_constraint_parked()

    def _drop_head(self, disappeared: bool) -> None:
        head = self._constraints[self._head]
        self._dropped.append(head)
        if not disappeared:
            self._infeasible.append(head)
        self._pass_head()

    def _resolve_stuck(self) -> bool:
        """No thread was choosable.  Returns True when progress was made."""
        head = self._head_constraint()
        if head is not None:
            # Either the head instruction disappeared (its thread finished or
            # skipped it via a race-steered control flow), or enforcing the
            # remaining order is infeasible (e.g. the owner is blocked on a
            # lock held by a parked thread).  Both resolve by dropping the
            # head; Causality Analysis interprets the two cases differently.
            self._drop_head(disappeared=self._constraint_disappeared(head))
            return True
        blocked = [t for t in self.machine.threads
                   if t.state is ThreadState.BLOCKED]
        if blocked and not self.machine.all_done():
            self.machine.report_deadlock(blocked)
        return False

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        machine = self.machine
        if self._policy is not None and self._resumed_from is None:
            # Entry checkpoint: for the very first run this is the boot
            # state, reusable under any schedule.
            self._maybe_capture()
        # Loop-invariant bindings: none of these objects is rebound while
        # the run executes (spawns and parking mutate them in place).
        by_name = machine._by_name
        functions = machine.image.functions
        execute = machine._execute
        armed = self.breakpoints.armed
        parked = self.trampoline.parked
        constraints = self._constraints
        n_constraints = len(constraints)
        observe = self.watchpoints.observe
        # Periodic captures only where the policy asks for them; interval
        # 0 skips the per-step bookkeeping altogether.
        interval = self._policy.interval if self._policy is not None else 0
        ready = ThreadState.READY
        while machine.failure is None:
            # Fast path: the active thread keeps running while it is READY
            # and unparked and no other thread owns the head constraint —
            # exactly when _choose would pick it again.
            name = self._active
            ctx = by_name.get(name)
            head = self._head
            if ctx is None or ctx.state is not ready or name in parked or (
                    head < n_constraints and constraints[head].thread != name):
                if machine.all_done():
                    break
                name = self._choose()
                if name is None:
                    if not self._resolve_stuck():
                        break
                    continue
                ctx = by_name[name]
            frame = ctx.frames[-1]
            instr = functions[frame.func].instructions[frame.pc]

            # The trap gate: one probe, and enforcement work only on a hit.
            constraint_index = None
            if (name, instr.addr) in armed:
                occurrence = ctx.exec_counts.get(instr.addr, 0) + 1
                preemption = self._match_preemption(name, instr.addr,
                                                    occurrence)
                if preemption is not None:
                    self._fire_preemption(preemption, name, instr)
                    continue
                constraint_index = self._match_constraint(name, instr.addr,
                                                          occurrence)
                if constraint_index is not None and \
                        constraint_index != self._head:
                    self.trampoline.park_on_constraint(name, constraint_index,
                                                       instr.addr)
                    if self._active == name:
                        self._active = None
                    continue

            outcome = execute(ctx, frame, instr)
            self._steps += 1
            if self._steps > MAX_RUN_STEPS:
                raise RuntimeError(
                    f"run exceeded {MAX_RUN_STEPS} steps under schedule "
                    f"{self.schedule.describe()}")
            if outcome.executed:
                if constraint_index is not None:
                    self._pass_head()
                self._active = None if outcome.thread_done else name
                for access in outcome.accesses:
                    observe(access)
            elif outcome.blocked and self._active == name:
                self._active = None
            if interval:
                self._steps_since_capture += 1
                if self._steps_since_capture >= interval:
                    self._maybe_capture()

        # Constraints whose instructions never executed (their thread
        # finished early or the run crashed) disappeared.
        while self._head < len(self._constraints):
            self._drop_head(disappeared=True)

        machine.finish()
        return self._result()

    def _match_preemption(self, thread: str, instr_addr: int,
                          occurrence: int) -> Optional[Preemption]:
        for p in self._pending_preemptions:
            if p.matches(thread, instr_addr, occurrence):
                return p
        return None

    def _match_constraint(self, thread: str, instr_addr: int,
                          occurrence: int) -> Optional[int]:
        for i in range(self._head, len(self._constraints)):
            if self._constraints[i].matches(thread, instr_addr, occurrence):
                return i
        return None

    def _fire_preemption(self, preemption: Preemption, thread: str,
                         instr) -> None:
        # Pre-fire capture: this state has NOT diverged yet (the preemption
        # is still pending), so a search can reuse it as a checkpoint of
        # the base schedule at exactly the divergence point — siblings that
        # diverge later resume from here instead of an earlier capture.
        # It is the only capture a fire takes: a post-fire state shares
        # this horizon, and resume keeps the pre-fire one.
        self._maybe_capture()
        self._pending_preemptions.remove(preemption)
        self.breakpoints.remove(Breakpoint(preemption.instr_addr, thread,
                                           preemption.occurrence))
        self._fired.append((preemption, self.machine.trace[-1].seq
                            if self.machine.trace else 0))
        self.trampoline.park_preempted(thread, instr.addr)
        if self.watch_races:
            data_addr = self.machine.resolve_access_addr(thread, instr)
            if data_addr is not None:
                self.watchpoints.install(Watchpoint(
                    data_addr=data_addr, owner_thread=thread,
                    owner_instr_addr=instr.addr, owner_label=instr.name))
        target = preemption.switch_to
        if target is not None:
            if self.trampoline.is_parked(target) and \
                    self.trampoline.parked_reason(target) is ParkReason.PREEMPTED:
                self.trampoline.release(target)
            self._active = target if self._runnable(target) else None
        else:
            self._active = None

    # ------------------------------------------------------------------
    def _measured_interleavings(self) -> int:
        if not self._fired:
            return 0
        # Only the fired preemptions' threads matter; a reverse scan finds
        # each one's last executed seq and stops as soon as all are seen.
        needed = {p.thread for p, _ in self._fired}
        executed_after: Dict[str, int] = {}
        for entry in reversed(self.machine.trace):
            t = entry.thread
            if t in needed and t not in executed_after:
                executed_after[t] = entry.seq
                if len(executed_after) == len(needed):
                    break
        count = 0
        for preemption, seq in self._fired:
            last = executed_after.get(preemption.thread, 0)
            if last > seq:
                count += 1
        return count

    def _result(self) -> RunResult:
        tracer = self.tracer
        if tracer.enabled:
            tracer.count("hv.runs")
            tracer.count("hv.steps", self._steps)
            tracer.count("hv.preemptions_fired", len(self._fired))
            tracer.count("hv.breakpoint_hits",
                         len(self._fired) + len(self._constraints)
                         - len(self._dropped))
            tracer.count("hv.watchpoint_hits", len(self.watchpoints.hits))
            tracer.count("hv.constraints_dropped", len(self._dropped))
            if self.machine.failure is not None:
                tracer.count("hv.crashes")
        return RunResult(
            schedule=self.schedule,
            failure=self.machine.failure,
            trace=list(self.machine.trace),
            accesses=list(self.machine.access_log),
            spawn_events=list(self.machine.spawn_events),
            fired_preemptions=[p for p, _ in self._fired],
            fired_seqs=[seq for _, seq in self._fired],
            dropped_constraints=list(self._dropped),
            infeasible_constraints=list(self._infeasible),
            watch_hits=list(self.watchpoints.hits),
            steps=self._steps,
            interleavings=len(self._fired),
            resumed_interleavings=self._measured_interleavings(),
            thread_names=[t.name for t in self.machine.threads],
            thread_kinds={t.name: t.kind.value for t in self.machine.threads},
        )


def serial_schedule(order: Sequence[str], note: str = "") -> Schedule:
    """A schedule with no interleavings: threads run to completion in the
    given order (LIFS interleaving count 0)."""
    return Schedule(start_order=tuple(order), note=note or "serial")
