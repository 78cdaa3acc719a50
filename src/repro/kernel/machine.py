"""The simulated-kernel virtual machine.

:class:`KernelMachine` interprets the IR one instruction at a time, *only*
when an external scheduler calls :meth:`KernelMachine.step` for a specific
thread.  Nothing ever runs spontaneously: this gives the layer above the
same instruction-granular control that AITIA's hypervisor obtains with
hardware breakpoints, while the machine itself stays a faithful, dumb CPU.

The machine records every memory access (with locksets and occurrence
indices), every background-thread invocation, and the totally ordered trace
of executed instructions.  On a fault it converts the exception into a
:class:`~repro.kernel.failures.Failure` and halts, like a kernel panic.

Execution dispatches through a per-opcode handler table over the
assembly-time decoded operand tuples (see
:func:`repro.kernel.instructions.decode_operands`): one dict probe per
step instead of an if/elif ladder, no ``isinstance`` operand tests, and
branch targets resolved to instruction indices ahead of time.

The per-step records (:class:`TraceEntry`, :class:`SpawnEvent` and
:class:`~repro.kernel.access.MemoryAccess`) are immutable named tuples
built with ``tuple.__new__``, and :class:`StepOutcome` is slotted with
tuple ``accesses``/``spawned``: an executed instruction allocates little
beyond its trace entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from repro.kernel.access import EMPTY_LOCKSET, AccessKind, MemoryAccess
from repro.kernel.failures import Failure, FailureKind, KernelFault
from repro.kernel.instructions import (
    IMM,
    Deref,
    Global,
    Imm,
    Instruction,
    Op,
    Reg,
)
from repro.kernel.locks import LockTable
from repro.kernel.memory import Memory
from repro.kernel.program import KernelImage
from repro.kernel.threads import Frame, ThreadContext, ThreadKind, ThreadState

#: Hard per-thread step limit; hitting it means the model itself is broken
#: (an unbounded loop), not a kernel failure.
MAX_THREAD_STEPS = 200_000


@dataclass(frozen=True)
class ThreadSpec:
    """Initial thread of a run (a system call in flight)."""

    name: str
    entry: str
    kind: ThreadKind = ThreadKind.SYSCALL
    regs: Dict[str, Any] = field(default_factory=dict)


class SpawnEvent(NamedTuple):
    """A background-thread invocation (``queue_work`` / ``call_rcu``)."""

    seq: int
    parent: str
    child: str
    kind: ThreadKind
    instr_label: str


class TraceEntry(NamedTuple):
    """One executed instruction in the totally ordered run trace."""

    seq: int
    thread: str
    instr_addr: int
    instr_label: str
    func: str
    occurrence: int


class StepOutcome:
    """What happened when one instruction was (or was not) executed."""

    __slots__ = ("executed", "instr", "accesses", "spawned", "blocked",
                 "thread_done", "failure")

    def __init__(self, executed: bool, instr: Optional[Instruction] = None,
                 accesses: Tuple[MemoryAccess, ...] = (),
                 spawned: Tuple[int, ...] = (), blocked: bool = False,
                 thread_done: bool = False,
                 failure: Optional[Failure] = None) -> None:
        self.executed = executed
        self.instr = instr
        self.accesses = accesses
        self.spawned = spawned
        self.blocked = blocked
        self.thread_done = thread_done
        self.failure = failure

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"StepOutcome({fields})"


_new = tuple.__new__


# ----------------------------------------------------------------------
# Per-opcode handlers.  Each receives (machine, ctx, frame, instr) and
# consumes instr.decoded; `_execute` routes through _DISPATCH with a single
# dict probe.
# ----------------------------------------------------------------------
_READ = AccessKind.READ
_WRITE = AccessKind.WRITE
_READ_WRITE = AccessKind.READ_WRITE


def _op_lock(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    # LOCK is special: a failed acquisition blocks without executing.
    name = instr.decoded[0]
    if m.locks.try_acquire(name, ctx.tid):
        ctx.locks_held.append(name)
        ctx.state = ThreadState.READY
        ctx.blocked_on = None
        m._record_trace(ctx, instr)
        frame.pc += 1
        return StepOutcome(True, instr)
    ctx.state = ThreadState.BLOCKED
    ctx.blocked_on = name
    return StepOutcome(False, instr, blocked=True)


def _op_unlock(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    m._record_trace(ctx, instr)
    name = instr.decoded[0]
    woken = m.locks.release(name, ctx.tid)
    ctx.locks_held.remove(name)
    for tid in woken:
        waiter = m.threads[tid]
        waiter.state = ThreadState.READY
        waiter.blocked_on = None
        waiter.gen += 1
    frame.pc += 1
    return StepOutcome(True, instr)


def _op_load(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    occurrence = m._record_trace(ctx, instr)
    dst, expr = instr.decoded
    addr = m._daddr(ctx, expr)
    access = m._record_access(ctx, instr, addr, _READ, occurrence)
    ctx.regs[dst] = m.memory.load(addr)
    frame.pc += 1
    return StepOutcome(True, instr, (access,))


def _op_store(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    occurrence = m._record_trace(ctx, instr)
    expr, src = instr.decoded
    addr = m._daddr(ctx, expr)
    access = m._record_access(ctx, instr, addr, _WRITE, occurrence)
    m.memory.store(addr, m._dval(ctx, src))
    frame.pc += 1
    return StepOutcome(True, instr, (access,))


def _op_inc(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    occurrence = m._record_trace(ctx, instr)
    expr, delta = instr.decoded
    addr = m._daddr(ctx, expr)
    access = m._record_access(ctx, instr, addr, _READ_WRITE, occurrence)
    memory = m.memory
    memory.store(addr, memory.load(addr) + delta)
    frame.pc += 1
    return StepOutcome(True, instr, (access,))


def _op_mov(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    m._record_trace(ctx, instr)
    dst, src = instr.decoded
    ctx.regs[dst] = m._dval(ctx, src)
    frame.pc += 1
    return StepOutcome(True, instr)


def _op_lea(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    m._record_trace(ctx, instr)
    dst, glob = instr.decoded
    ctx.regs[dst] = m.memory.global_addr(glob)
    frame.pc += 1
    return StepOutcome(True, instr)


def _op_binop(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    m._record_trace(ctx, instr)
    dst, fn, lhs, rhs = instr.decoded
    ctx.regs[dst] = fn(m._dval(ctx, lhs), m._dval(ctx, rhs))
    frame.pc += 1
    return StepOutcome(True, instr)


def _op_brz(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    m._record_trace(ctx, instr)
    if m._dval(ctx, instr.decoded[0]) == 0:
        frame.pc = instr.target_index
    else:
        frame.pc += 1
    return StepOutcome(True, instr)


def _op_brnz(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    m._record_trace(ctx, instr)
    if m._dval(ctx, instr.decoded[0]) != 0:
        frame.pc = instr.target_index
    else:
        frame.pc += 1
    return StepOutcome(True, instr)


def _op_jmp(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    m._record_trace(ctx, instr)
    frame.pc = instr.target_index
    return StepOutcome(True, instr)


def _op_call(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    m._record_trace(ctx, instr)
    frame.pc += 1
    ctx.frames.append(Frame(instr.decoded[0], 0))
    return StepOutcome(True, instr)


def _op_ret(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    m._record_trace(ctx, instr)
    frames = ctx.frames
    frames.pop()
    if frames:
        return StepOutcome(True, instr)
    ctx.state = ThreadState.DONE
    return StepOutcome(True, instr, thread_done=True)


def _op_alloc(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    m._record_trace(ctx, instr)
    dst, size, tag, leak_tracked = instr.decoded
    ctx.regs[dst] = m.memory.alloc(size, tag, site=instr.name,
                                   leak_tracked=leak_tracked)
    frame.pc += 1
    return StepOutcome(True, instr)


def _op_free(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    occurrence = m._record_trace(ctx, instr)
    ptr = m._dval(ctx, instr.decoded[0])
    # Freeing writes the *whole* object (as KASAN poisons it), so the free
    # conflicts with accesses to any field of the object, not just its base.
    obj = m.memory.object_at(ptr, include_freed=True)
    if obj is not None and obj.base == ptr:
        accesses = tuple(
            m._record_access(ctx, instr, ptr + offset, _WRITE, occurrence)
            for offset in range(0, obj.size, 8))
    else:
        accesses = (m._record_access(ctx, instr, ptr, _WRITE, occurrence),)
    m.memory.free(ptr, site=instr.name)
    frame.pc += 1
    return StepOutcome(True, instr, accesses)


def _op_spawn(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    m._record_trace(ctx, instr)
    func_name, arg = instr.decoded
    kind = (ThreadKind.KWORKER if instr.op is Op.QUEUE_WORK
            else ThreadKind.RCU)
    prefix = "kworker" if kind is ThreadKind.KWORKER else "rcu"
    child_name = f"{prefix}/{func_name}#{len(m.threads)}"
    child = m._add_thread(
        child_name, func_name, kind,
        regs={"a0": m._dval(ctx, arg)},
        spawned_by=ctx.name, spawn_instr=instr.name)
    m.spawn_events.append(SpawnEvent(
        seq=m._seq, parent=ctx.name, child=child_name,
        kind=kind, instr_label=instr.name))
    frame.pc += 1
    return StepOutcome(True, instr, spawned=(child.tid,))


def _op_bug_on(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    m._record_trace(ctx, instr)
    cond, message = instr.decoded
    if m._dval(ctx, cond):
        raise KernelFault(FailureKind.ASSERTION,
                          message or f"BUG_ON at {instr.name}")
    frame.pc += 1
    return StepOutcome(True, instr)


def _op_list_add(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    occurrence = m._record_trace(ctx, instr)
    expr, elem = instr.decoded
    addr = m._daddr(ctx, expr)
    access = m._record_access(ctx, instr, addr, _READ_WRITE, occurrence)
    current = m.memory.load(addr)
    items = current if isinstance(current, tuple) else ()
    m.memory.store(addr, items + (m._dval(ctx, elem),))
    frame.pc += 1
    return StepOutcome(True, instr, (access,))


def _op_list_del(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    occurrence = m._record_trace(ctx, instr)
    expr, elem = instr.decoded
    addr = m._daddr(ctx, expr)
    access = m._record_access(ctx, instr, addr, _READ_WRITE, occurrence)
    current = m.memory.load(addr)
    items = list(current) if isinstance(current, tuple) else []
    value = m._dval(ctx, elem)
    if value in items:
        items.remove(value)
    m.memory.store(addr, tuple(items))
    frame.pc += 1
    return StepOutcome(True, instr, (access,))


def _op_list_contains(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    occurrence = m._record_trace(ctx, instr)
    dst, expr, elem = instr.decoded
    addr = m._daddr(ctx, expr)
    access = m._record_access(ctx, instr, addr, _READ, occurrence)
    current = m.memory.load(addr)
    items = current if isinstance(current, tuple) else ()
    ctx.regs[dst] = int(m._dval(ctx, elem) in items)
    frame.pc += 1
    return StepOutcome(True, instr, (access,))


def _op_cmpxchg(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    occurrence = m._record_trace(ctx, instr)
    dst, expr, expected, new_value = instr.decoded
    addr = m._daddr(ctx, expr)
    access = m._record_access(ctx, instr, addr, _READ_WRITE, occurrence)
    old_value = m.memory.load(addr)
    if old_value == m._dval(ctx, expected):
        m.memory.store(addr, m._dval(ctx, new_value))
    ctx.regs[dst] = old_value
    frame.pc += 1
    return StepOutcome(True, instr, (access,))


def _op_xchg(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    occurrence = m._record_trace(ctx, instr)
    dst, expr, new_value = instr.decoded
    addr = m._daddr(ctx, expr)
    access = m._record_access(ctx, instr, addr, _READ_WRITE, occurrence)
    ctx.regs[dst] = m.memory.load(addr)
    m.memory.store(addr, m._dval(ctx, new_value))
    frame.pc += 1
    return StepOutcome(True, instr, (access,))


def _op_nop(m: "KernelMachine", ctx, frame, instr) -> StepOutcome:
    m._record_trace(ctx, instr)
    frame.pc += 1
    return StepOutcome(True, instr)


_DISPATCH: Dict[Op, Callable] = {
    Op.LOAD: _op_load,
    Op.STORE: _op_store,
    Op.INC: _op_inc,
    Op.MOV: _op_mov,
    Op.LEA: _op_lea,
    Op.BINOP: _op_binop,
    Op.BRZ: _op_brz,
    Op.BRNZ: _op_brnz,
    Op.JMP: _op_jmp,
    Op.CALL: _op_call,
    Op.RET: _op_ret,
    Op.ALLOC: _op_alloc,
    Op.FREE: _op_free,
    Op.LOCK: _op_lock,
    Op.UNLOCK: _op_unlock,
    Op.QUEUE_WORK: _op_spawn,
    Op.CALL_RCU: _op_spawn,
    Op.BUG_ON: _op_bug_on,
    Op.CMPXCHG: _op_cmpxchg,
    Op.XCHG: _op_xchg,
    Op.LIST_ADD: _op_list_add,
    Op.LIST_DEL: _op_list_del,
    Op.LIST_CONTAINS: _op_list_contains,
    Op.NOP: _op_nop,
}

assert set(_DISPATCH) == set(Op), "every opcode needs a dispatch handler"


class KernelMachine:
    """One bootable instance of the simulated kernel."""

    def __init__(
        self,
        image: KernelImage,
        threads: Sequence[ThreadSpec],
        globals_init: Optional[Dict[str, Any]] = None,
        coverage_cb: Optional[Callable[[str, int], None]] = None,
        leak_check: bool = True,
        setup: Sequence[ThreadSpec] = (),
    ) -> None:
        self.image = image
        self.memory = Memory()
        self.locks = LockTable()
        self.coverage_cb = coverage_cb
        self.leak_check = leak_check
        self.failure: Optional[Failure] = None
        self.access_log: List[MemoryAccess] = []
        self.trace: List[TraceEntry] = []
        self.spawn_events: List[SpawnEvent] = []
        self._seq = 0
        self.threads: List[ThreadContext] = []
        self._by_name: Dict[str, ThreadContext] = {}

        # Pre-define every global the image mentions (deterministic layout),
        # then apply the model's initial values.
        for name in self._referenced_globals():
            self.memory.define_global(name, 0)
        for name, value in (globals_init or {}).items():
            self.memory.define_global(name, value)

        # Setup calls (open/socket/...) run serially to completion before the
        # concurrent part of a slice, and their activity is not recorded:
        # they establish the pre-failure kernel state, like replaying the
        # non-concurrent prefix of an execution history (section 4.2).
        for spec in setup:
            ctx = self._add_thread(spec.name, spec.entry, spec.kind,
                                   regs=dict(spec.regs))
            while not ctx.done:
                if self.halted:
                    raise RuntimeError(
                        f"setup call {spec.name} crashed the kernel: "
                        f"{self.failure}")
                self.step(ctx.tid)
        #: Instructions interpreted to boot this machine (the serial setup
        #: prefix); a run resumed from a checkpoint skips exactly this work
        #: plus the checkpointed prefix.
        self.setup_steps = sum(t.steps for t in self.threads)
        # Fresh lists, not .clear(): snapshots capture the log lists as
        # length-bounded views, so a list that ever backed a snapshot must
        # never shrink in place.
        self.access_log = []
        self.trace = []
        self.spawn_events = []

        for spec in threads:
            self._add_thread(spec.name, spec.entry, spec.kind,
                             regs=dict(spec.regs))

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _referenced_globals(self) -> List[str]:
        names: List[str] = []
        seen = set()
        for func in self.image.functions.values():
            for instr in func.instructions:
                for operand in instr.operands:
                    if isinstance(operand, Global) and operand.name not in seen:
                        seen.add(operand.name)
                        names.append(operand.name)
        return names

    def _add_thread(self, name: str, entry: str, kind: ThreadKind,
                    regs: Optional[Dict[str, Any]] = None,
                    spawned_by: Optional[str] = None,
                    spawn_instr: Optional[str] = None) -> ThreadContext:
        if name in self._by_name:
            raise ValueError(f"duplicate thread name {name!r}")
        if entry not in self.image.functions:
            raise ValueError(f"thread entry {entry!r} is not a function")
        ctx = ThreadContext(
            tid=len(self.threads), name=name, kind=kind, entry=entry,
            regs=regs or {}, frames=[Frame(entry, 0)],
            spawned_by=spawned_by, spawn_instr=spawn_instr,
        )
        self.threads.append(ctx)
        self._by_name[name] = ctx
        return ctx

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self):
        """Capture the machine's full mutable state (see
        :mod:`repro.kernel.snapshot`)."""
        from repro.kernel.snapshot import snapshot_machine
        return snapshot_machine(self)

    def restore(self, snapshot) -> None:
        """Put the machine into a previously captured state, rebuilding the
        thread list as needed."""
        from repro.kernel.snapshot import restore_machine
        restore_machine(self, snapshot)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def thread(self, ref) -> ThreadContext:
        """Look a thread up by tid or name."""
        if ref.__class__ is str:
            return self._by_name[ref]
        if isinstance(ref, ThreadContext):
            return ref
        return self.threads[ref]

    @property
    def halted(self) -> bool:
        return self.failure is not None

    def all_done(self) -> bool:
        for t in self.threads:
            if t.state is not ThreadState.DONE:
                return False
        return True

    def runnable_threads(self) -> List[ThreadContext]:
        if self.halted:
            return []
        return [t for t in self.threads if t.runnable]

    def peek(self, ref) -> Optional[Instruction]:
        """The next instruction ``ref`` would execute, or ``None`` if the
        thread is done.  Blocked threads still report their pending LOCK."""
        ctx = self.thread(ref)
        if ctx.done or self.halted:
            return None
        frame = ctx.current_frame()
        func = self.image.functions[frame.func]
        return func.instructions[frame.pc]

    def resolve_access_addr(self, ref, instr: Instruction) -> Optional[int]:
        """The data address ``instr`` would access if the thread executed it
        now, or ``None`` for non-memory instructions.  This mirrors the AITIA
        hypervisor disassembling a breakpointed instruction to find the
        address to watch (paper section 4.3)."""
        if not instr.accesses_memory:
            return None
        ctx = self.thread(ref)
        if instr.op is Op.FREE:
            return self._value(ctx, instr.operands[0])
        expr = instr.operands[1] \
            if instr.op in (Op.LOAD, Op.LIST_CONTAINS, Op.CMPXCHG,
                            Op.XCHG) \
            else instr.operands[0]
        try:
            return self._effective_addr(ctx, expr)
        except KeyError:
            return None

    def next_occurrence(self, ref, instr_addr: int) -> int:
        """The occurrence index the next execution of ``instr_addr`` by this
        thread would have (1-based)."""
        ctx = self.thread(ref)
        return ctx.exec_counts.get(instr_addr, 0) + 1

    # ------------------------------------------------------------------
    # Operand evaluation
    # ------------------------------------------------------------------
    def _value(self, ctx: ThreadContext, src) -> Any:
        if isinstance(src, Imm):
            return src.value
        if isinstance(src, Reg):
            return ctx.regs.get(src.name, 0)
        raise TypeError(f"bad value source {src!r}")

    def _effective_addr(self, ctx: ThreadContext, expr) -> int:
        if isinstance(expr, Global):
            return self.memory.global_addr(expr.name)
        if isinstance(expr, Deref):
            base = ctx.regs.get(expr.reg, 0)
            return base + expr.offset
        raise TypeError(f"bad address expression {expr!r}")

    def _dval(self, ctx: ThreadContext, src) -> Any:
        """Evaluate a decoded value source (``(IMM, v)`` / ``(REG, name)``)."""
        return src[1] if src[0] == IMM else ctx.regs.get(src[1], 0)

    def _daddr(self, ctx: ThreadContext, expr) -> int:
        """Evaluate a decoded address expression (``(GLOB, name)`` /
        ``(DEREF, reg, offset)``)."""
        if expr[0] == 2:  # GLOB — every referenced global is pre-defined
            return self.memory._globals[expr[1]]
        return ctx.regs.get(expr[1], 0) + expr[2]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self, ref) -> StepOutcome:
        """Execute one instruction of the given thread.

        Blocked threads re-attempt their pending LOCK.  Stepping a done
        thread or a halted machine is an error — the scheduler above must
        not do it.
        """
        if self.halted:
            raise RuntimeError("machine has halted on a failure")
        ctx = self.thread(ref)
        if ctx.done:
            raise RuntimeError(f"thread {ctx.name} is done")
        frames = ctx.frames
        if not frames:
            raise RuntimeError(f"thread {ctx.name} has no active frame")
        frame = frames[-1]
        return self._execute(
            ctx, frame, self.image.functions[frame.func].instructions[frame.pc])

    def _execute(self, ctx: ThreadContext, frame: Frame,
                 instr: Instruction) -> StepOutcome:
        """Execute ``instr``, the instruction at ``frame``'s pc, for ``ctx``.

        The post-validation entry point: the caller has established what
        :meth:`step` checks — the machine is not halted, the thread is not
        done, and ``frame`` is its top frame."""
        ctx.gen += 1  # invalidate this thread's cached capture/key
        ctx.steps += 1
        if ctx.steps > MAX_THREAD_STEPS:
            raise RuntimeError(
                f"thread {ctx.name} exceeded {MAX_THREAD_STEPS} steps; "
                f"the model likely has an unbounded loop")
        if self.coverage_cb is not None and instr.leads_block:
            self.coverage_cb(ctx.name, instr.block_start)
        try:
            return _DISPATCH[instr.op](self, ctx, frame, instr)
        except KernelFault as fault:
            # Handlers record the trace entry before the access faults, so
            # the faulting instruction is already the last trace entry.
            self.failure = Failure(
                kind=fault.kind, thread=ctx.name, instr_label=instr.name,
                message=fault.message, data_addr=fault.data_addr,
                object_tag=fault.object_tag,
            )
            return StepOutcome(True, instr, failure=self.failure)

    def _record_trace(self, ctx: ThreadContext, instr: Instruction) -> int:
        seq = self._seq = self._seq + 1
        addr = instr.addr
        counts = ctx.exec_counts
        count = counts.get(addr, 0) + 1
        counts[addr] = count
        self.trace.append(_new(TraceEntry, (
            seq, ctx.name, addr, instr.name, instr.func, count)))
        return count

    def _record_access(self, ctx: ThreadContext, instr: Instruction,
                       data_addr: int, kind: AccessKind,
                       occurrence: int) -> MemoryAccess:
        held = ctx.locks_held
        access = _new(MemoryAccess, (
            self._seq, ctx.name, instr.addr, instr.name, instr.func,
            data_addr, kind, occurrence,
            frozenset(held) if held else EMPTY_LOCKSET))
        self.access_log.append(access)
        return access

    # ------------------------------------------------------------------
    # End-of-run checks
    # ------------------------------------------------------------------
    def finish(self) -> Optional[Failure]:
        """Run end-of-execution detectors (memory leaks).  Returns the run's
        failure, if any — either one that already halted the machine or one
        found now."""
        if self.failure is not None:
            return self.failure
        if self.leak_check and self.all_done():
            leaked = self.memory.live_leaked_objects()
            if leaked:
                obj = leaked[0]
                self.failure = Failure(
                    kind=FailureKind.MEMORY_LEAK,
                    instr_label=obj.alloc_site,
                    message=f"object {obj.tag} allocated at "
                            f"{obj.alloc_site} was never freed",
                    object_tag=obj.tag)
        return self.failure

    def report_deadlock(self, blocked: Sequence[ThreadContext]) -> Failure:
        """Record a deadlock failure (called by the scheduler when it proves
        no thread can make progress)."""
        names = ", ".join(t.name for t in blocked)
        waits = ", ".join(f"{t.name}->{t.blocked_on}" for t in blocked)
        instr_label = ""
        if blocked:
            pending = self.peek(blocked[0])
            if pending is not None:
                instr_label = pending.name
        self.failure = Failure(
            kind=FailureKind.DEADLOCK,
            thread=blocked[0].name if blocked else "",
            instr_label=instr_label,
            message=f"threads hung: {names} ({waits})")
        return self.failure
