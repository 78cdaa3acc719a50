"""Shared test fixtures: small kernel models used across the suite, and
the canonical-state oracle that restore-equals-fresh properties compare
machines with."""

from __future__ import annotations

from repro.kernel.builder import ProgramBuilder
from repro.kernel.machine import KernelMachine, ThreadSpec
from repro.kernel.memory import HEAP_BASE, Memory
from repro.kernel.program import KernelImage
from repro.kernel.snapshot import MachineSnapshot


def fig2_image() -> KernelImage:
    """The paper's Figure 2 (CVE-2017-15649), without benign-race salt."""
    b = ProgramBuilder()
    with b.function("fanout_add") as f:
        f.load("r0", f.g("po_running"), label="A2")
        f.brz("r0", "A3", label="A2b")
        f.alloc("r1", 16, tag="match", label="A5")
        f.store(f.g("po_fanout"), f.r("r1"), label="A6")
        f.call("fanout_link", label="A8")
        f.ret(label="A3")
    with b.function("fanout_link") as f:
        f.list_add(f.g("global_list"), f.i(77), label="A12")
    with b.function("packet_do_bind") as f:
        f.load("r0", f.g("po_fanout"), label="B2")
        f.brnz("r0", "B3", label="B2b")
        f.call("unregister_hook", label="B5")
        f.ret(label="B3")
    with b.function("unregister_hook") as f:
        f.store(f.g("po_running"), f.i(0), label="B11")
        f.load("r0", f.g("po_fanout"), label="B12")
        f.brz("r0", "B14", label="B12b")
        f.call("fanout_unlink", label="B13")
        f.ret(label="B14")
    with b.function("fanout_unlink") as f:
        f.list_contains("r1", f.g("global_list"), f.i(77), label="B17a")
        f.binop("r2", "eq", f.r("r1"), f.i(0))
        f.bug_on("r2", "sk not on global_list", label="B17")
    return b.build()


def fig2_machine() -> KernelMachine:
    return KernelMachine(
        fig2_image(),
        [ThreadSpec("A", "fanout_add"), ThreadSpec("B", "packet_do_bind")],
        globals_init={"po_running": 1, "po_fanout": 0, "global_list": ()},
    )


def fig2_factory():
    return fig2_machine


def two_counter_image() -> KernelImage:
    """Two threads bumping shared counters — benign races only."""
    b = ProgramBuilder()
    with b.function("bump_a") as f:
        f.inc(f.g("c1"), 1, label="A1")
        f.inc(f.g("c2"), 1, label="A2")
    with b.function("bump_b") as f:
        f.inc(f.g("c1"), 1, label="B1")
        f.inc(f.g("c2"), 1, label="B2")
    return b.build()


def two_counter_machine() -> KernelMachine:
    return KernelMachine(
        two_counter_image(),
        [ThreadSpec("A", "bump_a"), ThreadSpec("B", "bump_b")],
    )


def run_thread(machine: KernelMachine, name: str) -> None:
    """Run one thread to completion (no other thread scheduled)."""
    thread = machine.thread(name)
    while not thread.done and not machine.halted:
        machine.step(name)


def run_until(machine: KernelMachine, name: str, stop_label: str) -> None:
    """Run a thread until it is about to execute ``stop_label``."""
    while True:
        instr = machine.peek(name)
        if instr is None or machine.halted or instr.name == stop_label:
            return
        machine.step(name)


# ----------------------------------------------------------------------
# Canonical-state oracle
# ----------------------------------------------------------------------
def _canonical_memory(cells, objects, globals_map, next_global,
                      next_heap) -> tuple:
    # A heap cell holding 0 reads exactly like a never-written slot, so
    # it is dropped: a store of 0 and a pure load leave one state.
    return (
        tuple(sorted((addr, value) for addr, value in cells.items()
                     if addr < HEAP_BASE or value != 0)),
        tuple(sorted(globals_map.items())),
        tuple((base, obj.size, obj.tag, obj.state.value, obj.leak_tracked,
               obj.alloc_site, obj.free_site)
              for base, obj in sorted(objects.items())),
        next_global, next_heap)


def _canonical_locks(held) -> tuple:
    """``held`` maps each lock name to its ``(owner, waiters)``."""
    return tuple(sorted((name, owner, tuple(waiters))
                        for name, (owner, waiters) in held.items()
                        if owner is not None or waiters))


def _canonical_thread(ident, state) -> tuple:
    # ``steps`` is left out: it counts blocked re-attempts, which two
    # equal prefixes may differ in, and feeds only the runaway limit.
    return (ident.tid, ident.name, ident.kind.value, ident.entry,
            state["state"].value,
            tuple(sorted(state["regs"].items())),
            tuple((frame.func, frame.pc) for frame in state["frames"]),
            tuple(state["locks_held"]), state["blocked_on"],
            tuple(sorted(state["exec_counts"].items())))


def memory_state(memory: Memory) -> tuple:
    """Canonical state of a live :class:`Memory`: cells (zero heap cells
    dropped), globals, heap-object metadata and both allocation cursors."""
    return _canonical_memory(memory._cells, memory._objects, memory._globals,
                             memory._next_global, memory._next_heap)


def machine_state(machine: KernelMachine) -> tuple:
    """Canonical state of a live machine, recomputed on every call: its
    memory, lock owners and waiters, and each thread's control state.
    Two machines with equal states behave identically from here on."""
    locks = {name: (info.owner, info.waiters)
             for name, info in machine.locks._locks.items()}
    return memory_state(machine.memory) + (
        _canonical_locks(locks),
        tuple(sorted(_canonical_thread(t, vars(t)) for t in machine.threads)))


def snapshot_state(snapshot: MachineSnapshot) -> tuple:
    """:func:`machine_state` of the machine ``snapshot`` captured."""
    image = snapshot.memory
    cells, objects, globals_map = image._materialized()
    return _canonical_memory(cells, objects, globals_map, image.next_global,
                             image.next_heap) + (
        _canonical_locks(snapshot.locks),
        tuple(sorted(_canonical_thread(t, t.state)
                     for t in snapshot.threads)))
