"""Property-based tests: O(dirty) snapshots and generation-cached captures.

The memory subsystem captures structurally-shared images (parent
pointer + dirty overlay) and restores by replaying undo deltas.  These
properties pin the contract the fast path must keep:

* snapshot -> mutate -> restore round-trips to exactly the state a full
  deep copy would have restored;
* interleaved captures are independent generations — restoring any one
  of them reproduces precisely the state it captured, in any order;
* a captured machine's canonical state (``snapshot_state``) always
  equals the live machine's (``machine_state``), across arbitrary step
  interleavings, and survives restore.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.builder import ProgramBuilder
from repro.kernel.machine import KernelMachine, ThreadSpec
from repro.kernel.memory import Memory
from repro.kernel.snapshot import restore_machine, snapshot_machine

from helpers import machine_state, memory_state, snapshot_state

GLOBALS = ("g0", "g1", "g2")

#: One mutation against a Memory: allocs, slot stores (object or
#: global), frees and loads, all index-based so any sequence is valid.
_mem_op = st.one_of(
    st.tuples(st.just("alloc"), st.integers(8, 64)),
    st.tuples(st.just("store"), st.integers(0, 7), st.integers(0, 7),
              st.integers(0, 100)),
    st.tuples(st.just("store_global"), st.integers(0, 2),
              st.integers(0, 100)),
    st.tuples(st.just("free"), st.integers(0, 7)),
    st.tuples(st.just("load"), st.integers(0, 7), st.integers(0, 7)),
)

mem_ops = st.lists(_mem_op, max_size=24)


def _fresh_memory():
    return Memory(globals_init={g: 0 for g in GLOBALS})


def _apply(mem, ops, live):
    """Interpret an op list; ``live`` tracks (base, size) of unfreed
    objects so every op is always legal (no faults)."""
    for op in ops:
        kind = op[0]
        if kind == "alloc":
            base = mem.alloc(op[1], f"obj{op[1]}")
            live.append((base, op[1]))
        elif kind == "store" and live:
            base, size = live[op[1] % len(live)]
            mem.store(base + (op[2] % (size // 8)) * 8, op[3])
        elif kind == "store_global":
            mem.store(mem.global_addr(GLOBALS[op[1]]), op[2])
        elif kind == "free" and live:
            base, _ = live.pop(op[1] % len(live))
            mem.free(base, site=f"F{base:x}")
        elif kind == "load" and live:
            base, size = live[op[1] % len(live)]
            mem.load(base + (op[2] % (size // 8)) * 8)


def _flat_copy(mem):
    return (dict(mem._cells), dict(mem._objects), dict(mem._globals),
            mem._next_global, mem._next_heap)


def _assert_matches_flat(mem, flat):
    cells, objects, globals_map, next_global, next_heap = flat
    assert mem._cells == cells
    assert mem._objects == objects
    assert mem._globals == globals_map
    assert mem._next_global == next_global
    assert mem._next_heap == next_heap


@given(mem_ops, mem_ops)
@settings(max_examples=80, deadline=None)
def test_snapshot_mutate_restore_equals_full_copy(prefix, suffix):
    mem = _fresh_memory()
    live = []
    _apply(mem, prefix, live)
    flat = _flat_copy(mem)
    key = memory_state(mem)
    snap = mem.snapshot()

    _apply(mem, suffix, list(live))
    mem.restore(snap)

    _assert_matches_flat(mem, flat)
    assert memory_state(mem) == key
    # The restored state is fully usable: the same mutations produce
    # the same result as they did the first time.
    _apply(mem, suffix, list(live))
    after = memory_state(mem)
    mem.restore(snap)
    _apply(mem, suffix, list(live))
    assert memory_state(mem) == after


@given(st.lists(mem_ops, min_size=2, max_size=4), st.randoms())
@settings(max_examples=60, deadline=None)
def test_interleaved_captures_are_independent(segments, rng):
    mem = _fresh_memory()
    live = []
    generations = []
    for ops in segments:
        _apply(mem, ops, live)
        generations.append((mem.snapshot(), _flat_copy(mem),
                            memory_state(mem)))
    # Restoring any captured generation — in any order, repeatedly —
    # reproduces exactly the state it captured.
    picks = list(range(len(generations))) * 2
    rng.shuffle(picks)
    for i in picks:
        snap, flat, key = generations[i]
        mem.restore(snap)
        _assert_matches_flat(mem, flat)
        assert memory_state(mem) == key


_statement = st.one_of(
    st.tuples(st.just("inc"), st.sampled_from(GLOBALS),
              st.integers(-3, 3)),
    st.tuples(st.just("store"), st.sampled_from(GLOBALS),
              st.integers(0, 100)),
    st.tuples(st.just("load"), st.sampled_from(("r0", "r1")),
              st.sampled_from(GLOBALS)),
    st.tuples(st.just("alloc"),),
    st.tuples(st.just("nop"),),
)


def _build(per_thread):
    b = ProgramBuilder()
    for t, statements in enumerate(per_thread):
        with b.function(f"f{t}") as f:
            for i, stmt in enumerate(statements):
                op = stmt[0]
                if op == "inc":
                    f.inc(f.g(stmt[1]), stmt[2], label=f"t{t}s{i}")
                elif op == "store":
                    f.store(f.g(stmt[1]), stmt[2], label=f"t{t}s{i}")
                elif op == "load":
                    f.load(stmt[1], f.g(stmt[2]), label=f"t{t}s{i}")
                elif op == "alloc":
                    f.alloc("r0", 16, f"t{t}o{i}", label=f"t{t}s{i}")
                else:
                    f.nop(label=f"t{t}s{i}")
    return b.build()


@given(st.lists(st.lists(_statement, min_size=1, max_size=8),
                min_size=2, max_size=3),
       st.lists(st.integers(0, 2), max_size=30),
       st.integers(0, 29))
@settings(max_examples=60, deadline=None)
def test_snapshot_key_equals_live_key_across_steps(per_thread, choices,
                                                   capture_at):
    image = _build(per_thread)
    specs = [ThreadSpec(f"T{t}", f"f{t}") for t in range(len(per_thread))]
    m = KernelMachine(image, specs,
                      globals_init={g: 0 for g in GLOBALS})
    captured = None
    for step, choice in enumerate(choices):
        runnable = [t for t in m.threads if t.runnable]
        if m.halted or not runnable:
            break
        m.step(runnable[choice % len(runnable)].name)
        assert snapshot_state(snapshot_machine(m)) == machine_state(m)
        if step == capture_at:
            captured = (snapshot_machine(m), machine_state(m))
    if captured is not None:
        snap, key = captured
        assert snapshot_state(snap) == key
        restore_machine(m, snap)
        assert machine_state(m) == key
        assert snapshot_state(snapshot_machine(m)) == key
