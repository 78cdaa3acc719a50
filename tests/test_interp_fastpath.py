"""Regression tests for the interpreter fast path.

Covers the bug fixes that rode along with the instruction-level fast
path:

* ``Memory.free`` of a redzone address must fault (GPF), not silently
  free the object whose redzone it is — or, worse, a neighbour.
* ``Memory`` reads must not mutate cells: loading an uninitialized
  in-bounds slot returns 0 without materializing it, so pure loads
  never change the machine's canonical state.

And the trap-gated schedule-enforcement run loop: the record contracts
of the allocation-light trace/access/spawn records, the pinned
``signature_hash`` digests that persisted recordings depend on, and a
differential property test against the per-step loop the trap gate
replaced, kept here as :class:`ReferenceController`.
"""

import functools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.schedule import OrderConstraint, Preemption, Schedule
from repro.corpus.registry import get_bug
from repro.hypervisor.controller import (
    MAX_RUN_STEPS,
    ScheduleController,
    serial_schedule,
)
from repro.hypervisor.snapshot import CheckpointPolicy
from repro.kernel.access import AccessKind, MemoryAccess
from repro.kernel.builder import ProgramBuilder
from repro.kernel.failures import FailureKind, KernelFault
from repro.kernel.machine import (
    KernelMachine,
    SpawnEvent,
    ThreadSpec,
    TraceEntry,
)
from repro.kernel.memory import Memory, ObjectState
from repro.kernel.snapshot import snapshot_machine
from repro.kernel.threads import ThreadKind
from repro.observe import Tracer

from helpers import machine_state, memory_state, snapshot_state


class TestRedzoneFree:
    """S2: FREE of a non-base, non-interior pointer is a GPF."""

    def test_free_of_redzone_address_faults(self):
        mem = Memory()
        a = mem.alloc(16, "victim")
        b = mem.alloc(16, "neighbour")
        with pytest.raises(KernelFault) as exc:
            mem.free(a + 16)  # first redzone byte past `victim`
        assert exc.value.kind is FailureKind.GPF
        assert "redzone" in exc.value.message
        assert exc.value.object_tag == "victim"
        # Neither the object nor its neighbour was freed.
        assert mem.object_at(a).state is ObjectState.ALLOCATED
        assert mem.object_at(b).state is ObjectState.ALLOCATED

    def test_interior_free_still_releases_the_object(self):
        mem = Memory()
        a = mem.alloc(16, "obj")
        freed = mem.free(a + 8, site="K1")
        assert freed.base == a
        assert freed.state is ObjectState.FREED

    def test_corpus_style_redzone_free_halts_machine(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.alloc("r0", 16, "buf", label="A")
            f.binop("r1", "add", f.r("r0"), 16, label="B")
            f.free(f.r("r1"), label="C")
        machine = KernelMachine(b.build(), [ThreadSpec("T", "main")])
        while not machine.thread("T").done and not machine.halted:
            machine.step("T")
        assert machine.failure is not None
        assert machine.failure.kind is FailureKind.GPF
        assert "redzone" in machine.failure.message
        assert machine.failure.object_tag == "buf"
        # The faulting FREE never released the object.
        base = machine.thread("T").regs["r0"]
        assert machine.memory.object_at(base).state is ObjectState.ALLOCATED


class TestNonMutatingReads:
    """S3: pure loads leave memory — and its canonical state — untouched."""

    def test_load_of_uninitialized_slot_does_not_materialize_cell(self):
        mem = Memory()
        addr = mem.alloc(32, "obj")
        before = memory_state(mem)
        assert mem.load(addr + 8) == 0
        assert mem.load(addr + 24) == 0
        assert addr + 8 not in mem._cells
        assert memory_state(mem) == before

    def test_stored_zero_is_canonically_absent(self):
        # A slot written with 0 and a never-written slot read the same,
        # so they are one state: the canonical state must not tell them
        # apart, or the read-vs-no-read comparisons below would split on
        # a difference no load can observe.
        a = Memory()
        b = Memory()
        addr_a = a.alloc(32, "obj")
        addr_b = b.alloc(32, "obj")
        assert addr_a == addr_b
        b.store(addr_b + 8, 0)
        assert a.load(addr_a + 8) == b.load(addr_b + 8) == 0
        assert memory_state(a) == memory_state(b)

    def test_read_vs_no_read_machines_converge(self):
        """Two runs that differ only in pure loads of uninitialized
        slots reach the same canonical memory state."""
        def build(with_reads):
            b = ProgramBuilder()
            with b.function("main") as f:
                f.alloc("r0", 32, "buf", label="A")
                if with_reads:
                    f.load("r1", f.at("r0", 8), label="R1")
                    f.load("r2", f.at("r0", 24), label="R2")
                f.store(f.at("r0", 0), 7, label="W")
            return b.build()

        keys = []
        for with_reads in (False, True):
            m = KernelMachine(build(with_reads),
                              [ThreadSpec("T", "main")])
            while not m.thread("T").done and not m.halted:
                m.step("T")
            assert m.failure is None
            keys.append(memory_state(m.memory))
        assert keys[0] == keys[1]

    def test_live_and_snapshot_keys_agree_after_reads(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.alloc("r0", 32, "buf", label="A")
            f.load("r1", f.at("r0", 16), label="R")
            f.store(f.at("r0", 0), 1, label="W")
        m = KernelMachine(b.build(), [ThreadSpec("T", "main")])
        while not m.thread("T").done and not m.halted:
            m.step("T")
        assert snapshot_state(snapshot_machine(m)) == machine_state(m)


# ----------------------------------------------------------------------
# Record contracts
# ----------------------------------------------------------------------
#: (record, an equal record built by keyword, its exact repr text).
RECORDS = {
    "trace": (
        TraceEntry(7, "A", 0x40, "A6", "fanout_add", 2),
        TraceEntry(seq=7, thread="A", instr_addr=0x40, instr_label="A6",
                   func="fanout_add", occurrence=2),
        "TraceEntry(seq=7, thread='A', instr_addr=64, instr_label='A6', "
        "func='fanout_add', occurrence=2)",
    ),
    "access": (
        MemoryAccess(9, "B", 0x24, "B2", "bind", 0x1000, AccessKind.WRITE,
                     1, frozenset({"lock"})),
        MemoryAccess(seq=9, thread="B", instr_addr=0x24, instr_label="B2",
                     func="bind", data_addr=0x1000, kind=AccessKind.WRITE,
                     occurrence=1, lockset=frozenset({"lock"})),
        "MemoryAccess(seq=9, thread='B', instr_addr=36, instr_label='B2', "
        "func='bind', data_addr=4096, kind=<AccessKind.WRITE: 'W'>, "
        "occurrence=1, lockset=frozenset({'lock'}))",
    ),
    "spawn": (
        SpawnEvent(3, "A", "kworker/w#2", ThreadKind.KWORKER, "A3"),
        SpawnEvent(seq=3, parent="A", child="kworker/w#2",
                   kind=ThreadKind.KWORKER, instr_label="A3"),
        "SpawnEvent(seq=3, parent='A', child='kworker/w#2', "
        "kind=<ThreadKind.KWORKER: 'kworker'>, instr_label='A3')",
    ),
}


@pytest.mark.parametrize("kind", sorted(RECORDS))
class TestRecordContracts:
    def test_rejects_attribute_assignment(self, kind):
        record = RECORDS[kind][0]
        with pytest.raises(AttributeError):
            record.seq = 99
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record.seq != 99

    def test_hashes_and_compares_by_value(self, kind):
        record, twin, _ = RECORDS[kind]
        assert record is not twin
        assert record == twin and hash(record) == hash(twin)
        assert len({record, twin}) == 1
        other = type(record)(record.seq + 1, *tuple(record)[1:])
        assert other != record

    def test_survives_pickle_round_trip(self, kind):
        record = RECORDS[kind][0]
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone) is type(record)
        assert clone == record

    def test_keeps_field_order_and_repr(self, kind):
        record, _, text = RECORDS[kind]
        assert repr(record) == text


class TestAccessKinds:
    @pytest.mark.parametrize("kind, reads, writes", [
        (AccessKind.READ, True, False),
        (AccessKind.WRITE, False, True),
        (AccessKind.READ_WRITE, True, True),
    ])
    def test_is_read_and_is_write(self, kind, reads, writes):
        assert kind.is_read is reads
        assert kind.is_write is writes
        access = RECORDS["access"][0]._replace(kind=kind)
        assert access.is_read is reads
        assert access.is_write is writes

    def test_lock_free_accesses_share_the_empty_lockset(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.store(f.g("x"), 1, label="W1")
            f.load("r0", f.g("x"), label="R1")
        m = KernelMachine(b.build(), [ThreadSpec("T", "main")])
        while not m.thread("T").done:
            m.step("T")
        first, second = m.access_log
        assert first.lockset == frozenset()
        assert first.lockset is second.lockset


def _small_machine():
    """One thread: a global store, an alloc, a load, a three-slot FREE
    (one access per 8-byte slot) and a BUG_ON that does not fire."""
    b = ProgramBuilder()
    with b.function("main") as f:
        f.store(f.g("x"), 5, label="S")
        f.alloc("r0", 24, "obj", label="A")
        f.load("r1", f.g("x"), label="L")
        f.free(f.r("r0"), label="F")
        f.bug_on(f.r("r2"), "never", label="K")
    return KernelMachine(b.build(), [ThreadSpec("T", "main")])


class TestPublicStep:
    def test_step_raises_on_a_done_thread(self):
        m = _small_machine()
        while not m.thread("T").done:
            m.step("T")
        with pytest.raises(RuntimeError, match="is done"):
            m.step("T")

    def test_step_raises_on_a_halted_machine(self):
        b = ProgramBuilder()
        with b.function("main") as f:
            f.bug_on(1, "boom", label="K")
            f.nop(label="N")
        m = KernelMachine(b.build(), [ThreadSpec("T", "main")])
        outcome = m.step("T")
        assert outcome.failure is not None and m.halted
        with pytest.raises(RuntimeError, match="halted"):
            m.step("T")

    def test_outcome_accesses_are_the_logged_accesses(self):
        m = _small_machine()
        seen = []
        while not m.thread("T").done:
            outcome = m.step("T")
            assert isinstance(outcome.accesses, tuple)
            seen.extend(outcome.accesses)
        assert len(seen) == 1 + 1 + 3  # store, load, three-slot free
        assert seen == m.access_log
        assert all(a is b for a, b in zip(seen, m.access_log))


# ----------------------------------------------------------------------
# Pinned signature digests
# ----------------------------------------------------------------------
#: Failure-run ``signature_hash`` per bug, computed before the run loop
#: and its records were rebuilt.  Replay recordings persist this digest
#: and LIFS dedups on it, so its bytes must never change.
PINNED_DIGESTS = {
    "SYZ-05": 0x65B140863FB01E95,
    "CVE-2017-2671": 0x59CD1DA6892914EE,
    "SYZ-01": 0x04DB730D993C2D7C,
}


@pytest.mark.parametrize("bug_id", sorted(PINNED_DIGESTS))
def test_failure_run_signature_digest_is_pinned(bug_id):
    run = api.diagnose(bug_id).lifs_result.failure_run
    assert run.signature_hash() == PINNED_DIGESTS[bug_id]


# ----------------------------------------------------------------------
# Differential oracle: the per-step loop the trap gate replaced
# ----------------------------------------------------------------------
class ReferenceController(ScheduleController):
    """The per-step run loop the trap-gated loop replaced, kept as the
    differential oracle.  Every iteration re-chooses a thread and
    matches every pending preemption and constraint; it drives the
    machine only through the public ``peek`` / ``next_occurrence`` /
    ``step`` and never consults the installed breakpoints."""

    def run(self):
        machine = self.machine
        if self._policy is not None and self._resumed_from is None:
            self._maybe_capture()
        while not machine.halted and not machine.all_done():
            name = self._choose()
            if name is None:
                if not self._resolve_stuck():
                    break
                continue
            instr = machine.peek(name)
            if instr is None:
                self._active = None
                continue
            occurrence = machine.next_occurrence(name, instr.addr)
            preemption = self._match_preemption(name, instr.addr, occurrence)
            if preemption is not None:
                self._fire_preemption(preemption, name, instr)
                continue
            constraint_index = self._match_constraint(name, instr.addr,
                                                      occurrence)
            if constraint_index is not None and constraint_index != self._head:
                self.trampoline.park_on_constraint(name, constraint_index,
                                                   instr.addr)
                if self._active == name:
                    self._active = None
                continue
            outcome = machine.step(name)
            self._steps += 1
            assert self._steps <= MAX_RUN_STEPS
            if constraint_index is not None and outcome.executed:
                self._head += 1
                self.trampoline.release_constraint_parked()
            if outcome.executed:
                self._active = name
                for access in outcome.accesses:
                    self.watchpoints.observe(access)
            if outcome.blocked and self._active == name:
                self._active = None
            if outcome.thread_done and self._active == name:
                self._active = None
            self._steps_since_capture += 1
            if self._policy is not None and self._policy.interval and \
                    self._steps_since_capture >= self._policy.interval:
                self._maybe_capture()
        while self._head < len(self._constraints):
            self._drop_head(disappeared=True)
        machine.finish()
        return self._result()


DIFF_BUGS = ("SYZ-05", "CVE-2017-2671", "SYZ-01", "SYZ-07")


@functools.lru_cache(maxsize=None)
def _subject(bug_id):
    """A bug plus the scheduling points its runs can reach: every
    ``(thread, instr_addr, occurrence)`` executed by the known failing
    schedule or either serial order, and every thread name seen."""
    bug = get_bug(bug_id)
    threads = tuple(t.proc for t in bug.threads)
    runs = [ScheduleController(bug.machine_factory(), schedule).run()
            for schedule in (bug.known_failing_schedule,
                             serial_schedule(threads),
                             serial_schedule(threads[::-1]))]
    points = sorted({(e.thread, e.instr_addr, e.occurrence)
                     for run in runs for e in run.trace})
    names = sorted({n for run in runs for n in run.thread_names})
    return bug, threads, points, names


def _facts(controller, run):
    """Everything observable about one run, including what the
    controller captured along the way."""
    return {
        "trace": run.trace,
        "accesses": run.accesses,
        "spawn_events": run.spawn_events,
        "watch_hits": run.watch_hits,
        "fired": (run.fired_preemptions, run.fired_seqs),
        "dropped": run.dropped_constraints,
        "infeasible": run.infeasible_constraints,
        "failure": run.failure,
        "steps": run.steps,
        "interleavings": (run.interleavings, run.resumed_interleavings),
        "threads": (run.thread_names, run.thread_kinds),
        "digest": run.signature_hash(),
        "checkpoints": [(c.steps, c.horizon_seq, c.fired, c.active)
                        for c in controller.checkpoints],
    }


@st.composite
def _scenario(draw):
    bug, threads, points, names = _subject(draw(st.sampled_from(DIFF_BUGS)))
    order = tuple(draw(st.permutations(threads)))

    def preemption():
        thread, addr, occurrence = draw(st.sampled_from(points))
        target = draw(st.sampled_from(names + [None]))
        return Preemption(thread=thread, instr_addr=addr,
                          occurrence=occurrence,
                          switch_to=None if target == thread else target)

    preemptions = [preemption() for _ in range(draw(st.integers(0, 3)))]
    constraints = [OrderConstraint(*draw(st.sampled_from(points)))
                   for _ in range(draw(st.integers(0, 4)))]
    return bug, order, preemptions, constraints


def _both(make):
    """``_facts`` of the same run under the new loop and the oracle."""
    return [_facts(ctl, ctl.run())
            for ctl in (make(ScheduleController), make(ReferenceController))]


class TestRunLoopMatchesReference:
    """Differential property: the trap-gated loop and the per-step
    oracle produce identical runs — trace, accesses, spawns, watch
    hits, dropped and infeasible constraints, steps and both
    interleaving counts — fresh and resumed from a checkpoint."""

    @given(_scenario(), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_fresh_runs(self, scenario, interval):
        bug, order, preemptions, constraints = scenario
        schedule = Schedule(start_order=order, preemptions=preemptions,
                            constraints=constraints)
        new, ref = _both(lambda cls: cls(
            bug.machine_factory(), schedule,
            checkpoint_policy=CheckpointPolicy(interval=interval)))
        assert new == ref

    @given(_scenario(), st.integers(0, 63), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_resumed_runs(self, scenario, pick, split):
        bug, order, preemptions, constraints = scenario
        base = ReferenceController(
            bug.machine_factory(),
            Schedule(start_order=order, preemptions=preemptions[:split]),
            checkpoint_policy=CheckpointPolicy(interval=4))
        base.run()
        ckpt = base.checkpoints[pick % len(base.checkpoints)]
        # Constraint queues are only ever resumed from the boot point.
        schedule = Schedule(start_order=order, preemptions=preemptions,
                            constraints=[] if ckpt.steps else constraints)
        new, ref = _both(lambda cls: cls(
            bug.machine_factory(), schedule, resume_from=ckpt,
            checkpoint_policy=CheckpointPolicy(interval=4)))
        assert new == ref


@pytest.mark.parametrize("bug_id", ["SYZ-01", "SYZ-05"])
def test_diagnosis_matches_reference_loop(bug_id, monkeypatch):
    """End to end through the engine — boot resume and prefix resume in
    both LIFS and CA — the two loops give the same diagnosis and the
    same counters."""
    def diagnose():
        tracer = Tracer()
        diagnosis = api.diagnose(bug_id, tracer=tracer)
        return (diagnosis.chain.render(),
                diagnosis.lifs_result.failure_run.signature_hash(),
                dict(tracer.counters))

    new = diagnose()
    monkeypatch.setattr(ScheduleController, "run", ReferenceController.run)
    assert diagnose() == new
