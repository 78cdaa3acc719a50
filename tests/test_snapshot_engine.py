"""Tests for the prefix-checkpoint execution engine.

Covers the three layers end to end: controller-level checkpoint/resume
(property: resuming from any captured checkpoint is bit-identical to a
fresh boot), the LIFS accounting identities (``snapshot.hits +
snapshot.misses == lifs.schedules``), the ``use_snapshots`` ablation
(identical diagnoses, fewer interpreted steps), and thread-recreating
restores.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.causality import CaConfig
from repro.core.diagnose import Aitia
from repro.core.lifs import (
    FailureMatcher,
    LeastInterleavingFirstSearch,
    LifsConfig,
)
from repro.core.schedule import Preemption, Schedule
from repro.corpus.registry import get_bug
from repro.hypervisor.controller import ScheduleController
from repro.hypervisor.snapshot import (
    CheckpointPolicy,
    boot_checkpoint,
    capture,
    restore,
)
from repro.observe import MemorySink, Tracer

from helpers import (fig2_factory, fig2_image, fig2_machine, machine_state,
                     run_thread, snapshot_state)

IMAGE = fig2_image()
A_LABELS = ["A2", "A5", "A6", "A12"]
B_LABELS = ["B2", "B11", "B12", "B17a"]

preemption_lists = st.lists(
    st.tuples(
        st.sampled_from(["A", "B"]),
        st.sampled_from(A_LABELS + B_LABELS),
        st.sampled_from(["A", "B", None]),
    ),
    min_size=0, max_size=3,
)


def _schedule(preempts, start_first):
    preemptions = []
    for thread, label, target in preempts:
        if label in A_LABELS and thread != "A":
            thread = "A"
        if label in B_LABELS and thread != "B":
            thread = "B"
        if target == thread:
            target = None
        preemptions.append(Preemption(
            thread=thread, instr_addr=IMAGE.instruction_labeled(label).addr,
            occurrence=1, switch_to=target, instr_label=label))
    order = ("A", "B") if start_first else ("B", "A")
    return Schedule(start_order=order, preemptions=preemptions)


def _run_facts(run):
    return (
        [(t.thread, t.instr_addr, t.seq, t.occurrence) for t in run.trace],
        [(a.thread, a.instr_addr, a.data_addr, a.seq) for a in run.accesses],
        run.failure,
        run.steps,
        run.interleavings,
    )


class TestResumeBitIdentity:
    """Property: a controller resumed from any prefix checkpoint produces
    the same trace, access log, failure, and step count as a fresh boot
    enforcing the same schedule."""

    @given(preemption_lists, st.booleans(),
           st.integers(min_value=0, max_value=63))
    @settings(max_examples=60, deadline=None)
    def test_resume_from_any_checkpoint_matches_fresh_boot(
            self, preempts, start_first, pick):
        schedule = _schedule(preempts, start_first)
        fresh = ScheduleController(fig2_machine(), schedule,
                                   checkpoint_policy=CheckpointPolicy())
        run1 = fresh.run()
        if not fresh.checkpoints:
            return
        ckpt = fresh.checkpoints[pick % len(fresh.checkpoints)]
        run2 = ScheduleController(fig2_machine(), schedule,
                                  resume_from=ckpt).run()
        assert _run_facts(run2) == _run_facts(run1)
        assert run2.signature_hash() == run1.signature_hash()

    @given(preemption_lists, st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_boot_checkpoint_resumes_under_any_schedule(
            self, preempts, start_first):
        schedule = _schedule(preempts, start_first)
        run1 = ScheduleController(fig2_machine(), schedule).run()
        machine = fig2_machine()
        ckpt = boot_checkpoint(machine)
        run2 = ScheduleController(machine, schedule,
                                  resume_from=ckpt).run()
        assert _run_facts(run2) == _run_facts(run1)


class TestSnapshotAccounting:
    def test_hits_plus_misses_equals_schedules(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        lifs = LeastInterleavingFirstSearch(
            fig2_factory(), ["A", "B"], FailureMatcher.any_failure(),
            config=LifsConfig(use_snapshots=True), tracer=tracer)
        result = lifs.search()
        tracer.close()
        stats = result.stats
        assert stats.snapshot_hits + stats.snapshot_misses \
            == stats.schedules_executed
        assert stats.snapshot_hits > 0
        # The same identity holds at the trace-counter level.
        counters = sink.counter_totals()
        assert counters["snapshot.hits"] + counters["snapshot.misses"] \
            == counters["lifs.schedules"]

    def test_snapshots_off_counts_every_run_as_miss(self):
        lifs = LeastInterleavingFirstSearch(
            fig2_factory(), ["A", "B"], FailureMatcher.any_failure(),
            config=LifsConfig(use_snapshots=False))
        result = lifs.search()
        stats = result.stats
        assert stats.snapshot_hits == 0
        assert stats.snapshot_misses == stats.schedules_executed

    def test_ca_hits_plus_misses_equals_flip_schedules(self):
        bug = get_bug("SYZ-01")
        diagnosis = Aitia(bug, ca_config=CaConfig(use_snapshots=True)
                          ).diagnose()
        stats = diagnosis.ca_result.stats
        assert stats.snapshot_hits + stats.snapshot_misses \
            == stats.schedules_executed
        assert stats.snapshot_hits > 0


class TestAblation:
    """``use_snapshots=False`` (the ``--no-snapshot`` CLI flag) must be a
    pure accounting change: identical diagnosis, more interpreted steps."""

    def _diagnose(self, bug_id, on):
        bug = get_bug(bug_id)
        return Aitia(bug,
                     lifs_config=LifsConfig(use_snapshots=on),
                     ca_config=CaConfig(use_snapshots=on)).diagnose()

    def test_diagnosis_is_bit_identical(self):
        on = self._diagnose("CVE-2017-15649", True)
        off = self._diagnose("CVE-2017-15649", False)
        assert on.chain.render() == off.chain.render()
        assert on.lifs_result.failure_run.signature_hash() \
            == off.lifs_result.failure_run.signature_hash()
        assert on.lifs_result.stats.schedules_executed \
            == off.lifs_result.stats.schedules_executed
        assert on.lifs_result.stats.total_steps \
            == off.lifs_result.stats.total_steps
        assert on.ca_result.stats.schedules_executed \
            == off.ca_result.stats.schedules_executed
        assert on.ca_result.stats.total_steps \
            == off.ca_result.stats.total_steps

    def test_snapshots_interpret_fewer_steps(self):
        on = self._diagnose("CVE-2017-15649", True)
        off = self._diagnose("CVE-2017-15649", False)
        on_steps = (on.lifs_result.stats.interpreted_steps
                    + on.ca_result.stats.interpreted_steps)
        off_steps = (off.lifs_result.stats.interpreted_steps
                     + off.ca_result.stats.interpreted_steps)
        assert on_steps < off_steps
        assert on.lifs_result.stats.saved_steps > 0


class TestThreadRecreation:
    def test_restore_forward_recreates_spawned_threads(self):
        bug = get_bug("SYZ-04")
        machine = bug.machine_factory()
        pre = capture(machine)
        baseline = len(machine.threads)
        run_thread(machine, "A")
        run_thread(machine, "B")  # queue_work spawns the kworker
        assert len(machine.threads) > baseline
        assert machine.failure is None
        post = capture(machine)

        # Rewind discards the kworker...
        restore(machine, pre)
        assert len(machine.threads) == baseline
        # ...and fast-forwarding recreates it, bit-for-bit.
        restore(machine, post)
        assert len(machine.threads) > baseline
        assert machine_state(machine) == snapshot_state(post)
