"""What one LIFS schedule leaves behind for later runs, and what they reuse.

* **Checkpoint placement** — a LIFS run captures at entry (fresh runs
  only) and just before each preemption fires, nothing else: those are
  the only points a later extension resumes from.
* **Hash-keyed equivalence** — LIFS dedups runs on the in-process
  ``hash`` of their Mazurkiewicz signature; together with the
  candidates it skips before they run, it must find exactly the
  equivalences the stable digest found.
* **Resumed runs** — every run of a whole diagnosis that resumed on
  the engine's vehicle machine equals a fresh run of the same schedule,
  and leaves the vehicle in the state the fresh run leaves its machine.
"""

import pytest

from repro import api
from repro.core.lifs import LeastInterleavingFirstSearch
from repro.corpus.registry import get_bug
from repro.engine.engine import ScheduleExecutionEngine
from repro.hypervisor.controller import ScheduleController
from repro.hypervisor.snapshot import CheckpointPolicy

from helpers import machine_state


def _lifs_outcomes(bug_id, monkeypatch):
    """Diagnose ``bug_id`` and return ``(request, outcome)`` for every
    schedule LIFS executed (the requests that capture checkpoints)."""
    seen = []
    execute = ScheduleExecutionEngine.run

    def recording(self, request):
        outcome = execute(self, request)
        if request.capture_checkpoints:
            seen.append((request, outcome))
        return outcome

    monkeypatch.setattr(ScheduleExecutionEngine, "run", recording)
    api.diagnose(bug_id)
    return seen


# ----------------------------------------------------------------------
# Checkpoint placement
# ----------------------------------------------------------------------
class TestCapturePlacement:

    @pytest.mark.parametrize("bug_id", ["SYZ-05", "CVE-2017-2671", "SYZ-01"])
    def test_captures_are_entry_or_pre_fire_only(self, bug_id, monkeypatch):
        outcomes = _lifs_outcomes(bug_id, monkeypatch)
        assert outcomes
        boot_entries = 0
        for request, outcome in outcomes:
            run = outcome.run
            fired = list(zip(run.fired_preemptions, run.fired_seqs))
            inherited = (len(request.resume_from.fired)
                         if request.resume_from is not None else 0)
            checkpoints = list(outcome.checkpoints)
            if not outcome.resumed:
                # Entry capture: the boot state, first in the list.
                entry = checkpoints.pop(0)
                assert (entry.steps, entry.fired) == (0, ())
                boot_entries += 1
            pre_fire = []
            for ckpt in checkpoints:
                k = len(ckpt.fired)
                assert k < len(fired)
                assert ckpt.fired == tuple(fired[:k])
                # Its firing preemption is still pending in the capture.
                firing, fire_seq = fired[k]
                assert all(p != firing for p, _ in ckpt.fired)
                assert fire_seq in (0, ckpt.horizon_seq)
                pre_fire.append(k)
            # Exactly one per preemption this run fired itself.
            assert pre_fire == list(range(inherited, len(fired)))
        # Only the search's first run boots fresh.
        assert boot_entries == 1

    def test_zero_interval_takes_no_periodic_captures(self):
        bug = get_bug("SYZ-01")
        schedule = bug.known_failing_schedule
        sparse = ScheduleController(
            bug.machine_factory(), schedule,
            checkpoint_policy=CheckpointPolicy(interval=0))
        run = sparse.run()
        assert len(sparse.checkpoints) == 1 + len(run.fired_preemptions)
        assert sparse._steps_since_capture == 0
        dense = ScheduleController(
            bug.machine_factory(), schedule,
            checkpoint_policy=CheckpointPolicy(interval=1))
        dense.run()
        assert len(dense.checkpoints) > len(sparse.checkpoints)

    @pytest.mark.parametrize("bug_id,checkpoints,interpreted", [
        ("SYZ-05", 2, 26),
        ("CVE-2017-2671", 11, 314),
        ("SYZ-01", 45, 2130),
    ])
    def test_pinned_capture_and_step_counts(self, bug_id, checkpoints,
                                            interpreted):
        stats = api.diagnose(bug_id).lifs_result.stats
        assert stats.snapshot_checkpoints == checkpoints
        assert stats.interpreted_steps == interpreted


# ----------------------------------------------------------------------
# Hash-keyed equivalence
# ----------------------------------------------------------------------
#: LIFS accounting per bug, recorded when the search still deduplicated
#: on ``RunResult.signature_hash()`` and ran every candidate: schedules
#: decided (executed plus skipped), equivalent runs per round, steps of
#: every decided schedule (skipped ones at the runs they replay) — plus
#: how many of those schedules are skipped before they run.
DEDUP_PINS = {
    "SYZ-06": (845, 462, {0: 4, 1: 3, 2: 455}, 38192, 416),
    "SYZ-02": (734, 355, {0: 4, 1: 2, 2: 349}, 44039, 349),
    "SYZ-08": (549, 306, {0: 4, 1: 3, 2: 299}, 20450, 268),
    "CVE-2017-15649": (425, 240, {0: 4, 1: 3, 2: 233}, 15099, 206),
    # Symmetric bug: mirror witnesses share signatures.
    "SYZ-09": (18, 5, {0: 4, 1: 1}, 559, 0),
}


class TestHashKeyedDedup:

    @pytest.mark.parametrize("bug_id", sorted(DEDUP_PINS))
    def test_same_equivalences_as_the_digest(self, bug_id, monkeypatch):
        keys = []
        account = LeastInterleavingFirstSearch._account_run

        def recording(self, schedule, run, round_index):
            signature = run.signature()
            keys.append((signature, hash(signature), run.signature_hash()))
            return account(self, schedule, run, round_index)

        monkeypatch.setattr(LeastInterleavingFirstSearch, "_account_run",
                            recording)
        stats = api.diagnose(bug_id).lifs_result.stats
        assert (stats.schedules_executed + stats.equivalent_skipped,
                stats.equivalent_runs, stats.per_round_equivalent,
                stats.total_steps + stats.skipped_steps,
                stats.equivalent_skipped) == DEDUP_PINS[bug_id]
        # hash(signature()) partitions the executed runs exactly as the
        # digest (and the signature itself) does.
        assert len(keys) == stats.schedules_executed
        classes = len({signature for signature, _, _ in keys})
        assert len({h for _, h, _ in keys}) == classes
        assert len({d for _, _, d in keys}) == classes
        assert len(set(keys)) == classes
        assert stats.schedules_executed - classes \
            == stats.equivalent_runs - stats.equivalent_skipped


# ----------------------------------------------------------------------
# Resumed runs
# ----------------------------------------------------------------------
def _run_fields(run):
    return {
        "trace": list(run.trace),
        "accesses": list(run.accesses),
        "spawn_events": list(run.spawn_events),
        "watch_hits": list(run.watch_hits),
        "failure": run.failure,
        "steps": run.steps,
        "threads": (list(run.thread_names), dict(run.thread_kinds)),
    }


class TestResumedRuns:
    """Every resumed run of a whole diagnosis (LIFS and CA) against a
    fresh boot that interprets the schedule end to end."""

    @pytest.mark.parametrize("bug_id", ["SYZ-01", "SYZ-11"])
    def test_resumed_runs_equal_fresh_runs(self, bug_id, monkeypatch):
        resumed = []
        execute = ScheduleExecutionEngine.run

        def recording(self, request):
            outcome = execute(self, request)
            if outcome.resumed:
                resumed.append((request, outcome.run,
                                machine_state(self.vehicle)))
            return outcome

        monkeypatch.setattr(ScheduleExecutionEngine, "run", recording)
        api.diagnose(bug_id)

        bug = get_bug(bug_id)
        assert resumed
        for request, run, vehicle_state in resumed:
            machine = bug.machine_factory()
            fresh = ScheduleController(
                machine, request.schedule,
                watch_races=request.watch_races).run()
            assert _run_fields(run) == _run_fields(fresh)
            assert vehicle_state == machine_state(machine)
