"""LIFS skips a candidate that undoes its base's last preemption.

Such a candidate replays the base's parent run, so LIFS charges it as
that run without executing it (``LeastInterleavingFirstSearch._replay_bound``).
These tests hold the skip to that claim:

* the checking mode (:mod:`lifs_skip_check`) executes every skipped
  candidate on a fresh boot — over the corpus under every engine
  setting, in report mode and over seeded random programs — and each
  must replay its parent run;
* turning the skip off must change nothing but the executed counts:
  the same schedules decided in the same order, the same equivalences,
  retained runs and simulated cost, at any schedule budget;
* a thread parked above the returning thread blocks the skip, and the
  equivalence-dedup ablation skips nothing.
"""

from dataclasses import replace

import pytest

from repro import api
from repro.analysis.metrics import CostModel
from repro.core.lifs import (LeastInterleavingFirstSearch, LifsConfig,
                             _ParentReplay)
from repro.core.schedule import Preemption, Schedule
from repro.corpus import registry
from repro.corpus.registry import get_bug
from repro.hypervisor.controller import ScheduleController
from repro.kernel.builder import ProgramBuilder
from repro.kernel.machine import KernelMachine, ThreadSpec
from repro.trace.syzkaller import run_bug_finder

from lifs_skip_check import NO_MATCH, check_skips, search_random_program

#: Bugs whose searches skip candidates (every one in a corpus pass).
SKIPPING = ["CVE-2017-15649", "SYZ-02", "SYZ-06", "SYZ-08", "SYZ-11"]


def _no_skips(monkeypatch):
    """Turn the skip off: every candidate executes, as before the rule."""
    monkeypatch.setattr(LeastInterleavingFirstSearch, "_parent_replay",
                        lambda self, parent, run: None)


def _decisions(monkeypatch):
    """Record every schedule the search decides, executed or skipped."""
    decided = []
    account = LeastInterleavingFirstSearch._account_run
    skip = LeastInterleavingFirstSearch._skip

    def on_account(self, schedule, run, round_index):
        decided.append(schedule.key())
        return account(self, schedule, run, round_index)

    def on_skip(self, schedule, replay, round_index):
        if self._out_of_budget():
            return False
        decided.append(schedule.key())
        return skip(self, schedule, replay, round_index)

    monkeypatch.setattr(LeastInterleavingFirstSearch, "_account_run",
                        on_account)
    monkeypatch.setattr(LeastInterleavingFirstSearch, "_skip", on_skip)
    return decided


class TestCheckingMode:

    @pytest.mark.parametrize("settings", [
        {}, {"policy": "adaptive"}, {"snapshots": False}],
        ids=["static", "adaptive", "no-snapshot"])
    def test_corpus_skips_replay_their_parent(self, settings, monkeypatch):
        checked = check_skips(monkeypatch)
        registry.load()
        skipped = sum(
            api.diagnose(bug, **settings).lifs_result.stats.equivalent_skipped
            for bug in registry.all_bugs())
        assert len(checked) == skipped >= 1270

    @pytest.mark.parametrize("fuzz_seed", [None, 1])
    def test_report_mode_skips_replay_their_parent(self, fuzz_seed,
                                                   monkeypatch):
        checked = check_skips(monkeypatch)
        for bug_id in SKIPPING:
            bug = get_bug(bug_id)
            api.diagnose(bug, report=run_bug_finder(bug, fuzz_seed=fuzz_seed))
        assert len(checked) >= 1270

    def test_random_programs_skip_soundly(self, monkeypatch):
        checked = check_skips(monkeypatch)
        for seed in range(20):
            search_random_program(seed)
            search_random_program(seed, use_snapshots=False)
            search_random_program(seed, policy="adaptive")
        assert len(checked) > 200


class TestSkipChangesOnlyExecution:

    @pytest.mark.parametrize("bug_id", ["CVE-2017-15649", "SYZ-11"])
    def test_same_decisions_results_and_cost(self, bug_id, monkeypatch):
        decided = _decisions(monkeypatch)
        skipping = api.diagnose(bug_id)
        with_skips = list(decided)
        decided.clear()
        _no_skips(monkeypatch)
        reference = api.diagnose(bug_id)
        assert with_skips == decided

        stats, ref = skipping.lifs_result.stats, reference.lifs_result.stats
        assert stats.equivalent_skipped > 0 and ref.equivalent_skipped == 0
        assert (stats.schedules_executed + stats.equivalent_skipped
                == ref.schedules_executed)
        assert stats.total_steps + stats.skipped_steps == ref.total_steps
        assert stats.equivalent_runs == ref.equivalent_runs
        assert stats.per_round_equivalent == ref.per_round_equivalent
        assert all(count <= ref.per_round_equivalent[depth]
                   for depth, count in stats.per_round_skipped.items())
        assert skipping.chain.render() == reference.chain.render()
        assert skipping.lifs_cost == reference.lifs_cost
        assert skipping.lifs_cost == stats.stage_cost(CostModel())
        assert skipping.lifs_result.run_summaries \
            == reference.lifs_result.run_summaries

    @pytest.mark.parametrize("budget", [7, 60, 250])
    def test_budget_stops_at_the_same_candidate(self, budget, monkeypatch):
        decided = _decisions(monkeypatch)
        config = LifsConfig(max_schedules=budget)
        lifs = api.diagnose("SYZ-06", lifs=config).lifs_result
        with_skips = list(decided)
        decided.clear()
        _no_skips(monkeypatch)
        reference = api.diagnose("SYZ-06", lifs=config).lifs_result
        assert with_skips == decided
        assert lifs.reproduced == reference.reproduced
        assert (lifs.stats.schedules_executed + lifs.stats.equivalent_skipped
                == reference.stats.schedules_executed <= budget)


def _stacked_program():
    """Three threads in which U is parked under W when T hands over to U.

    P = (U at Uy -> W), (W at Wz -> T): T runs to the end, then the
    trampoline resumes W (stacked last) before U.  B adds (T at Tx ->
    U), and C adds (U at Uv -> T), undoing B's last preemption after the
    excursion Uy.  In C, U is stacked above W, so U's Us runs before W's
    Ws: C reorders two reads of ``s`` and is not P."""
    b = ProgramBuilder()
    with b.function("u") as f:
        f.load("r", f.g("b"), label="U0")
        f.load("r", f.g("a"), label="Uy")
        f.load("r", f.g("xv"), label="Uv")
        f.load("r", f.g("s"), label="Us")
    with b.function("w") as f:
        f.load("r", f.g("b"), label="W0")
        f.store(f.g("a"), 1, label="Ww")
        f.load("r", f.g("c"), label="Wc")
        f.store(f.g("zz"), 1, label="Wz")
        f.load("r", f.g("s"), label="Ws")
    with b.function("t") as f:
        f.load("r", f.g("c"), label="Tc")
        f.load("r", f.g("zz"), label="Tt")
        f.store(f.g("xv"), 1, label="Tx")
    image = b.build()

    def factory():
        return KernelMachine(image, [ThreadSpec("U", "u"),
                                     ThreadSpec("W", "w"),
                                     ThreadSpec("T", "t")])

    def preempt(thread, label, to):
        return Preemption(thread, image.instruction_labeled(label).addr, 1,
                          to, label)

    order = ("U", "W", "T")
    parent = Schedule(order, [preempt("U", "Uy", "W"),
                              preempt("W", "Wz", "T")])
    base = Schedule(order, parent.preemptions + [preempt("T", "Tx", "U")])
    candidate = Schedule(order,
                         base.preemptions + [preempt("U", "Uv", "T")])
    return factory, parent, base, candidate


class TestRuleBoundaries:

    def test_thread_stacked_above_u_blocks_the_skip(self, monkeypatch):
        factory, parent, base, candidate = _stacked_program()
        runs = [ScheduleController(factory(), s).run()
                for s in (parent, base, candidate)]
        assert runs[2].signature() != runs[0].signature()
        executed = []
        account = LeastInterleavingFirstSearch._account_run

        def on_account(self, schedule, run, round_index):
            executed.append(schedule.key())
            return account(self, schedule, run, round_index)

        monkeypatch.setattr(LeastInterleavingFirstSearch, "_account_run",
                            on_account)
        lifs = LeastInterleavingFirstSearch(factory, ["U", "W", "T"],
                                            target=NO_MATCH)
        assert lifs._parent_replay(runs[0], runs[1]) is None
        result = lifs.search()
        # LIFS reaches the candidate and runs it; the skip still fires
        # elsewhere in the same search.
        assert candidate.key() in executed
        assert result.stats.equivalent_skipped > 0

    def test_equivalence_dedup_off_skips_nothing(self):
        diagnosis = api.diagnose(
            "CVE-2017-15649", lifs=LifsConfig(equivalence_dedup=False))
        stats = diagnosis.lifs_result.stats
        assert stats.equivalent_runs > 0
        assert stats.equivalent_skipped == stats.skipped_steps == 0
        assert stats.per_round_skipped == {}

    def test_summary_is_kept_only_for_undoable_runs(self):
        factory, parent, _, _ = _stacked_program()
        lifs = LeastInterleavingFirstSearch(factory, ["U", "W", "T"])
        order = ("U", "W", "T")
        serial = ScheduleController(factory(), Schedule(order)).run()

        def depth1(switch_to):
            preemption = replace(parent.preemptions[0], switch_to=switch_to)
            return ScheduleController(
                factory(), Schedule(order, [preemption])).run()

        # U -> T: in the serial parent only T runs from T's first entry
        # after the fire on, so the run keeps a summary.
        replay = lifs._parent_replay(serial, depth1("T"))
        assert isinstance(replay, _ParentReplay)
        assert replay.preemption.switch_to == "T"
        assert replay.parent_steps == serial.steps
        # U -> W: T runs after W's first entry there; no replay possible.
        assert lifs._parent_replay(serial, depth1("W")) is None
        assert lifs._parent_replay(serial, serial) is None
