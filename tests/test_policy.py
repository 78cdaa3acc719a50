"""Tests for the pluggable search-policy layer (repro.policy).

Covers the policy objects themselves (ordering, pruning, stats), the
experience index (extraction, absorption, snapshot round-trips, store
loading), the canonical tie-break keys in Causality Analysis, and end-to-end bit-identity of
diagnoses across policies.
"""

from itertools import permutations

import pytest

from repro import api
from repro.core.causality import CausalityAnalysis, RaceUnit
from repro.core.races import DataRace
from repro.engine.protocol import RunPlan, RunRequest
from repro.kernel.access import AccessKind, MemoryAccess
from repro.observe.tracer import Tracer
from repro.policy import (
    POLICY_CHOICES,
    AdaptivePolicy,
    CandidateMeta,
    ExperienceIndex,
    InvariantPrunePolicy,
    ShufflePolicy,
    StaticPolicy,
    make_policy,
)
from repro.service.store import ResultStore


def _access(seq, thread="A", addr=64, label=None, kind=AccessKind.WRITE):
    # Distinct (addr, seq) pairs get distinct instruction addresses so
    # races over different locations have distinct identity keys even
    # when their spans coincide — that is what the tie-breaks are for.
    return MemoryAccess(seq=seq, thread=thread,
                        instr_addr=addr * 0x100 + seq,
                        instr_label=label or f"{thread}{seq}", func="f",
                        data_addr=addr, kind=kind, occurrence=1)


def _race(first_seq, second_seq, addr):
    return DataRace(first=_access(first_seq, "A", addr),
                    second=_access(second_seq, "B", addr))


class _Schedule:
    """Minimal stand-in: plans only need request identity here."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return f"<sched {self.tag}>"


def _plan(metas):
    return RunPlan([RunRequest(schedule=_Schedule(m.index), meta=m)
                    for m in metas], phase="test")


def _meta(index, sort_key, features=()):
    return CandidateMeta(index=index, sort_key=sort_key,
                         features=tuple(features))


class TestMakePolicy:
    def test_static(self):
        assert isinstance(make_policy("static"), StaticPolicy)

    def test_adaptive_composes_pruning(self):
        policy = make_policy("adaptive")
        assert isinstance(policy, InvariantPrunePolicy)
        assert policy.name == "prune+adaptive-noprune"
        assert policy.reorders

    def test_prune_wraps_static(self):
        policy = make_policy("prune")
        assert isinstance(policy, InvariantPrunePolicy)
        assert not policy.reorders

    def test_shuffle_with_seed(self):
        policy = make_policy("shuffle:42")
        assert isinstance(policy, ShufflePolicy)
        assert policy.seed == 42

    def test_shuffle_ca_is_scoped_and_leaves_lifs_static(self):
        policy = make_policy("shuffle-ca:5")
        assert isinstance(policy, ShufflePolicy)
        assert policy.name == "shuffle-ca:5"
        assert not policy.reorders  # LIFS stays on the static path
        metas = [_meta(i, (i,)) for i in range(6)]
        lifs_plan = RunPlan([RunRequest(schedule=_Schedule(m.index), meta=m)
                             for m in metas], phase="lifs.extend")
        assert policy.order(lifs_plan) is lifs_plan

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_policy("nonsense")

    def test_cli_choices_are_constructible(self):
        for name in POLICY_CHOICES:
            assert make_policy(name) is not None


class TestStaticPolicy:
    def test_restores_canonical_order_after_shuffle(self):
        metas = [_meta(i, sort_key=(i,)) for i in range(8)]
        shuffled = ShufflePolicy(seed=3).order(_plan(metas))
        assert [r.meta.index for r in shuffled.requests] != list(range(8))
        restored = StaticPolicy().order(shuffled)
        assert [r.meta.index for r in restored.requests] == list(range(8))

    def test_unannotated_plan_untouched(self):
        plan = RunPlan([RunRequest(schedule=_Schedule(i))
                        for i in range(4)], phase="test")
        assert StaticPolicy().order(plan) is plan

    def test_prune_is_a_no_op(self):
        plan = _plan([_meta(0, (0,)), _meta(1, (1,))])
        shaped, pruned = StaticPolicy().shape(plan, None)
        assert pruned == []
        assert [r.meta.index for r in shaped.requests] == [0, 1]


class TestShufflePolicy:
    def test_deterministic_per_seed(self):
        metas = [_meta(i, (i,)) for i in range(6)]
        a = ShufflePolicy(seed=7).order(_plan(metas))
        b = ShufflePolicy(seed=7).order(_plan(metas))
        assert ([r.meta.index for r in a.requests]
                == [r.meta.index for r in b.requests])

    def test_skips_unannotated_plans(self):
        plan = RunPlan([RunRequest(schedule=_Schedule(i))
                        for i in range(6)], phase="test")
        assert ShufflePolicy(seed=7).order(plan) is plan

    def test_skips_tiny_plans(self):
        plan = _plan([_meta(0, (0,))])
        assert ShufflePolicy(seed=7).order(plan) is plan


class TestAdaptivePolicy:
    def test_empty_index_keeps_canonical_order(self):
        metas = [_meta(i, (i,), features=(f"f{i}",)) for i in range(5)]
        ordered = AdaptivePolicy(ExperienceIndex()).order(_plan(metas))
        assert [r.meta.index for r in ordered.requests] == list(range(5))

    def test_none_experience_keeps_canonical_order(self):
        metas = [_meta(i, (i,), features=(f"f{i}",)) for i in range(5)]
        ordered = AdaptivePolicy(None).order(_plan(metas))
        assert [r.meta.index for r in ordered.requests] == list(range(5))

    def test_experienced_candidate_ranks_first(self):
        index = ExperienceIndex({"hot": 3, "cold": -2})
        metas = [_meta(0, (0,), features=("cold",)),
                 _meta(1, (1,), features=()),
                 _meta(2, (2,), features=("hot",))]
        policy = AdaptivePolicy(index)
        ordered = policy.order(_plan(metas))
        assert [r.meta.index for r in ordered.requests] == [2, 1, 0]

    def test_stats_count_ranked_and_hits(self):
        index = ExperienceIndex({"hot": 3})
        metas = [_meta(0, (0,), features=("hot",)),
                 _meta(1, (1,), features=("unknown",))]
        policy = AdaptivePolicy(index)
        policy.order(_plan(metas))
        assert policy.stats.ranked == 2
        assert policy.stats.experience_hits == 1

    def test_tie_scores_fall_back_to_sort_key(self):
        index = ExperienceIndex({"x": 1})
        metas = [_meta(i, (i,), features=("x",)) for i in range(4)]
        ordered = AdaptivePolicy(index).order(_plan(metas))
        assert [r.meta.index for r in ordered.requests] == list(range(4))


class TestExperienceIndex:
    def test_snapshot_roundtrip(self):
        index = ExperienceIndex({"a": 2, "b": -1})
        clone = ExperienceIndex.from_snapshot(index.snapshot())
        assert clone.weight("a") == 2 and clone.weight("b") == -1
        assert ExperienceIndex.from_snapshot(None).score(["a"]) == 0

    def test_absorb_record_ignores_foreign_kinds(self):
        index = ExperienceIndex()
        assert not index.absorb_record({"chain": "A -> B"})
        assert not index.absorb_record("not a dict")
        assert index.absorb_record({"kind": "experience",
                                    "features": {"f": 2}})
        assert index.weight("f") == 2
        assert index.absorbed_records == 1

    def test_load_from_store_skips_diagnosis_records(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.jsonl"))
        store.put("d1", {"row": {"chain": "A"}})
        store.put("exp:d1", {"kind": "experience", "features": {"f": 1}})
        store.put("exp:d2", {"kind": "experience", "features": {"f": 2}})
        index = ExperienceIndex()
        assert index.load(ResultStore(str(tmp_path / "s.jsonl"))) == 2
        assert index.weight("f") == 3

    def test_record_of_real_diagnosis_has_both_stages(self):
        diagnosis = api.diagnose("CVE-2018-12232")
        record = ExperienceIndex.record_of("CVE-2018-12232", diagnosis)
        assert record["kind"] == "experience"
        features = record["features"]
        assert any(k.startswith("lifs.") for k in features)
        assert any(k.startswith("ca.") for k in features)

    def test_score_sums_signed_weights(self):
        index = ExperienceIndex({"a": 2, "b": -3})
        assert index.score(["a", "b", "missing"]) == -1


class _CaStub:
    """Just enough of CausalityAnalysis to drive the unit builder and
    the nested-pick on hand-made races."""

    _build_units = CausalityAnalysis._build_units
    _pick_nested = CausalityAnalysis._pick_nested

    def __init__(self, races=(), units=()):
        self.races = list(races)
        self.units = list(units)

    def _section_of(self, seq):
        return None


class TestCanonicalTieBreaks:
    def test_unit_order_independent_of_race_iteration(self):
        races = [_race(1, 10, addr=64), _race(1, 10, addr=72),
                 _race(2, 9, addr=80)]
        baseline = None
        for perm in permutations(races):
            units = _CaStub(races=perm)._build_units()
            keyed = [tuple(r.key for r in u.races) for u in units]
            assert [u.uid for u in units] == list(range(len(units)))
            if baseline is None:
                baseline = keyed
            assert keyed == baseline

    def test_pick_nested_independent_of_unit_list_order(self):
        outer = RaceUnit(uid=99, races=(_race(1, 20, 64),),
                         first_seq=1, last_seq=20)
        # Two fully tied inner candidates (same span), distinct uids.
        inner = [RaceUnit(uid=0, races=(_race(5, 9, 72),),
                          first_seq=5, last_seq=9),
                 RaceUnit(uid=1, races=(_race(5, 9, 80),),
                          first_seq=5, last_seq=9),
                 RaceUnit(uid=2, races=(_race(4, 9, 88),),
                          first_seq=4, last_seq=9)]
        picks = set()
        for perm in permutations(inner):
            stub = _CaStub(units=list(perm))
            picks.add(stub._pick_nested(outer, {99}).uid)
        assert picks == {0}  # innermost first_seq, then smallest uid


def _facts(diagnosis):
    # Bit-identity surface: chain, root causes, signature.  Benign
    # races compare undirected — their observed direction follows
    # whichever minimal witness schedule LIFS reproduced first.
    if not diagnosis.reproduced:
        return ("not-reproduced",)
    ca = diagnosis.ca_result
    benign = tuple(sorted(
        tuple(sorted(tuple(sorted((r.first.instr_label,
                                   r.second.instr_label)))
                     for r in u.races))
        for u in ca.benign_units))
    return (diagnosis.chain.render(),
            tuple(sorted(str(u) for u in ca.root_cause_units)),
            benign,
            str(diagnosis.lifs_result.failure_run.failure))


class TestEndToEndPolicies:
    BUG = "CVE-2018-12232"

    def test_adaptive_diagnosis_bit_identical_and_cheaper(self):
        static = api.diagnose(self.BUG, policy="static")
        tracer = Tracer()
        adaptive = api.diagnose(self.BUG, policy="adaptive", tracer=tracer)
        assert _facts(static) == _facts(adaptive)
        assert tracer.counters.get("policy.pruned", 0) > 0
        assert (adaptive.total_lifs_schedules + adaptive.ca_schedules
                <= static.total_lifs_schedules + static.ca_schedules)

    def test_invariant_pruning_never_drops_root_causes(self):
        static = api.diagnose(self.BUG, policy="static")
        pruned = api.diagnose(self.BUG, policy="prune")
        assert _facts(static) == _facts(pruned)

    def test_policy_counters_emitted_even_when_static(self):
        tracer = Tracer()
        api.diagnose(self.BUG, policy="static", tracer=tracer)
        assert tracer.counters.get("policy.ranked", 0) == 0
        assert tracer.counters.get("policy.pruned", 0) == 0

    def test_warm_experience_reduces_lifs_schedules(self):
        cold = api.diagnose(self.BUG, policy="adaptive")
        experience = ExperienceIndex()
        experience.absorb(self.BUG, cold)
        warm = api.diagnose(self.BUG, policy="adaptive",
                            experience=experience)
        assert _facts(cold) == _facts(warm)
        assert warm.total_lifs_schedules <= cold.total_lifs_schedules
