"""Tests for the CLI and the developer report generator."""

import pytest

from repro.analysis.report import render_report
from repro.cli import build_parser, main
from repro.core.diagnose import Aitia
from repro.core.lifs import LifsConfig
from repro.corpus.registry import get_bug


class TestReport:
    def test_report_mentions_chain_and_triage(self):
        bug = get_bug("CVE-2017-15649")
        diagnosis = Aitia(bug).diagnose()
        report = render_report(diagnosis, image=bug.image)
        assert "AITIA root-cause report" in report
        assert "A6 => B12" in report or "A6 (A) => B12" in report
        assert "multi-variable conjunction" in report
        assert "benign (excluded)" in report
        assert "fix option" in report

    def test_report_shows_code_context(self):
        bug = get_bug("CVE-2017-15649")
        diagnosis = Aitia(bug).diagnose()
        report = render_report(diagnosis, image=bug.image)
        assert ">>" in report
        assert "fanout_add" in report

    def test_report_without_image_is_compact(self):
        bug = get_bug("SYZ-05")
        diagnosis = Aitia(bug).diagnose()
        report = render_report(diagnosis)
        assert "race 1:" in report
        assert ">>" not in report

    def test_unreproduced_report(self):
        bug = get_bug("CVE-2017-15649")
        diagnosis = Aitia(bug,
                          lifs_config=LifsConfig(max_schedules=2)).diagnose()
        report = render_report(diagnosis)
        assert "could NOT be reproduced" in report

    def test_ambiguous_report_flags_it(self):
        bug = get_bug("CVE-2016-10200")
        diagnosis = Aitia(bug).diagnose()
        report = render_report(diagnosis, image=bug.image)
        assert "AMBIGUOUS" in report


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "CVE-2017-15649" in out
        assert "SYZ-12" in out
        assert "EXT-IRQ-01" in out

    def test_show(self, capsys):
        assert main(["show", "FIG-1"]) == 0
        out = capsys.readouterr().out
        assert "fig1_writer" in out
        assert "ptr_valid" in out

    def test_diagnose(self, capsys):
        assert main(["diagnose", "SYZ-05"]) == 0
        out = capsys.readouterr().out
        assert "K1" in out and "chain" in out

    def test_diagnose_pipeline(self, capsys):
        assert main(["diagnose", "SYZ-04", "--pipeline"]) == 0
        out = capsys.readouterr().out
        assert "[bug finder]" in out
        assert "K1 => A2" in out

    def test_replay(self, capsys):
        assert main(["replay", "CVE-2017-2636"]) == 0
        out = capsys.readouterr().out
        assert "identical execution" in out

    def test_unknown_bug_exits_2(self, capsys):
        assert main(["show", "CVE-0000-0000"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestTraceReport:
    def test_report_renders_snapshot_counters(self):
        from repro.observe.events import COUNTERS, SPAN_END, TraceEvent
        from repro.observe.report import render_trace_report

        events = [
            TraceEvent(kind=SPAN_END, name="ca.flip", ts=0.1, span_id=1,
                       stage="ca", duration_s=0.01, attrs={"failed": True}),
            TraceEvent(kind=COUNTERS, name="counters", ts=0.2, attrs={
                "lifs.schedules": 6, "lifs.interpreted_steps": 150,
                "snapshot.hits": 5, "snapshot.misses": 1,
                "snapshot.captured": 12, "snapshot.saved_steps": 400,
                "snapshot.resumed_steps": 90,
                "ca.snapshot_hits": 4, "ca.snapshot_misses": 0,
                "ca.interpreted_steps": 80, "ca.snapshot_saved_steps": 300}),
        ]
        out = render_trace_report(events)
        assert ("LIFS snapshot engine: 5 resumed / 1 fresh boots, "
                "12 checkpoints captured") in out
        assert "steps: 150 interpreted, 400 saved (90 resumed suffix)" in out
        assert ("CA snapshot engine: 4 resumed / 0 fresh boots; "
                "80 steps interpreted, 300 saved") in out

    def test_report_without_snapshot_counters_omits_engine(self):
        from repro.observe.events import COUNTERS, TraceEvent
        from repro.observe.report import render_trace_report

        out = render_trace_report([
            TraceEvent(kind=COUNTERS, name="counters", ts=0.1,
                       attrs={"lifs.schedules": 2})])
        assert "snapshot engine" not in out

    def test_report_renders_engine_section(self):
        from repro.observe.events import COUNTERS, POINT, TraceEvent
        from repro.observe.report import render_trace_report

        events = [
            TraceEvent(kind=POINT, name="engine.plan", ts=0.1,
                       stage="engine", attrs={"phase": "ca.identify",
                                              "backend": "snapshot",
                                              "requests": 7}),
            TraceEvent(kind=POINT, name="engine.plan", ts=0.2,
                       stage="engine", attrs={"phase": "ca.recheck",
                                              "backend": "inline",
                                              "requests": 3}),
            TraceEvent(kind=COUNTERS, name="counters", ts=0.3, attrs={
                "engine.requests": 10, "engine.plans": 2}),
        ]
        out = render_trace_report(events)
        assert "execution engine: 10 requests over 2 plans" in out
        assert "dedup" not in out
        assert "ca.identify: 7 requests in 1 plan(s) via snapshot x1" in out
        assert "ca.recheck: 3 requests in 1 plan(s) via inline x1" in out

    def test_report_without_engine_counters_omits_section(self):
        from repro.observe.events import COUNTERS, TraceEvent
        from repro.observe.report import render_trace_report

        out = render_trace_report([
            TraceEvent(kind=COUNTERS, name="counters", ts=0.1,
                       attrs={"lifs.schedules": 2})])
        assert "execution engine" not in out

    def test_engine_section_cli_end_to_end(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        assert main(["diagnose", "SYZ-05", "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["trace-report", trace]) == 0
        out = capsys.readouterr().out
        assert "execution engine:" in out
        assert "via snapshot" in out

    def test_trace_report_cli_end_to_end(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        assert main(["diagnose", "SYZ-05", "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["trace-report", trace]) == 0
        out = capsys.readouterr().out
        assert "LIFS snapshot engine" in out
        assert "CA snapshot engine" in out

    def test_report_renders_policy_counters(self):
        from repro.observe.events import COUNTERS, TraceEvent
        from repro.observe.report import render_trace_report

        out = render_trace_report([
            TraceEvent(kind=COUNTERS, name="counters", ts=0.1, attrs={
                "policy.ranked": 31, "policy.pruned": 12,
                "policy.experience_hits": 4})])
        assert ("search policy: 31 candidate(s) ranked, "
                "12 pruned by error invariants, "
                "4 experience hit(s)") in out

    def test_report_without_policy_counters_omits_section(self):
        from repro.observe.events import COUNTERS, TraceEvent
        from repro.observe.report import render_trace_report

        out = render_trace_report([
            TraceEvent(kind=COUNTERS, name="counters", ts=0.1,
                       attrs={"lifs.schedules": 2})])
        assert "search policy" not in out

    def test_policy_cli_end_to_end(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        assert main(["diagnose", "CVE-2018-12232", "--policy", "adaptive",
                     "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["trace-report", trace]) == 0
        out = capsys.readouterr().out
        assert "search policy:" in out
        assert "pruned by error invariants" in out

    def test_static_policy_cli_has_no_policy_section(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        assert main(["diagnose", "SYZ-05", "--policy", "static",
                     "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["trace-report", trace]) == 0
        out = capsys.readouterr().out
        assert "search policy:" not in out

    def test_no_snapshot_flag_disables_engine_counters(
            self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        assert main(["diagnose", "SYZ-05", "--no-snapshot",
                     "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "K1" in out and "chain" in out
        assert main(["trace-report", trace]) == 0
        report = capsys.readouterr().out
        # Every run boots fresh: misses only, no saved steps.
        assert "0 resumed" in report


class TestCliFuzz:
    def test_fuzz_command(self, capsys):
        assert main(["fuzz", "CVE-2017-2671", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "crash found after" in out
        assert "distilled reproducer" in out

    def test_fuzz_with_diagnosis(self, capsys):
        assert main(["fuzz", "SYZ-05", "--seed", "1", "--diagnose"]) == 0
        out = capsys.readouterr().out
        assert "AITIA root-cause report" in out

    def test_fuzz_budget_exhausted_exits_1(self, capsys):
        assert main(["fuzz", "SYZ-08", "--seed", "0",
                     "--max-runs", "1"]) == 1
        assert "no crash" in capsys.readouterr().out
