"""The repro.api facade: parity with the legacy entrypoints, the
deprecation shims, and the unified CLI flag vocabulary."""

import pytest

import repro
from repro import api
from repro.cli import build_parser, main
from repro.core.causality import CaConfig
from repro.core.diagnose import Aitia
from repro.core.lifs import LifsConfig
from repro.corpus import registry


class TestVersion:
    def test_version_bumped(self):
        assert repro.__version__ == "3.0.0"

    def test_facade_reexported_at_top_level(self):
        assert repro.diagnose is api.diagnose
        assert repro.evaluate is api.evaluate
        assert repro.triage is api.triage
        assert repro.TriageReport is api.TriageReport


class TestDiagnoseParity:
    """api.diagnose must be a pure facade: same chain, same accounting
    as driving the Aitia orchestrator directly."""

    @pytest.mark.parametrize("bug_id", ["CVE-2017-15649", "SYZ-05"])
    def test_direct_diagnosis_identical(self, bug_id):
        bug = registry.get_bug(bug_id)
        legacy = Aitia(bug).diagnose()
        facade = api.diagnose(bug_id)  # resolves the id itself
        assert facade.reproduced == legacy.reproduced
        assert facade.chain.render() == legacy.chain.render()
        assert facade.total_lifs_schedules == legacy.total_lifs_schedules
        assert facade.ca_schedules == legacy.ca_schedules
        assert (facade.lifs_result.interleaving_count
                == legacy.lifs_result.interleaving_count)

    def test_accepts_bug_object(self):
        bug = registry.get_bug("SYZ-05")
        assert api.diagnose(bug).reproduced

    def test_explicit_report_skips_bug_finder(self):
        from repro.trace.syzkaller import run_bug_finder
        bug = registry.get_bug("SYZ-04")
        report = run_bug_finder(bug)
        facade = api.diagnose(bug, report=report)
        legacy = Aitia(bug, report=report).diagnose()
        assert facade.chain.render() == legacy.chain.render()


class TestExplicitConfigWins:
    """An explicit stage config beats the api keywords for its own
    stage; the other stage still follows the keywords."""

    @staticmethod
    def _pruned(diagnosis):
        return sum(1 for test in diagnosis.ca_result.tests
                   if test.note == "invariant-pruned")

    def test_lifs_config_beats_snapshots_kwarg(self):
        diagnosis = api.diagnose("SYZ-05", snapshots=True,
                                 lifs=LifsConfig(use_snapshots=False))
        assert diagnosis.lifs_result.stats.snapshot_hits == 0
        assert diagnosis.ca_result.stats.snapshot_hits > 0

    def test_ca_config_beats_policy_kwarg(self):
        adaptive = api.diagnose("CVE-2018-12232", policy="adaptive")
        assert self._pruned(adaptive) > 0
        explicit = api.diagnose("CVE-2018-12232", policy="adaptive",
                                ca=CaConfig(policy="static"))
        assert self._pruned(explicit) == 0
        assert explicit.chain.render() == adaptive.chain.render()


class TestEvaluateFacade:
    def test_evaluate_resolves_ids(self):
        evaluation = api.evaluate(["SYZ-05"])
        assert [r.bug_id for r in evaluation.rows] == ["SYZ-05"]
        assert evaluation.rows[0].reproduced


class TestTriageFacade:
    def test_corpus_subset_by_id(self, tmp_path):
        registry.load()
        report = api.triage(["SYZ-05", "SYZ-05"],
                            store=str(tmp_path / "store.jsonl"))
        # same bug twice → one unique signature, duplicates folded
        assert len(report.results) == 1
        assert report.results[0].duplicates == 1
        assert report.all_ok

    def test_store_path_becomes_cache(self, tmp_path):
        registry.load()
        store = str(tmp_path / "store.jsonl")
        first = api.triage(["SYZ-05"], store=store)
        assert first.results[0].outcome == "succeeded"
        second = api.triage(["SYZ-05"], store=store)
        assert second.results[0].outcome == "cache_hit"

    def test_intake_directory_source(self, tmp_path):
        from repro.service.artifacts import emit_artifact
        registry.load()
        intake = tmp_path / "intake"
        intake.mkdir()
        emit_artifact(registry.get_bug("SYZ-05"), str(intake))
        report = api.triage(str(intake))
        assert len(report.results) == 1
        assert report.all_ok


class TestDeprecationShimsRemoved:
    """The 1.x shims were dropped in 2.0: importing them must fail."""

    def test_triage_corpus_gone(self):
        with pytest.raises(ImportError):
            from repro.service.triage import triage_corpus  # noqa: F401

    def test_evaluate_bug_gone(self):
        with pytest.raises(ImportError):
            from repro.analysis.evaluation import evaluate_bug  # noqa: F401
        import repro.analysis
        assert "evaluate_bug" not in repro.analysis.__all__
        assert not hasattr(repro.analysis, "evaluate_bug")


class TestRemovedIn3:
    """3.0 removed the intra-diagnosis schedule fleet: its flags fail
    loudly, and api.diagnose(executor=) accepts only the in-process
    placement every schedule now uses."""

    @pytest.mark.parametrize("flag", [["--parallel-waves", "2"],
                                      ["--executor", "fleet"]])
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", "SYZ-05", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_diagnose_accepts_inline_executor(self):
        default = api.diagnose("SYZ-05")
        inline = api.diagnose("SYZ-05", executor="inline")
        assert inline.chain.render() == default.chain.render()
        assert inline.total_lifs_schedules == default.total_lifs_schedules
        assert inline.ca_schedules == default.ca_schedules

    @pytest.mark.parametrize("executor", ["fleet", "wave", ""])
    def test_diagnose_rejects_other_executors(self, executor):
        with pytest.raises(ValueError, match="in-process"):
            api.diagnose("SYZ-05", executor=executor)

    def test_shims_gone(self):
        with pytest.raises(ImportError):
            from repro.hypervisor.waves import WaveExecutor  # noqa: F401
        with pytest.raises(ImportError):
            from repro.service.pool import WorkerPool  # noqa: F401
        with pytest.raises(ImportError):
            from repro.kernel.snapshot import dumps_state  # noqa: F401


class TestVmCountRemoved:
    """The VM count reached no output, so no door takes it."""

    def test_vms_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", "SYZ-05", "--vms", "4"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_api_rejects_vm_count(self):
        with pytest.raises(TypeError):
            api.diagnose("SYZ-05", vm_count=4)


class TestUnifiedCliFlags:
    def test_canonical_flags_parse_everywhere(self):
        parser = build_parser()
        ev = parser.parse_args(["evaluate", "--jobs", "3", "--timeout",
                                "42", "--trace", "t.jsonl"])
        assert (ev.jobs, ev.timeout, ev.trace) == (3, 42.0, "t.jsonl")
        tr = parser.parse_args(["triage", "--corpus", "--jobs", "3",
                                "--timeout", "42", "--store", "s.jsonl",
                                "--trace", "t.jsonl"])
        assert (tr.jobs, tr.timeout, tr.store, tr.trace) == (
            3, 42.0, "s.jsonl", "t.jsonl")
        dg = parser.parse_args(["diagnose", "SYZ-05", "--trace",
                                "t.jsonl"])
        assert dg.trace == "t.jsonl"

    def test_defaults_are_identical(self):
        parser = build_parser()
        ev = parser.parse_args(["evaluate"])
        tr = parser.parse_args(["triage", "--corpus"])
        assert ev.jobs == tr.jobs == 1
        assert ev.timeout == tr.timeout == 300.0
        assert ev.trace is None and tr.trace is None

    def test_legacy_aliases_removed(self, capsys):
        parser = build_parser()
        for argv in (["evaluate", "--workers", "4"],
                     ["triage", "--corpus", "--result-store", "s.jsonl"],
                     ["triage", "--corpus", "--job-timeout", "9"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_aliases_hidden_from_help(self):
        import io
        from contextlib import redirect_stdout

        parser = build_parser()
        helps = []
        for argv in (["evaluate", "--help"], ["triage", "--help"]):
            buf = io.StringIO()
            with redirect_stdout(buf), pytest.raises(SystemExit):
                parser.parse_args(argv)
            helps.append(buf.getvalue())
        for text in helps:
            assert "--jobs" in text and "--timeout" in text
            assert "--workers" not in text
            assert "--job-timeout" not in text
            assert "--result-store" not in text

    def test_cli_trace_flag_end_to_end(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["diagnose", "SYZ-05", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace}" in out
        assert main(["trace-report", str(trace)]) == 0
        report = capsys.readouterr().out
        assert "per-stage summary" in report
        assert "lifs.schedules" in report

    def test_trace_report_missing_file(self, capsys):
        assert main(["trace-report", "/nonexistent/t.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_report_torn_last_line(self, tmp_path, capsys):
        """A traced run killed mid-write leaves a partial last line:
        a usage-style error naming the line, not a traceback."""
        trace = tmp_path / "t.jsonl"
        assert main(["diagnose", "SYZ-05", "--trace", str(trace)]) == 0
        text = trace.read_bytes()
        # Ten bytes into the line that straddles the three-quarter mark.
        cut = text.rindex(b"\n", 0, len(text) * 3 // 4) + 10
        torn_line = text.count(b"\n", 0, cut) + 1
        trace.write_bytes(text[:cut])
        capsys.readouterr()
        assert main(["trace-report", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{trace}:{torn_line}:" in err
