"""Tests for the triage orchestrator, artifacts, metrics, and CLI."""

import json
import os

import pytest

from repro import api
from repro.analysis.evaluation import evaluate_corpus
from repro.cli import main
from repro.corpus.registry import all_bugs, get_bug
from repro.service.artifacts import (
    ArtifactParseError,
    CrashArtifact,
    emit_artifact,
    scan_directory,
)
from repro.policy import ExperienceIndex
from repro.service.metrics import ServiceMetrics
from repro.service.queue import JobOutcome
from repro.service.signature import signature_of, signature_of_text
from repro.service.store import ResultStore
from repro.service.triage import TriageService, diagnose_job
from repro.trace.crash import CrashParseError
from repro.trace.ftrace import FtraceParseError
from repro.trace.syzkaller import run_bug_finder

from test_daemon_server import garbled_history_text

BUG_IDS = [bug.bug_id for bug in all_bugs()]


class TestArtifacts:
    def test_round_trip(self):
        artifact = CrashArtifact.from_report(run_bug_finder(get_bug("SYZ-04")))
        assert CrashArtifact.parse(artifact.render()) == artifact

    def test_to_report_rebuilds_pipeline_input(self):
        original = run_bug_finder(get_bug("SYZ-04"))
        rebuilt = CrashArtifact.from_report(original).to_report()
        assert rebuilt.bug_id == "SYZ-04"
        assert rebuilt.crash.symptom is original.crash.symptom
        assert rebuilt.crash.location == original.crash.location
        assert len(rebuilt.history) == len(original.history)

    def test_file_round_trip_and_scan(self, tmp_path):
        path = emit_artifact(get_bug("SYZ-04"), str(tmp_path))
        assert scan_directory(str(tmp_path)) == [path]
        assert CrashArtifact.read(path).bug_id == "SYZ-04"

    @pytest.mark.parametrize("text,match", [
        ("", "header"),
        ("# aitia-crash-artifact v1\n# == crash ==", "bug"),
        ("# aitia-crash-artifact v1\n# bug: \n# == crash ==", "empty bug"),
        ("# aitia-crash-artifact v1\n# bug: X\nBUG: y", "marker"),
        ("# aitia-crash-artifact v1\n# bug: X\n# == ftrace ==\n"
         "# == crash ==\nBUG: y", "out of order"),
        ("# aitia-crash-artifact v1\n# bug: X\n# == crash ==\n"
         "# == ftrace ==\nz", "empty crash"),
    ])
    def test_parse_errors(self, text, match):
        with pytest.raises(ArtifactParseError, match=match):
            CrashArtifact.parse(text)

    @pytest.mark.parametrize("bug_id", BUG_IDS)
    def test_every_truncation_parses_or_fails_cleanly(self, bug_id):
        """A bundle cut anywhere (a partial upload, a full disk) still
        yields a report or raises one of the three parse errors — never
        a bare IndexError/ValueError from inside a parser."""
        text = CrashArtifact.from_report(
            run_bug_finder(get_bug(bug_id))).render() + "\n"
        for cut in range(len(text) + 1):
            try:
                CrashArtifact.parse(text[:cut]).to_report()
            except (ArtifactParseError, CrashParseError, FtraceParseError):
                pass


class TestTriageService:
    def test_duplicate_signature_diagnosed_once(self, tmp_path):
        bug = get_bug("SYZ-04")
        artifact = CrashArtifact.from_report(run_bug_finder(bug))
        service = TriageService(jobs=1)
        first = service.submit_artifact(artifact, source="report-1")
        second = service.submit_artifact(artifact, source="report-2")
        assert first is second
        assert first.duplicates == ["report-2"]
        summary = service.run()
        assert len(summary.results) == 1
        assert summary.results[0].outcome == "succeeded"
        assert summary.results[0].duplicates == 1
        assert service.metrics.count("reports_submitted") == 2
        assert service.metrics.count("reports_deduped") == 1
        assert service.metrics.count("jobs_enqueued") == 1

    def test_artifact_diagnosis_matches_direct(self):
        bug = get_bug("SYZ-04")
        artifact = CrashArtifact.from_report(run_bug_finder(bug))
        service = TriageService(jobs=1)
        service.submit_artifact(artifact)
        summary = service.run()
        assert summary.results[0].chain == api.diagnose(bug).chain.render()

    def test_pre_3_0_payload_fields_are_ignored(self):
        """Daemon journal lines written before 3.0 carry "wave_jobs",
        and 2.x triage payloads "executor": replaying one diagnoses
        exactly like a payload without them."""
        artifact = CrashArtifact.from_report(run_bug_finder(get_bug("SYZ-04")))
        payload = {"mode": "artifact", "artifact": artifact.render(),
                   "bug_id": "SYZ-04", "policy": "static"}
        legacy = dict(payload, wave_jobs=2, executor="fleet")
        assert diagnose_job(legacy) == diagnose_job(payload)

    def test_cache_hit_across_service_instances(self, tmp_path):
        store_path = str(tmp_path / "store.jsonl")
        bug = get_bug("SYZ-04")
        s1 = api.triage([bug], store=ResultStore(store_path))
        assert s1.results[0].outcome == "succeeded"
        s2 = api.triage([bug], store=ResultStore(store_path))
        assert s2.results[0].outcome == "cache_hit"
        assert s2.results[0].chain == s1.results[0].chain
        assert s2.results[0].seconds == 0.0
        assert s2.count(JobOutcome.SUCCEEDED) == 0

    def test_corpus_triage_matches_sequential_evaluation(self):
        bugs = [get_bug("SYZ-04"), get_bug("CVE-2017-2671"),
                get_bug("CVE-2016-10200")]
        summary = api.triage(bugs, jobs=2)
        assert summary.all_ok
        by_id = {r.bug_id: r for r in summary.results}
        for row in evaluate_corpus(bugs).rows:
            assert by_id[row.bug_id].chain == row.chain
            assert by_id[row.bug_id].reproduced == row.reproduced

    def test_intake_directory_skips_malformed(self, tmp_path):
        emit_artifact(get_bug("SYZ-04"), str(tmp_path))
        (tmp_path / "junk.crash").write_text("not an artifact\n")
        (tmp_path / "ignored.txt").write_text("wrong extension\n")
        service = TriageService(jobs=1)
        jobs = service.intake_directory(str(tmp_path))
        assert len(jobs) == 1
        assert service.metrics.count("intake_errors") == 1

    def test_summary_json_and_render(self):
        summary = api.triage([get_bug("SYZ-04")])
        payload = json.loads(summary.to_json())
        assert payload["results"][0]["bug_id"] == "SYZ-04"
        assert "counters" in payload["metrics"]
        rendered = summary.render()
        assert "SYZ-04" in rendered and "totals:" in rendered


def _write_malformed(case: str, directory) -> None:
    """One ``bad.crash`` of each kind batch intake must survive."""
    path = directory / "bad.crash"
    if case == "not-utf8":
        path.write_bytes(b"\xff\xfe\x80 not text\n")
    elif case == "unknown-kind":
        path.write_text("# aitia-crash-artifact v1\n# bug: SYZ-04\n"
                        "# == crash ==\nBUG: bogus-kind in A at A1\n"
                        "# == ftrace ==\n# tracer: aitia\n")
    else:
        path.write_text(garbled_history_text())


class TestCrashOnlyIntake:
    """Intake fingerprints the crash section alone: the history is
    parsed by the worker, and only for a job that diagnoses."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("case", ["not-utf8", "unknown-kind"])
    def test_malformed_bundle_or_crash_is_an_intake_error(self, tmp_path,
                                                          case, jobs):
        emit_artifact(get_bug("SYZ-04"), str(tmp_path))
        _write_malformed(case, tmp_path)
        service = TriageService(jobs=jobs)
        summary = api.triage(str(tmp_path), service=service)
        assert [(r.bug_id, r.outcome) for r in summary.results] == [
            ("SYZ-04", "succeeded")]
        assert service.metrics.count("intake_errors") == 1
        assert service.metrics.count("reports_submitted") == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_garbled_history_fails_its_own_job(self, tmp_path, jobs):
        emit_artifact(get_bug("SYZ-04"), str(tmp_path))
        _write_malformed("garbled-history", tmp_path)
        summary = api.triage(str(tmp_path), jobs=jobs)
        outcomes = {r.bug_id: (r.outcome, r.error) for r in summary.results}
        assert outcomes == {
            "SYZ-04": ("succeeded", ""),
            "CVE-2017-2671": (
                "failed",
                "FtraceParseError: bad timestamp in 'GARBAGE LINE here'")}
        assert "intake_errors" not in summary.metrics["counters"]

    @pytest.mark.parametrize("case,code", [
        ("not-utf8", 0), ("unknown-kind", 0), ("garbled-history", 1)])
    def test_cli_reports_instead_of_raising(self, capsys, tmp_path, case,
                                            code):
        emit_artifact(get_bug("SYZ-04"), str(tmp_path))
        _write_malformed(case, tmp_path)
        assert main(["triage", str(tmp_path), "--jobs", "2"]) == code
        assert "totals: 1 succeeded" in capsys.readouterr().out

    def test_warm_intake_never_parses_the_history(self, tmp_path,
                                                  monkeypatch):
        intake = tmp_path / "intake"
        intake.mkdir()
        for bug_id in ("SYZ-04", "CVE-2017-2671"):
            emit_artifact(get_bug(bug_id), str(intake))
        store = str(tmp_path / "store.jsonl")
        service = TriageService(store=ResultStore(store))
        jobs = service.intake_directory(str(intake))
        cold = service.run()
        assert cold.all_ok
        assert all("artifact" in job.payload for job in jobs)

        def no_history(self):
            raise AssertionError("intake parsed an ftrace history")

        monkeypatch.setattr(CrashArtifact, "to_report", no_history)
        service = TriageService(store=ResultStore(store))
        jobs = service.intake_directory(str(intake))
        warm = service.run()
        assert [r.outcome for r in warm.results] == ["cache_hit"] * 2
        assert [r.chain for r in warm.results] == [
            r.chain for r in cold.results]
        # A cache hit never renders the artifact into a payload.
        assert not any("artifact" in job.payload for job in jobs)

    @pytest.mark.parametrize("bug_id", BUG_IDS)
    def test_intake_daemon_and_full_parse_give_one_digest(self, bug_id):
        artifact = CrashArtifact.from_report(run_bug_finder(get_bug(bug_id)))
        job = TriageService().submit_artifact(artifact)
        assert job.payload["digest"] == signature_of_text(
            artifact.crash_text).digest == signature_of(
            artifact.to_report().crash).digest

    def test_scan_matches_listdir_and_isfile(self, tmp_path):
        for name in ("b.crash", "a.crash", "notes.txt", "c.crash.bak"):
            (tmp_path / name).write_text("x")
        (tmp_path / "dir.crash").mkdir()
        os.symlink(str(tmp_path / "a.crash"), str(tmp_path / "link.crash"))
        os.symlink(str(tmp_path / "gone"), str(tmp_path / "broken.crash"))
        os.symlink(str(tmp_path / "dir.crash"),
                   str(tmp_path / "dirlink.crash"))
        path = str(tmp_path)
        oracle = sorted(
            os.path.join(path, name) for name in os.listdir(path)
            if name.endswith(".crash")
            and os.path.isfile(os.path.join(path, name)))
        assert scan_directory(path) == oracle == [
            os.path.join(path, name)
            for name in ("a.crash", "b.crash", "link.crash")]


class TestResultRecords:
    def test_experience_is_stored_once_under_its_own_digest(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        [result] = api.triage([get_bug("SYZ-04")], store=path).results
        store = ResultStore(path)
        assert len(store) == 2
        assert "experience" not in store.get(result.digest)
        assert store.get("exp:" + result.digest)["kind"] == "experience"

    def test_store_with_embedded_experience_still_reads(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        [fresh] = api.triage([get_bug("SYZ-04")], store=path).results
        # Rewrite the result the way stores were written before it
        # stopped embedding the experience record.
        store = ResultStore(path)
        store.put(fresh.digest, dict(
            store.get(fresh.digest),
            experience=store.get("exp:" + fresh.digest)))
        assert ExperienceIndex().load(ResultStore(path)) == 1
        [warm] = api.triage([get_bug("SYZ-04")], store=path).results
        assert warm.outcome == "cache_hit"
        assert warm.chain == fresh.chain


class TestServiceMetrics:
    def test_counters_and_timers(self):
        metrics = ServiceMetrics()
        metrics.incr("x")
        metrics.incr("x", 2)
        with metrics.timer("stage"):
            pass
        snap = metrics.snapshot()
        assert snap["counters"]["x"] == 3
        assert snap["timings"]["stage"]["count"] == 1
        assert "x" in metrics.render()
        assert "stage_seconds" in metrics.render()


class TestParallelEvaluation:
    def test_evaluate_corpus_jobs_matches_sequential(self):
        bugs = [get_bug("SYZ-04"), get_bug("SYZ-05")]
        seq = evaluate_corpus(bugs)
        par = evaluate_corpus(bugs, jobs=2)
        assert [r.__dict__ for r in par.rows] == [
            r.__dict__ for r in seq.rows]


class TestCliTriage:
    def test_corpus_triage_command(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        out_json = tmp_path / "triage.json"
        argv = ["triage", "--corpus", "--bugs", "SYZ-04", "--jobs", "2",
                "--store", str(store), "--json", str(out_json)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "succeeded" in out and "service metrics" in out
        assert json.loads(out_json.read_text())["results"]
        # second run: answered from the store
        assert main(argv[:-2]) == 0
        assert "cache_hit" in capsys.readouterr().out

    def test_intake_directory_command_with_emit(self, capsys, tmp_path):
        intake = tmp_path / "reports"
        argv = ["triage", "--corpus", "--bugs", "SYZ-04",
                "--emit", str(intake)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["triage", str(intake)]) == 0
        assert "SYZ-04" in capsys.readouterr().out

    def test_requires_intake_or_corpus(self, capsys):
        assert main(["triage"]) == 2
        assert "intake directory or --corpus" in capsys.readouterr().err

    def test_missing_intake_directory_is_a_clean_error(self, capsys,
                                                       tmp_path):
        assert main(["triage", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_empty_intake_directory_is_nothing_to_do(self, capsys,
                                                     tmp_path):
        from repro.service.triage import EMPTY_INTAKE_MESSAGE

        intake = tmp_path / "empty"
        intake.mkdir()
        assert main(["triage", str(intake)]) == 0  # not an error
        out = capsys.readouterr().out
        assert EMPTY_INTAKE_MESSAGE in out
        assert "totals:" not in out  # no empty table rendered

    def test_empty_intake_still_writes_json(self, capsys, tmp_path):
        intake = tmp_path / "empty"
        intake.mkdir()
        out_json = tmp_path / "triage.json"
        assert main(["triage", str(intake), "--json", str(out_json)]) == 0
        assert json.loads(out_json.read_text()) == {
            "results": [], "metrics": {"counters": {}, "timings": {}}}

    def test_empty_summary_property(self):
        from repro.service.triage import TriageSummary

        assert TriageSummary().empty
        assert TriageSummary().all_ok  # vacuously fine

    def test_timed_out_job_reported_without_crashing(self, capsys):
        argv = ["triage", "--corpus", "--bugs", "SYZ-04", "--jobs", "2",
                "--timeout", "0.000001"]
        assert main(argv) == 1  # not ok, but a clean summary
        out = capsys.readouterr().out
        assert "timed_out" in out and "totals:" in out
        # The row names the limit as given, not rounded to 0.0s.
        assert "exceeded 1e-06s timeout" in out

    def test_evaluate_jobs_flag(self, capsys):
        assert main(["evaluate", "SYZ-05", "--jobs", "2"]) == 0
        assert "SYZ-05" in capsys.readouterr().out
