"""End-to-end tests for the intake daemon over a real socket.

Each test boots a :class:`TriageDaemon` on an ephemeral port inside
``asyncio.run`` and drives it through :class:`DaemonClient` — the full
HTTP → dedup → journal → drain → store path, with the
instant stub diagnoser so nothing here costs a real diagnosis.
"""

import asyncio
import functools
import json
import os
import time

import pytest

from repro.corpus.registry import get_bug
from repro.daemon import (
    DaemonClient,
    DaemonConfig,
    start_daemon,
    stub_diagnose_job,
)
from repro.observe.export import parse_exposition
from repro.service.artifacts import CrashArtifact
from repro.service.signature import signature_of_text
from repro.service.store import ResultStore
from repro.service.triage import EMPTY_INTAKE_MESSAGE
from repro.trace.syzkaller import run_bug_finder


@functools.lru_cache(maxsize=None)
def artifact_text(bug_id: str) -> str:
    return CrashArtifact.from_report(run_bug_finder(get_bug(bug_id))).render()


def garbled_history_text() -> str:
    """CVE-2017-2671's artifact with one ftrace line no parser accepts:
    its crash section fingerprints, its history fails in the worker."""
    return artifact_text("CVE-2017-2671") + "\nGARBAGE LINE here\n"


def daemon_test(tmp_path, coro_fn, **overrides):
    """Boot daemon + client, run ``coro_fn(daemon, client)``, tear down."""
    settings = dict(port=0, data_dir=str(tmp_path / "data"),
                    diagnoser=stub_diagnose_job, poll_interval_s=0.005)
    settings.update(overrides)

    async def go():
        daemon = await start_daemon(DaemonConfig(**settings))
        client = DaemonClient("127.0.0.1", daemon.port)
        try:
            await coro_fn(daemon, client)
        finally:
            await client.close()
            await daemon.stop()

    asyncio.run(go())


async def wait_until(predicate, timeout_s: float = 10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        await asyncio.sleep(0.01)


async def scrape(client) -> dict:
    response = await client.request("GET", "/metrics")
    assert response.status == 200
    return parse_exposition(response.text)


def assert_reconciled(metrics: dict) -> None:
    """The acceptance identities: every submission is accounted for,
    and every accepted job is terminal or still in flight."""
    shed = sum(v for k, v in metrics.items()
               if k.startswith("aitia_daemon_shed_") and k.endswith("_total"))
    assert metrics.get("aitia_daemon_submissions_total", 0) == (
        metrics.get("aitia_daemon_accepted_total", 0)
        - metrics.get("aitia_daemon_recovered_total", 0)
        + metrics.get("aitia_daemon_deduped_total", 0)
        + metrics.get("aitia_daemon_cache_hits_total", 0)
        + metrics.get("aitia_daemon_rejected_total", 0)
        + shed)
    assert metrics.get("aitia_daemon_accepted_total", 0) == (
        metrics.get("aitia_daemon_completed_total", 0)
        + metrics.get("aitia_daemon_failed_total", 0)
        + metrics.get("aitia_daemon_timed_out_total", 0)
        + metrics.get("aitia_daemon_in_flight", 0))


class TestSubmitPath:
    def test_accept_diagnose_then_cache_hit(self, tmp_path):
        async def scenario(daemon, client):
            text = artifact_text("SYZ-01")
            response = await client.submit(text)
            assert response.status == 202
            accepted = response.json()
            assert accepted["status"] == "accepted"

            job = await client.wait_for_job(accepted["job_id"])
            assert job["status"] == "succeeded"
            assert job["result"]["row"]["reproduced"] is True
            # The job turns terminal a beat before its result settles
            # into the store (the pool's completion callback runs in an
            # executor thread); wait for the settled counter.
            await wait_until(lambda: daemon.metrics.count("completed") == 1)

            # The same signature now answers from the hot tier.
            again = await client.submit(text)
            assert again.status == 200
            hit = again.json()
            assert hit["status"] == "cache_hit"
            assert hit["tier"] == "hot"
            assert hit["digest"] == accepted["digest"]

            result = await client.request(
                "GET", f"/result/{accepted['digest']}")
            assert result.status == 200

            metrics = await scrape(client)
            assert metrics["aitia_daemon_submissions_total"] == 2
            assert metrics["aitia_daemon_accepted_total"] == 1
            assert metrics["aitia_daemon_completed_total"] == 1
            assert metrics["aitia_daemon_cache_hits_total"] == 1
            assert metrics["aitia_daemon_cache_hits_hot_total"] == 1
            assert_reconciled(metrics)

        daemon_test(tmp_path, scenario)

    def test_job_leaves_in_flight_before_it_counts(self, tmp_path):
        # /metrics reads in_flight and completed_total independently;
        # a job must be settled before its completion is counted, or a
        # scrape can see completed_total == N with in_flight still 1.
        in_flight_at_count = []

        async def scenario(daemon, client):
            incr = daemon.metrics.incr

            def recording(name, n=1):
                if name == "completed":
                    in_flight_at_count.append(daemon.in_flight)
                incr(name, n)

            daemon.metrics.incr = recording
            jobs = []
            for bug in ("SYZ-01", "SYZ-04"):
                response = await client.submit(artifact_text(bug))
                assert response.status == 202
                jobs.append(response.json()["job_id"])
            for job_id in jobs:
                await client.wait_for_job(job_id)
            metrics = await scrape(client)
            assert metrics["aitia_daemon_completed_total"] == 2
            assert metrics["aitia_daemon_in_flight"] == 0
            assert_reconciled(metrics)

        daemon_test(tmp_path, scenario)
        assert len(in_flight_at_count) == 2
        assert in_flight_at_count[-1] == 0

    def test_duplicate_folds_into_queued_job(self, tmp_path):
        async def scenario(daemon, client):
            text = artifact_text("SYZ-02")
            first = (await client.submit(text)).json()
            assert first["status"] == "accepted"
            second = (await client.submit(text)).json()
            assert second["status"] == "duplicate"
            assert second["job_id"] == first["job_id"]

            daemon.paused = False
            job = await client.wait_for_job(first["job_id"])
            assert job["status"] == "succeeded"
            assert job["duplicates"] == 1

            metrics = await scrape(client)
            assert metrics["aitia_daemon_deduped_total"] == 1
            assert_reconciled(metrics)

        daemon_test(tmp_path, scenario, paused=True)

    def test_pending_result_answers_202(self, tmp_path):
        async def scenario(daemon, client):
            accepted = (await client.submit(artifact_text("SYZ-03"))).json()
            response = await client.request(
                "GET", f"/result/{accepted['digest']}")
            assert response.status == 202
            assert response.json()["status"] == "pending"

        daemon_test(tmp_path, scenario, paused=True)

    def test_priority_header(self, tmp_path):
        async def scenario(daemon, client):
            response = await client.submit(artifact_text("SYZ-04"),
                                           priority=-5)
            job_id = response.json()["job_id"]
            job = (await client.request("GET", f"/job/{job_id}")).json()
            assert job["priority"] == -5

        daemon_test(tmp_path, scenario, paused=True)


class TestBackpressure:
    def test_queue_full_sheds_then_recovers(self, tmp_path):
        async def scenario(daemon, client):
            texts = [artifact_text(f"SYZ-{n:02d}") for n in (1, 2, 3)]
            accepted = []
            for text in texts[:2]:
                response = await client.submit(text)
                assert response.status == 202
                accepted.append(response.json()["job_id"])
            shed = await client.submit(texts[2])
            assert shed.status == 429
            assert shed.json()["error"] == "queue_full"

            # Shed work is lost *by design* — but nothing accepted is:
            # drain the queue and every accepted job completes.
            daemon.paused = False
            for job_id in accepted:
                job = await client.wait_for_job(job_id)
                assert job["status"] == "succeeded"

            # With the queue drained, the shed artifact resubmits fine.
            retry = await client.submit(texts[2])
            assert retry.status == 202
            job = await client.wait_for_job(retry.json()["job_id"])
            assert job["status"] == "succeeded"

            metrics = await scrape(client)
            assert metrics["aitia_daemon_shed_queue_full_total"] == 1
            assert metrics["aitia_daemon_accepted_total"] == 3
            assert metrics["aitia_daemon_completed_total"] == 3
            assert_reconciled(metrics)

        daemon_test(tmp_path, scenario, paused=True, max_depth=2)


class TestRoutingAndHealth:
    def test_errors_and_health(self, tmp_path):
        async def scenario(daemon, client):
            assert (await client.request("GET", "/nope")).status == 404
            assert (await client.request("GET", "/submit")).status == 405
            assert (await client.request("PUT", "/job/x")).status == 405
            assert (await client.request("GET", "/job/missing")).status == 404
            assert (await client.request(
                "GET", "/result/feedfeedfeedfeed")).status == 404

            bad = await client.request("POST", "/submit", b"not an artifact")
            assert bad.status == 400

            bad_priority = await client.submit(artifact_text("SYZ-08"),
                                               priority=None)
            bad_priority = await client.request(
                "POST", "/submit", artifact_text("SYZ-08").encode(),
                {"X-Priority": "high"})
            assert bad_priority.status == 400

            health = (await client.request("GET", "/healthz")).json()
            assert health["status"] == "ok"
            metrics = await scrape(client)
            assert metrics["aitia_daemon_rejected_total"] == 2
            assert_reconciled(metrics)

        daemon_test(tmp_path, scenario)

    def test_empty_intake_message_matches_batch_verb(self, tmp_path):
        async def scenario(daemon, client):
            health = (await client.request("GET", "/healthz")).json()
            # Nothing submitted yet: the daemon reports the batch verb's
            # "nothing to do" message, one shared behaviour (satellite).
            assert health["message"] == EMPTY_INTAKE_MESSAGE
            await client.submit(artifact_text("SYZ-09"))
            health = (await client.request("GET", "/healthz")).json()
            assert "message" not in health

        daemon_test(tmp_path, scenario, paused=True)

    def test_connection_close_honored(self, tmp_path):
        async def scenario(daemon, client):
            response = await client.request("GET", "/healthz", b"",
                                            {"Connection": "close"})
            assert response.status == 200
            assert response.headers["connection"] == "close"
            # The client transparently reconnects.
            assert (await client.request("GET", "/healthz")).status == 200

        daemon_test(tmp_path, scenario)


class TestRecoveryInProcess:
    def test_journaled_jobs_rerun_after_restart(self, tmp_path):
        data_dir = str(tmp_path / "data")

        async def park(daemon, client):
            for bug in ("SYZ-10", "SYZ-11"):
                assert (await client.submit(artifact_text(bug))).status == 202
            assert daemon.queue.depth == 2

        daemon_test(tmp_path, park, paused=True, data_dir=data_dir)

        async def drain(daemon, client):
            assert len(daemon.queue.recovered) == 2
            await wait_until(lambda: daemon.metrics.count("completed") == 2)
            metrics = await scrape(client)
            assert metrics["aitia_daemon_recovered_total"] == 2
            assert metrics["aitia_daemon_accepted_total"] == 2
            assert metrics["aitia_daemon_in_flight"] == 0
            assert_reconciled(metrics)
            # The recovered work was diagnosed exactly once each.
            assert len(daemon.store) == 2

        daemon_test(tmp_path, drain, data_dir=data_dir)

    def test_completed_but_unmarked_job_not_rediagnosed(self, tmp_path):
        data_dir = str(tmp_path / "data")
        digests = {}

        async def park(daemon, client):
            for bug in ("SYZ-01", "SYZ-02"):
                accepted = (await client.submit(artifact_text(bug))).json()
                digests[bug] = accepted["digest"]

        daemon_test(tmp_path, park, paused=True, data_dir=data_dir)

        # Simulate a crash after the result hit the store but before the
        # journal's "done" record: persist SYZ-01's result by hand.
        ResultStore(os.path.join(data_dir, "store", "shard-00.jsonl")).put(
            digests["SYZ-01"], {"bug_id": "SYZ-01", "row": {}})

        calls = []

        def counting_diagnoser(payload):
            calls.append(payload["bug_id"])
            return stub_diagnose_job(payload)

        async def drain(daemon, client):
            await wait_until(lambda: daemon.metrics.count("completed") == 2)
            metrics = await scrape(client)
            assert metrics["aitia_daemon_completed_from_store_total"] == 1
            assert_reconciled(metrics)

        daemon_test(tmp_path, drain, data_dir=data_dir,
                    diagnoser=counting_diagnoser)
        # SYZ-01 answered from the store; only SYZ-02 was diagnosed.
        assert calls == ["SYZ-02"]


    def test_sharded_data_directory_folds_and_replays_once(self, tmp_path):
        # A data directory in the digest-sharded layout: two owed jobs
        # and one completed job across two journal files, and a result
        # in a store file other than shard-00.
        data_dir = tmp_path / "data"
        (data_dir / "queue").mkdir(parents=True)

        def line(op, n):
            digest = f"{n:04x}" + "0" * 12
            entry = {"op": op, "job_id": f"BUG-{n}:{digest}"}
            if op == "push":
                entry.update(digest=digest, priority=0, timeout_s=300.0,
                             payload={"mode": "artifact", "digest": digest,
                                      "bug_id": f"BUG-{n}",
                                      "policy": "static"})
            else:
                entry["outcome"] = "succeeded"
            return json.dumps(entry) + "\n"

        (data_dir / "queue" / "queue-01.journal").write_text(
            line("push", 1) + line("push", 5) + line("done", 5))
        (data_dir / "queue" / "queue-03.journal").write_text(
            line("push", 3))
        stored = artifact_text("SYZ-05")
        digest = signature_of_text(
            CrashArtifact.parse(stored).crash_text).digest
        ResultStore(str(data_dir / "store" / "shard-05.jsonl")).put(
            digest, {"bug_id": "SYZ-05", "row": {}})

        calls = []

        def counting_diagnoser(payload):
            calls.append(payload["bug_id"])
            return stub_diagnose_job(payload)

        async def drain(daemon, client):
            assert [j.payload["bug_id"] for j in daemon.queue.recovered] == [
                "BUG-1", "BUG-3"]
            await wait_until(lambda: daemon.metrics.count("completed") == 2)
            hit = await client.submit(stored)
            assert hit.status == 200
            assert hit.json()["status"] == "cache_hit"
            assert hit.json()["tier"] == "cold"
            metrics = await scrape(client)
            assert metrics["aitia_daemon_recovered_total"] == 2
            assert_reconciled(metrics)

        daemon_test(tmp_path, drain, data_dir=str(data_dir),
                    diagnoser=counting_diagnoser)
        assert calls == ["BUG-1", "BUG-3"]  # each owed job exactly once
        assert os.listdir(data_dir / "queue") == ["queue-00.journal"]
        assert os.listdir(data_dir / "store") == ["shard-00.jsonl"]


def learning_diagnoser(payload):
    """The stub's record plus an experience record, as a real diagnosis
    that reproduced returns one."""
    result = stub_diagnose_job(payload)
    result["experience"] = {"kind": "experience", "version": 1,
                            "bug_id": payload["bug_id"],
                            "features": {"f": 1}}
    return result


class TestResultRecords:
    def test_experience_is_stored_once_under_its_own_digest(self, tmp_path):
        async def scenario(daemon, client):
            text = artifact_text("SYZ-01")
            accepted = (await client.submit(text)).json()
            job = await client.wait_for_job(accepted["job_id"])
            assert job["status"] == "succeeded"
            assert "experience" not in job["result"]
            await wait_until(lambda: daemon.metrics.count("completed") == 1)
            hit = (await client.submit(text)).json()
            assert hit["status"] == "cache_hit"
            assert "experience" not in hit["result"]
            record = daemon.store.get("exp:" + accepted["digest"])
            assert record["features"] == {"f": 1}

        daemon_test(tmp_path, scenario, diagnoser=learning_diagnoser)


class TestMalformedInput:
    def test_garbled_history_fails_as_in_batch_intake(self, tmp_path):
        from repro import api

        text = garbled_history_text()
        intake = tmp_path / "intake"
        intake.mkdir()
        (intake / "bad.crash").write_text(text)
        [batch] = api.triage(str(intake)).results
        assert batch.outcome == "failed"
        assert batch.error.startswith("FtraceParseError: ")

        async def scenario(daemon, client):
            accepted = (await client.submit(text)).json()
            assert accepted["status"] == "accepted"
            assert accepted["digest"] == batch.digest
            job = await client.wait_for_job(accepted["job_id"])
            assert job["status"] == "failed"
            assert job["error"] == batch.error

        daemon_test(tmp_path, scenario, diagnoser=None)

    @pytest.mark.parametrize("bad", [
        {"op": "push", "job_id": ["x"], "payload": {}},
        {"op": "push", "job_id": "x:1", "payload": [1]},
        {"op": "push", "job_id": "x:1", "payload": {"digest": ["d"]}},
        {"op": "push", "job_id": "x:1", "payload": {}, "priority": "high"},
        {"op": "push", "job_id": "x:1", "payload": {}, "timeout_s": "soon"},
        {"op": "done", "job_id": ["x"]},
    ])
    def test_journal_line_of_wrong_field_types_is_skipped(self, tmp_path,
                                                          bad):
        digest = "0" * 16
        owed = {"op": "push", "job_id": f"GOOD-1:{digest}",
                "digest": digest, "priority": 0, "timeout_s": 300.0,
                "payload": {"mode": "artifact", "digest": digest,
                            "bug_id": "GOOD-1", "policy": "static"}}
        queue_dir = tmp_path / "data" / "queue"
        queue_dir.mkdir(parents=True)
        (queue_dir / "queue-00.journal").write_text(
            json.dumps(bad) + "\n" + json.dumps(owed) + "\n")

        async def scenario(daemon, client):
            assert daemon.queue.skipped_lines == 1
            assert [j.job_id for j in daemon.queue.recovered] == [
                owed["job_id"]]
            health = await client.request("GET", "/healthz")
            assert health.status == 200
            assert health.json()["status"] == "ok"
            await wait_until(lambda: daemon.metrics.count("completed") == 1)

        daemon_test(tmp_path, scenario)


class TestShutdown:
    def test_stopping_daemon_sheds_with_503(self, tmp_path):
        async def scenario(daemon, client):
            daemon.request_shutdown()
            response = await client.submit(artifact_text("SYZ-12"))
            assert response.status == 503
            metrics_response = await client.request("GET", "/metrics")
            assert metrics_response.status == 200  # reads still served
            metrics = parse_exposition(metrics_response.text)
            assert metrics["aitia_daemon_shed_stopping_total"] == 1
            assert_reconciled(metrics)

        daemon_test(tmp_path, scenario)
