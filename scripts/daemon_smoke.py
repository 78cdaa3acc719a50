"""CI smoke test for ``repro serve`` — the end-to-end daemon story.

Starts the daemon as a subprocess on an ephemeral port, submits three
corpus ``.crash`` artifacts (two unique, one duplicate of the first
*after* it completed), polls each to completion, asserts exactly one
cache hit through ``GET /metrics``, and shuts the daemon down cleanly
with SIGTERM.  It then restarts the daemon on the same data directory
and asserts that nothing is recovered, that the second artifact is
answered from the cold tier, and that the store is one file.  Exits
non-zero on any failed expectation, so a CI step is just::

    PYTHONPATH=src python scripts/daemon_smoke.py

Uses the real diagnosis pipeline (no stub): the two SYZ bugs diagnose
in well under a second each.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, SRC)

from repro.corpus.registry import get_bug  # noqa: E402
from repro.observe.export import parse_exposition  # noqa: E402
from repro.service.artifacts import CrashArtifact  # noqa: E402
from repro.trace.syzkaller import run_bug_finder  # noqa: E402

BUGS = ("SYZ-01", "SYZ-04")


def request(port, method, path, body=b""):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def wait_for_job(port, job_id, timeout_s=120):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, body = request(port, "GET", f"/job/{job_id}")
        assert status == 200, (status, body)
        payload = json.loads(body)
        if payload["status"] not in ("pending", "running"):
            return payload
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} never completed")


def start_daemon(env, workdir):
    """Start ``repro serve`` on an ephemeral port; return it and the port."""
    port_file = os.path.join(workdir, "port")
    if os.path.exists(port_file):
        os.unlink(port_file)
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--data-dir", os.path.join(workdir, "data"),
         "--port-file", port_file], env=env)
    deadline = time.monotonic() + 60
    while not os.path.exists(port_file):
        if daemon.poll() is not None or time.monotonic() > deadline:
            stop(daemon)
            raise AssertionError("daemon died during boot or wrote no "
                                 "port file")
        time.sleep(0.05)
    with open(port_file) as fh:
        return daemon, int(fh.read().strip().rsplit(":", 1)[1])


def stop(daemon):
    if daemon.poll() is None:
        daemon.kill()
        daemon.wait(timeout=30)


def sigterm(daemon):
    daemon.send_signal(signal.SIGTERM)
    code = daemon.wait(timeout=60)
    assert code == 0, f"daemon exited {code} on SIGTERM"


def main() -> int:
    artifacts = [
        CrashArtifact.from_report(run_bug_finder(get_bug(b))).render()
        for b in BUGS]

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryDirectory() as workdir:
        daemon, port = start_daemon(env, workdir)
        try:
            print(f"smoke: daemon up on port {port}")

            # Submit the two unique artifacts and wait them out.
            for text, bug in zip(artifacts, BUGS):
                status, body = request(port, "POST", "/submit",
                                       text.encode())
                payload = json.loads(body)
                assert status == 202, (status, payload)
                assert payload["status"] == "accepted", payload
                job = wait_for_job(port, payload["job_id"])
                assert job["status"] == "succeeded", job
                print(f"smoke: {bug} diagnosed "
                      f"({job['seconds']:.2f}s, digest {job['digest']})")

            # The third submission duplicates the first: a cache hit,
            # answered without re-diagnosis.
            status, body = request(port, "POST", "/submit",
                                   artifacts[0].encode())
            payload = json.loads(body)
            assert status == 200 and payload["status"] == "cache_hit", (
                status, payload)
            print(f"smoke: duplicate answered from {payload['tier']} tier")

            status, body = request(port, "GET", "/metrics")
            assert status == 200
            metrics = parse_exposition(body.decode())
            assert metrics["aitia_daemon_submissions_total"] == 3, metrics
            assert metrics["aitia_daemon_accepted_total"] == 2, metrics
            assert metrics["aitia_daemon_completed_total"] == 2, metrics
            assert metrics["aitia_daemon_cache_hits_total"] == 1, metrics
            assert metrics["aitia_daemon_in_flight"] == 0, metrics
            print("smoke: metrics reconcile "
                  "(3 submissions = 2 accepted + 1 cache hit)")
        except BaseException:
            stop(daemon)
            raise
        sigterm(daemon)
        print("smoke: clean shutdown")

        # Restart on the same data directory: nothing is owed, and the
        # second artifact answers from the one cold store file.
        daemon, port = start_daemon(env, workdir)
        try:
            status, body = request(port, "POST", "/submit",
                                   artifacts[1].encode())
            payload = json.loads(body)
            assert status == 200 and payload["status"] == "cache_hit", (
                status, payload)
            assert payload["tier"] == "cold", payload
            status, body = request(port, "GET", "/metrics")
            assert status == 200
            metrics = parse_exposition(body.decode())
            assert metrics.get("aitia_daemon_recovered_total", 0) == 0, (
                metrics)
            store = os.listdir(os.path.join(workdir, "data", "store"))
            assert len(store) == 1, store
            print(f"smoke: restarted daemon answered {BUGS[1]} from the "
                  f"cold tier ({store[0]})")
        except BaseException:
            stop(daemon)
            raise
        sigterm(daemon)
        print("smoke: clean shutdown after restart")
    return 0


if __name__ == "__main__":
    sys.exit(main())
