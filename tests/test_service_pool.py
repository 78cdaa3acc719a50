"""Tests for the job model and the job executors (fault handling).

Process dispatch lives in :mod:`repro.engine.executors`:
``make_executor(worker=...)`` builds either the serial
:class:`InProcessPool` or a fleet-backed :class:`JobExecutor`.
"""

import os
import signal
import time

import pytest

from repro.engine.executors import JobExecutor, make_executor
from repro.engine.fleet import WorkerFleet
from repro.service.pool import InProcessPool
from repro.service.queue import (
    JobOutcome,
    JobQueue,
    RetryPolicy,
    TriageJob,
)


# ----------------------------------------------------------------------
# Worker functions: module-level so every start method can pickle them.
# ----------------------------------------------------------------------
def _ok_worker(payload):
    return {"echo": payload["value"]}


def _boom_worker(payload):
    raise RuntimeError("deterministic explosion")


def _sleepy_worker(payload):
    time.sleep(payload.get("sleep_s", 30.0))
    return {"never": "reached"}


def _die_once_worker(payload):
    """SIGKILL ourselves on the first attempt; succeed on the retry.

    The flag file marks that the first attempt happened — exactly the
    'worker killed mid-job' scenario the retry policy exists for.
    """
    flag = payload["flag_path"]
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("attempt 1\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return {"survived": True}


def _always_die_worker(payload):
    os.kill(os.getpid(), signal.SIGKILL)


def _sys_exit_worker(payload):
    raise SystemExit("worker bailed")


def _job(payload=None, **kwargs):
    _job.counter = getattr(_job, "counter", 0) + 1
    return TriageJob(job_id=f"j{_job.counter}", payload=payload or {},
                     **kwargs)


def _run(executor, jobs, on_complete=None):
    try:
        return executor.run(jobs, on_complete=on_complete)
    finally:
        executor.close()


class TestJobQueue:
    def test_priority_order_stable_fifo(self):
        q = JobQueue()
        first = _job(priority=1)
        urgent = _job(priority=0)
        second = _job(priority=1)
        for job in (first, urgent, second):
            q.push(job)
        assert q.drain() == [urgent, first, second]

    def test_rejects_duplicate_ids(self):
        q = JobQueue()
        job = _job()
        q.push(job)
        with pytest.raises(ValueError, match="duplicate job id"):
            q.push(job)

    def test_get_and_len(self):
        q = JobQueue()
        job = _job()
        q.push(job)
        assert q.get(job.job_id) is job
        assert len(q) == 1 and bool(q)
        with pytest.raises(IndexError):
            q.pop(), q.pop()


class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(max_retries=3, backoff_s=0.1,
                             backoff_factor=2.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)


class TestInProcessPool:
    def test_success(self):
        job = _job({"value": 42})
        InProcessPool(_ok_worker).run([job])
        assert job.outcome is JobOutcome.SUCCEEDED
        assert job.result == {"echo": 42}
        assert job.attempts == 1

    def test_exception_reported_as_failed(self):
        job = _job()
        InProcessPool(_boom_worker).run([job])
        assert job.outcome is JobOutcome.FAILED
        assert "deterministic explosion" in job.error

    def test_skips_already_terminal_jobs(self):
        job = _job()
        job.outcome = JobOutcome.CACHE_HIT
        InProcessPool(_boom_worker).run([job])
        assert job.outcome is JobOutcome.CACHE_HIT

    def test_systemexit_reported_as_failed(self):
        # Same contract as a child process: SystemExit is a failed job,
        # not a silent interpreter exit mid-corpus.
        job = _job()
        InProcessPool(_sys_exit_worker).run([job])
        assert job.outcome is JobOutcome.FAILED
        assert "SystemExit: worker bailed" in job.error

    def test_rejects_retry_policy_loudly(self):
        # Regression: the serial pool used to accept (and ignore) a
        # RetryPolicy, silently promising retries it could never run.
        with pytest.raises(TypeError):
            InProcessPool(_ok_worker, retry=RetryPolicy())


class TestMakeExecutorDispatch:
    def test_serial_builds_in_process_pool(self):
        executor = make_executor(worker=_ok_worker, jobs=1)
        assert isinstance(executor, InProcessPool)

    def test_parallel_builds_fleet_job_executor(self):
        executor = make_executor(worker=_ok_worker, jobs=4)
        try:
            assert isinstance(executor, JobExecutor)
            assert executor.parallel
        finally:
            executor.close()

    def test_serial_drops_retry(self):
        executor = make_executor(worker=_ok_worker, jobs=1,
                                 retry=RetryPolicy())
        assert isinstance(executor, InProcessPool)

    def test_rejects_both_and_neither_family(self):
        # worker= is required; the machine_factory= schedule family was
        # removed in 3.0 and must not be silently ignored.
        with pytest.raises(TypeError, match="worker"):
            make_executor()
        with pytest.raises(TypeError, match="machine_factory"):
            make_executor(worker=_ok_worker,
                          machine_factory=lambda: None)


class TestJobExecutor:
    def test_runs_jobs_across_resident_workers(self):
        jobs = [_job({"value": i}) for i in range(5)]
        completed = []
        _run(make_executor(worker=_ok_worker, jobs=2), jobs,
             on_complete=lambda j: completed.append(j.job_id))
        assert all(j.outcome is JobOutcome.SUCCEEDED for j in jobs)
        assert [j.result["echo"] for j in jobs] == list(range(5))
        assert sorted(completed) == sorted(j.job_id for j in jobs)

    def test_workers_stay_resident_across_runs(self):
        # The fork-server property: two drains reuse the same worker
        # processes instead of forking per attempt.
        executor = make_executor(worker=_ok_worker, jobs=2)
        try:
            _ = executor.run([_job({"value": 1})])
            pids_first = {w.process.pid for w in executor.fleet.workers}
            _ = executor.run([_job({"value": 2}), _job({"value": 3})])
            pids_second = {w.process.pid for w in executor.fleet.workers}
            assert pids_first == pids_second
            assert executor.fleet.respawns == 0
        finally:
            executor.close()

    def test_exception_fails_without_retry(self):
        job = _job()
        _run(make_executor(worker=_boom_worker, jobs=2), [job])
        assert job.outcome is JobOutcome.FAILED
        assert job.attempts == 1
        assert "deterministic explosion" in job.error

    def test_killed_worker_is_retried_and_job_completes(self, tmp_path):
        job = _job({"flag_path": str(tmp_path / "flag")})
        other = _job({"value": 1})
        _run(make_executor(worker=_dispatching_worker, jobs=2,
                           retry=RetryPolicy(max_retries=2,
                                             backoff_s=0.01)),
             [job, other])
        assert job.outcome is JobOutcome.SUCCEEDED
        assert job.result == {"survived": True}
        assert job.attempts == 2
        assert other.outcome is JobOutcome.SUCCEEDED

    def test_retry_budget_exhausted_reports_failed(self):
        job = _job()
        _run(JobExecutor(_always_die_worker, jobs=1,
                         retry=RetryPolicy(max_retries=1,
                                           backoff_s=0.01)),
             [job])
        assert job.outcome is JobOutcome.FAILED
        assert job.attempts == 2  # first attempt + one retry
        assert "worker died" in job.error

    def test_timeout_reported_without_taking_down_executor(self):
        slow = _job({"sleep_s": 30.0}, timeout_s=0.3)
        fast = _job({"value": 7})
        start = time.monotonic()
        _run(make_executor(worker=_dispatching_worker, jobs=2),
             [slow, fast])
        assert time.monotonic() - start < 10.0  # nowhere near 30s
        assert slow.outcome is JobOutcome.TIMED_OUT
        assert "timeout" in slow.error
        assert fast.outcome is JobOutcome.SUCCEEDED

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            JobExecutor(_ok_worker, jobs=0)

    def test_systemexit_reported_as_failed(self):
        job = _job()
        _run(JobExecutor(_sys_exit_worker, jobs=1), [job])
        assert job.outcome is JobOutcome.FAILED
        assert "SystemExit: worker bailed" in job.error


def _late_runner(payload):
    """Fleet runner that posts its result late (past the deadline)."""
    time.sleep(payload["sleep_s"])
    return {"late": True}


class TestDeadlineDrain:
    def test_result_posted_at_deadline_not_reported_as_timeout(self):
        # Regression (kept from the process-per-attempt pool): the
        # deadline check used to kill the worker the instant the
        # deadline passed, discarding a result already sitting in the
        # pipe.  Reproduce deterministically: the worker posts its
        # result *after* the deadline, and the parent only polls once
        # both have happened — the fleet must drain the pipe before
        # declaring the timeout.
        fleet = WorkerFleet(_late_runner, 1)
        try:
            fleet.start()
            deadline = time.monotonic() + 10.0
            while not fleet.ready_idle() and time.monotonic() < deadline:
                fleet.poll(0.05)
            worker = fleet.ready_idle()[0]
            assert fleet.dispatch(worker, 7, {"sleep_s": 0.2},
                                  timeout_s=0.05)
            time.sleep(0.4)  # deadline long past, result in the pipe
            events = fleet.poll(0.0)
            assert [e.kind for e in events] == ["ok"]
            assert events[0].task_id == 7
            assert events[0].body == {"late": True}
        finally:
            fleet.close()


def _dispatching_worker(payload):
    """Route on payload shape so one executor test can mix behaviors."""
    if "flag_path" in payload:
        return _die_once_worker(payload)
    if "sleep_s" in payload:
        return _sleepy_worker(payload)
    return _ok_worker(payload)
