"""The in-process job executor.

Process dispatch for triage jobs goes through one front door,
:func:`repro.engine.executors.make_executor`: it builds a persistent
fork-server :class:`~repro.engine.executors.JobExecutor` for ``jobs >
1`` and the :class:`InProcessPool` here for ``jobs = 1``.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

from repro.service.queue import JobOutcome, TriageJob

Worker = Callable[[dict], dict]


class InProcessPool:
    """Serial fallback (``--jobs 1``): the job-executor contract, no
    processes.

    Takes no :class:`RetryPolicy`: the policy only governs worker-death
    retries, and an in-process worker cannot die without taking the
    whole pool with it — passing one here would silently promise retry
    behaviour that can never trigger, so the parameter is rejected
    loudly (``TypeError``) instead of accepted and ignored.
    """

    name = "in-process"
    parallel = False

    def __init__(self, worker: Worker) -> None:
        self.worker = worker

    def run(self, jobs: Sequence[TriageJob],
            on_complete: Optional[Callable[[TriageJob], None]] = None,
            ) -> List[TriageJob]:
        run_started = time.monotonic()
        for job in jobs:
            if job.done:
                continue
            job.outcome = JobOutcome.RUNNING
            job.attempts += 1
            start = time.monotonic()
            job.queue_wait_s = start - run_started
            try:
                job.result = self.worker(job.payload)
                job.outcome = JobOutcome.SUCCEEDED
            except KeyboardInterrupt:
                raise  # the user's ^C, not the job's failure
            except BaseException as exc:  # noqa: BLE001 — same contract as
                # a child worker: SystemExit and friends are reported as
                # a failed job, exactly like a worker process would.
                job.outcome = JobOutcome.FAILED
                job.error = f"{type(exc).__name__}: {exc}"
            job.seconds += time.monotonic() - start
            if on_complete is not None:
                on_complete(job)
        return list(jobs)

    def close(self) -> None:
        """No resident workers to retire; present so every job executor
        shares one lifecycle contract."""
