"""The intake server: routing, dedup, backpressure, and the drain loop.

:class:`TriageDaemon` is the long-running form of the batch
:class:`~repro.service.triage.TriageService`: the same
intake → signature → dedup → store lookup → worker pool spine, but
always-on behind an asyncio HTTP front end and backed by the
persistent journaled queue so accepted work survives a restart.

Request lifecycle of ``POST /submit``:

1. artifact parse + crash signature (the same fingerprint the batch
   verb dedups by) — a malformed artifact or ``X-Priority`` is a 400;
2. result-store lookup through the two-tier cache
   (:mod:`repro.daemon.tiers`) — a repeat signature is answered 200
   ``cache_hit`` from memory (hot) or one disk seek (cold), never
   re-diagnosed;
3. active-job dedup — a signature already queued or running folds into
   the existing job (202 ``duplicate``);
4. journal + enqueue (:mod:`repro.daemon.queue`) — journaled *before*
   the 202 ``accepted`` goes out, or shed 429 ``queue_full`` when the
   bounded queue is full.

A daemon that is stopping sheds every submission with a 503.

The drain loop pops priority batches of :data:`DRAIN_BATCH` jobs off
the queue and runs them on the triage worker pool (through
:mod:`repro.engine`) in an executor thread, so the event loop keeps
answering while diagnoses run.  Every counter is mirrored into a
:mod:`repro.observe` tracer and ``GET /metrics`` renders *those*
counters, so the exposition and the trace tell one story.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Optional, Set

from repro.observe.export import render_exposition
from repro.observe.tracer import Tracer
from repro.service.artifacts import ArtifactParseError, CrashArtifact
from repro.engine.executors import make_executor
from repro.service.metrics import Histogram, ServiceMetrics
from repro.service.queue import JobOutcome, QueueFull, TriageJob
from repro.service.signature import signature_of_text
from repro.service.triage import EMPTY_INTAKE_MESSAGE
from repro.policy import RECORD_DIGEST_PREFIX, ExperienceIndex
from repro.daemon import protocol
from repro.daemon.queue import JournaledWorkQueue
from repro.daemon.tiers import TieredStore
from repro.daemon.worker import resolve_diagnoser

#: Jobs the drain loop pops per batch.
DRAIN_BATCH = 4


class DaemonMetrics(ServiceMetrics):
    """Service counters under the ``daemon.`` namespace plus the
    latency histograms the ``/metrics`` endpoint exposes."""

    HISTOGRAMS = ("handle_seconds", "warm_handle_seconds",
                  "diagnosis_seconds", "queue_wait_seconds")

    def __init__(self, tracer=None) -> None:
        super().__init__(tracer=tracer, prefix="daemon")
        self.histograms: Dict[str, Histogram] = {
            name: Histogram() for name in self.HISTOGRAMS}

    def observe_latency(self, name: str, seconds: float) -> None:
        self.histograms[name].observe(seconds)


class TriageDaemon:
    """The always-on triage service behind ``repro serve``."""

    def __init__(self, config) -> None:
        self.config = config
        self.tracer = config.tracer if config.tracer is not None else Tracer()
        self._owns_tracer = config.tracer is None
        self.metrics = DaemonMetrics(tracer=self.tracer)
        self.store = TieredStore(directory=config.store_dir)
        self.queue = JournaledWorkQueue(config.queue_dir,
                                        max_depth=config.max_depth)
        #: The daemon's experience index: under ``policy="adaptive"``,
        #: seeded from the cold tier's persisted experience records at
        #: boot (so learning survives restarts), grown live as jobs
        #: settle, snapshotted into adaptive job payloads.
        self.experience = ExperienceIndex()
        if config.policy != "static":
            self.experience.load(self.store)
        self.diagnose = resolve_diagnoser(config.diagnoser)
        #: The drain loop's job executor — fleet workers stay resident
        #: across drain batches, so the daemon's steady state pays no
        #: fork per diagnosis.
        self.pool = make_executor(worker=self.diagnose, jobs=config.jobs,
                                  retry=config.retry)
        #: job_id -> job, every job this daemon has ever owned.
        self._jobs: Dict[str, TriageJob] = {}
        #: digest -> job_id for dedup (kept after completion: a done
        #: job's digest answers from the store, or reports its outcome).
        self._by_digest: Dict[str, str] = {}
        self._accepted_at: Dict[str, float] = {}
        #: Ids of terminal jobs whose completion ``_finish`` has counted.
        #: A pool job turns terminal in the executor thread before it is
        #: settled; until then its status reads ``running``, so a client
        #: that sees a terminal status also sees it in ``/metrics``.
        self._settled: Set[str] = set()
        self._running = 0
        self.paused = config.paused
        self._server: Optional[asyncio.AbstractServer] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._stopping = False
        self.shutdown_event = asyncio.Event()
        self._adopt_recovered()

    # -- boot -----------------------------------------------------------
    def _adopt_recovered(self) -> None:
        """Re-register journal-recovered jobs as accepted work."""
        for job in self.queue.recovered:
            self._jobs[job.job_id] = job
            self._by_digest[job.payload.get("digest", job.job_id)] = \
                job.job_id
            self._accepted_at[job.job_id] = time.monotonic()
            self.metrics.incr("accepted")
            self.metrics.incr("recovered")

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=protocol.MAX_HEADER_BYTES)
        self._drain_task = asyncio.ensure_future(self._drain_loop())

    @property
    def port(self) -> int:
        sockets = self._server.sockets if self._server else ()
        return sockets[0].getsockname()[1] if sockets else 0

    # -- connections ----------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await protocol.read_request(
                        reader, max_body=self.config.max_body_bytes)
                except protocol.ProtocolError as exc:
                    writer.write(protocol.json_response(
                        exc.status, {"error": exc.detail},
                        keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive and not self._stopping
                writer.write(self._route(request, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    OSError):  # pragma: no cover — peer vanished
                pass

    # -- routing --------------------------------------------------------
    def _route(self, request: protocol.Request, keep_alive: bool) -> bytes:
        method, path = request.method, request.path
        if path == "/submit":
            if method != "POST":
                return protocol.json_response(
                    405, {"error": "POST /submit"}, keep_alive)
            return self._submit(request, keep_alive)
        if method != "GET":
            return protocol.json_response(
                405, {"error": f"{method} not allowed"}, keep_alive)
        if path.startswith("/job/"):
            return self._job_status(path[len("/job/"):], keep_alive)
        if path.startswith("/result/"):
            return self._result(path[len("/result/"):], keep_alive)
        if path == "/metrics":
            return protocol.text_response(200, self.render_metrics(),
                                          keep_alive)
        if path == "/healthz":
            health = {
                "status": "stopping" if self._stopping else "ok",
                "paused": self.paused,
                "queue_depth": self.queue.depth,
                "in_flight": self.in_flight}
            if not self._jobs and not self.queue.depth:
                # The batch verb's empty-intake message, verbatim —
                # zero reports is "nothing to do" in both front ends.
                health["message"] = EMPTY_INTAKE_MESSAGE
            return protocol.json_response(200, health, keep_alive)
        return protocol.json_response(404, {"error": f"no route {path}"},
                                      keep_alive)

    # -- intake ---------------------------------------------------------
    def _submit(self, request: protocol.Request, keep_alive: bool) -> bytes:
        started = time.perf_counter()
        self.metrics.incr("submissions")
        if self._stopping:
            self.metrics.incr("shed_stopping")
            return protocol.json_response(
                503, {"error": "shutting down"}, False)
        raw_priority = request.header("x-priority", "0") or "0"
        try:
            priority = int(raw_priority)
        except ValueError:
            self.metrics.incr("rejected")
            return protocol.json_response(
                400, {"error": f"bad X-Priority {raw_priority!r}"},
                keep_alive)
        try:
            artifact = CrashArtifact.parse(
                request.body.decode("utf-8", errors="replace"))
            signature = signature_of_text(artifact.crash_text)
        except (ArtifactParseError, ValueError) as exc:
            self.metrics.incr("rejected")
            return protocol.json_response(
                400, {"error": f"malformed artifact: {exc}"}, keep_alive)
        digest = signature.digest

        record, tier = self.store.lookup(digest)
        if record is not None:
            self.metrics.incr("cache_hits")
            self.metrics.incr(f"cache_hits_{tier}")
            elapsed = time.perf_counter() - started
            self.metrics.observe_latency("handle_seconds", elapsed)
            self.metrics.observe_latency("warm_handle_seconds", elapsed)
            return protocol.json_response(200, {
                "status": "cache_hit", "digest": digest, "tier": tier,
                "result": record}, keep_alive)

        job_id = self._by_digest.get(digest)
        if job_id is not None:
            job = self._jobs[job_id]
            if not job.done:
                job.duplicates.append(artifact.bug_id)
                self.metrics.incr("deduped")
                self.metrics.observe_latency(
                    "handle_seconds", time.perf_counter() - started)
                return protocol.json_response(202, {
                    "status": "duplicate", "job_id": job_id,
                    "digest": digest}, keep_alive)
            # Terminal but not cached: the earlier attempt failed or
            # timed out.  Report that rather than silently re-running.
            self.metrics.incr("deduped")
            return protocol.json_response(200, {
                "status": job.outcome.value, "job_id": job_id,
                "digest": digest, "error": job.error}, keep_alive)

        job_id = f"{artifact.bug_id}:{digest}"
        job = TriageJob(
            job_id=job_id, priority=priority,
            timeout_s=self.config.timeout_s,
            payload={"mode": "artifact", "artifact": artifact.render(),
                     "bug_id": artifact.bug_id, "digest": digest,
                     "policy": self.config.policy})
        if self.config.policy != "static" and self.experience:
            job.payload["experience"] = self.experience.snapshot()
        try:
            self.queue.push(job)
        except QueueFull:
            self.metrics.incr("shed_queue_full")
            return protocol.json_response(429, {
                "error": "queue_full", "depth": self.queue.depth,
                "digest": digest}, keep_alive)
        self._jobs[job_id] = job
        self._by_digest[digest] = job_id
        self._accepted_at[job_id] = time.monotonic()
        self.metrics.incr("accepted")
        self.metrics.observe_latency(
            "handle_seconds", time.perf_counter() - started)
        return protocol.json_response(202, {
            "status": "accepted", "job_id": job_id, "digest": digest},
            keep_alive)

    # -- status endpoints ----------------------------------------------
    def _job_status(self, job_id: str, keep_alive: bool) -> bytes:
        job = self._jobs.get(job_id)
        if job is None:
            return protocol.json_response(
                404, {"error": f"no job {job_id!r}"}, keep_alive)
        outcome = job.outcome
        if outcome.is_terminal and job_id not in self._settled:
            outcome = JobOutcome.RUNNING
        payload = {
            "job_id": job.job_id, "status": outcome.value,
            "digest": job.payload.get("digest", ""),
            "bug_id": job.payload.get("bug_id", ""),
            "priority": job.priority, "duplicates": len(job.duplicates),
            "attempts": job.attempts, "seconds": job.seconds,
            "error": job.error,
        }
        if outcome is JobOutcome.SUCCEEDED and job.result is not None:
            payload["result"] = job.result
        return protocol.json_response(200, payload, keep_alive)

    def _result(self, digest: str, keep_alive: bool) -> bytes:
        record, tier = self.store.lookup(digest)
        if record is not None:
            return protocol.json_response(200, {
                "digest": digest, "tier": tier, "result": record},
                keep_alive)
        job_id = self._by_digest.get(digest)
        if job_id is not None and not self._jobs[job_id].done:
            return protocol.json_response(202, {
                "status": "pending", "job_id": job_id, "digest": digest},
                keep_alive)
        return protocol.json_response(
            404, {"error": f"no result for {digest!r}"}, keep_alive)

    # -- the drain loop -------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Accepted but not yet terminal: queued + running."""
        return self.queue.depth + self._running

    async def _drain_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._stopping:
            if self.paused:
                await asyncio.sleep(self.config.poll_interval_s)
                continue
            batch = self.queue.pop_batch(DRAIN_BATCH)
            if not batch:
                await asyncio.sleep(self.config.poll_interval_s)
                continue
            now = time.monotonic()
            runnable = []
            for job in batch:
                self._running += 1
                accepted_at = self._accepted_at.pop(job.job_id, now)
                self.metrics.observe_latency("queue_wait_seconds",
                                             now - accepted_at)
                # Completed before a crash but never marked done in the
                # journal?  The store remembers; don't re-diagnose.
                record = self.store.get(job.payload.get("digest", ""))
                if record is not None:
                    job.outcome = JobOutcome.CACHE_HIT
                    job.result = record
                    self._finish(job)
                else:
                    runnable.append(job)
            if runnable:
                await loop.run_in_executor(
                    None, lambda jobs=runnable: self.pool.run(
                        jobs, on_complete=self._finish))

    def _finish(self, job: TriageJob) -> None:
        """Settle one terminal job (runs in the executor thread for
        pool jobs, the event loop for journal-replay cache hits).

        The job leaves ``in_flight`` before its terminal counter moves,
        so ``/metrics`` never counts a job as completed while it is
        still in flight."""
        digest = job.payload.get("digest", "")
        if job.outcome is JobOutcome.SUCCEEDED:
            # What the diagnosis learned is stored once, in its own
            # digest namespace (reloaded at next boot), not in the result
            # record every cache hit sends; it is also folded into the
            # live index for subsequent adaptive submissions.
            record = job.result.pop("experience", None)
            self.store.put(digest, job.result)
            if record:
                self.store.put(RECORD_DIGEST_PREFIX + digest, record)
                self.experience.absorb_record(record)
        self.queue.mark_done(job)
        self._running -= 1
        if job.outcome is JobOutcome.SUCCEEDED:
            self.metrics.incr("completed")
            self.metrics.observe_latency("diagnosis_seconds", job.seconds)
        elif job.outcome is JobOutcome.CACHE_HIT:
            self.metrics.incr("completed")
            self.metrics.incr("completed_from_store")
        elif job.outcome is JobOutcome.TIMED_OUT:
            self.metrics.incr("timed_out")
        else:
            self.metrics.incr("failed")
        self._settled.add(job.job_id)

    # -- metrics --------------------------------------------------------
    def render_metrics(self) -> str:
        """The exposition text, fed by the observe tracer's counters."""
        counters = {name: value
                    for name, value in sorted(self.tracer.counters.items())
                    if name.startswith("daemon.")}
        store_stats = self.store.stats()
        gauges = {
            "daemon.queue_depth": self.queue.depth,
            "daemon.in_flight": self.in_flight,
            "daemon.hot_size": store_stats["hot_size"],
            "daemon.cold_size": store_stats["cold_size"],
            "daemon.hot_evictions": store_stats["hot_evictions"],
            "daemon.paused": 1 if self.paused else 0,
        }
        histograms = {f"daemon.{name}": hist
                      for name, hist in self.metrics.histograms.items()}
        return render_exposition(counters, gauges, histograms)

    # -- lifecycle ------------------------------------------------------
    def request_shutdown(self) -> None:
        """Signal-safe: flag the daemon down and wake the runner."""
        self._stopping = True
        self.shutdown_event.set()

    async def stop(self) -> None:
        """Graceful stop: close the listener, let the in-flight batch
        finish (bounded by ``shutdown_grace_s``), flush everything."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._drain_task is not None:
            try:
                await asyncio.wait_for(self._drain_task,
                                       self.config.shutdown_grace_s)
            except asyncio.TimeoutError:  # pragma: no cover — slow batch
                self._drain_task.cancel()
        self.pool.close()
        self.queue.close()
        self.store.close()
        if self._owns_tracer:
            self.tracer.close()
