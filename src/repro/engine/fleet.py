"""The persistent fork-server worker fleet.

:class:`WorkerFleet` is the process substrate under
:class:`~repro.engine.executors.JobExecutor`: a fixed-width set of
resident child processes that boot **once** and then service an
unbounded stream of tasks over duplex pipes.

Design points:

* **Fork inheritance** — workers are started under the ``fork`` start
  method by default, so the worker callable and the imported modules
  are inherited by address at spawn time, copy-on-write.
* **Resident workers** — a worker serves task after task, which is
  what makes the fleet a *fork server*: the fork and import cost is
  paid once per worker lifetime, not once per task.
* **Streaming completion** — :meth:`WorkerFleet.poll` surfaces results
  as events in completion order; callers merge by task id, so no
  barrier join is ever required.
* **Fault containment** — a worker that dies (SIGKILL, OOM, segfault)
  is detected by pipe EOF / exit code, reported as a ``lost`` event
  carrying its in-flight task, and respawned within a bounded budget;
  a worker past a task deadline is drained once more, then killed and
  respawned (``timeout`` event).  The *caller* decides whether a lost
  task retries or fails — the fleet only guarantees no task silently
  disappears.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from multiprocessing.connection import wait as _connection_wait

#: Tag of the hello message each worker posts once it is servicing.
_READY = "__fleet_ready__"

#: A worker task runner: ``payload -> result``.
Runner = Callable[[Any], Any]


def fleet_available(context: str = "fork") -> bool:
    """Whether a fleet can genuinely fork resident workers here.

    Requires the requested start method (worker callables may be
    closures and must be fork-inherited, not pickled) and a non-daemonic
    parent — daemonic processes may not have children, so a fleet
    inside a worker process must degrade instead of crashing.
    """
    return (context in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon)


def _fleet_worker_main(runner: Runner, conn) -> None:
    """Resident worker loop: announce readiness, then serve tasks until
    the ``None`` sentinel or a closed pipe."""
    try:
        conn.send((_READY, None, None))
    except (BrokenPipeError, OSError):  # pragma: no cover — parent gone
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        task_id, payload = message
        try:
            result = runner(payload)
            reply = (task_id, "ok", result)
        except BaseException as exc:  # noqa: BLE001 — report, don't die
            reply = (task_id, "error", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover
            break
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


class FleetWorker:
    """One resident worker process and its parent-side bookkeeping."""

    def __init__(self, ctx, runner: Runner, wid: int) -> None:
        self.wid = wid
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_fleet_worker_main, args=(runner, child_conn),
            daemon=True, name=f"repro-fleet-{wid}")
        self.process.start()
        child_conn.close()  # parent keeps its own end only
        self.ready = False
        self.closed = False
        #: Task currently in flight on this worker (``None`` when idle).
        self.task_id: Optional[int] = None
        self.dispatched_at = 0.0
        self.deadline: Optional[float] = None

    @property
    def alive(self) -> bool:
        return not self.closed and self.process.exitcode is None

    @property
    def idle(self) -> bool:
        return self.alive and self.task_id is None

    def clear_task(self) -> None:
        self.task_id = None
        self.deadline = None

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
            if self.process.is_alive():  # pragma: no cover — stubborn child
                self.process.kill()
                self.process.join(timeout=1.0)
        if not self.closed:
            self.closed = True
            try:
                self.conn.close()
            except OSError:  # pragma: no cover
                pass


@dataclass(frozen=True)
class FleetEvent:
    """One completion/failure surfaced by :meth:`WorkerFleet.poll`.

    ``kind`` is ``"ok"`` (``body`` is the runner's result), ``"error"``
    (``body`` is the exception text), ``"lost"`` (the worker died with
    the task in flight; ``body`` is its exit code) or ``"timeout"``.
    """

    kind: str
    task_id: int
    body: Any = None


class WorkerFleet:
    """A fixed-width fleet of resident fork-server workers."""

    def __init__(self, runner: Runner, jobs: int, *,
                 context: str = "fork",
                 max_respawns: int = 16) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.runner = runner
        self.jobs = jobs
        self.context_name = context
        self.max_respawns = max_respawns
        self.respawns = 0
        self.workers: List[FleetWorker] = []
        self.started = False
        self._spawned = 0

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Fork the fleet (idempotent, non-blocking): workers announce
        readiness through their pipes; callers see it via :meth:`poll`."""
        if self.started:
            return
        self.started = True
        ctx = multiprocessing.get_context(self.context_name)
        self._ctx = ctx
        for _ in range(self.jobs):
            self._spawn()

    def _spawn(self) -> FleetWorker:
        worker = FleetWorker(self._ctx, self.runner, self._spawned)
        self._spawned += 1
        self.workers.append(worker)
        return worker

    def close(self) -> None:
        """Shut the fleet down: sentinel, short join, kill stragglers."""
        for worker in self.workers:
            if worker.alive:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for worker in self.workers:
            worker.process.join(timeout=0.5)
            worker.kill()
        self.workers = []
        self.started = False

    # -- dispatch -------------------------------------------------------
    def ready_idle(self) -> List[FleetWorker]:
        """Workers that have announced readiness and hold no task."""
        return [w for w in self.workers if w.idle and w.ready]

    def idle(self) -> List[FleetWorker]:
        """Alive workers with no task (ready or still booting — the pipe
        buffers, so dispatching to a booting worker is fine)."""
        return [w for w in self.workers if w.idle]

    def dispatch(self, worker: FleetWorker, task_id: int, payload,
                 timeout_s: Optional[float] = None) -> bool:
        """Send one task; ``False`` (after reaping + respawning) when the
        worker turned out to be dead at send time."""
        try:
            worker.conn.send((task_id, payload))
        except (BrokenPipeError, OSError):
            self._reap(worker, [])
            return False
        worker.task_id = task_id
        worker.dispatched_at = time.monotonic()
        worker.deadline = (worker.dispatched_at + timeout_s
                           if timeout_s is not None else None)
        return True

    # -- completion -----------------------------------------------------
    def poll(self, timeout: float = 0.0) -> List[FleetEvent]:
        """Drain every readable pipe (waiting up to ``timeout`` for the
        first message), reap dead workers, expire deadlines."""
        events: List[FleetEvent] = []
        by_conn = {w.conn: w for w in self.workers if not w.closed}
        if by_conn:
            try:
                readable = _connection_wait(list(by_conn), timeout)
            except OSError:  # pragma: no cover — race with a closing pipe
                readable = []
            for conn in readable:
                self._drain_worker(by_conn[conn], events)
        self._expire(events)
        return events

    def _drain_worker(self, worker: FleetWorker,
                      events: List[FleetEvent]) -> None:
        while True:
            try:
                if not worker.conn.poll():
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                self._reap(worker, events)
                return
            tag = message[0]
            if tag == _READY:
                worker.ready = True
                continue
            task_id, status, body = message
            worker.clear_task()
            events.append(FleetEvent(status, task_id, body))

    def _expire(self, events: List[FleetEvent]) -> None:
        now = time.monotonic()
        for worker in list(self.workers):
            if worker.deadline is None or now <= worker.deadline:
                continue
            # A result posted between the last poll and the deadline
            # check must not be discarded by the kill below — drain the
            # pipe once more before declaring the timeout.
            self._drain_worker(worker, events)
            if worker.task_id is None or not worker.alive:
                continue
            task_id = worker.task_id
            worker.clear_task()
            worker.kill()
            self._remove_and_respawn(worker)
            events.append(FleetEvent("timeout", task_id))

    def _reap(self, worker: FleetWorker, events: List[FleetEvent]) -> None:
        """A worker's pipe hit EOF / its process died: surface the lost
        task (if any) and respawn within budget."""
        exitcode = worker.process.exitcode
        task_id = worker.task_id
        worker.clear_task()
        worker.kill()
        self._remove_and_respawn(worker)
        if task_id is not None:
            events.append(FleetEvent("lost", task_id, exitcode))

    def _remove_and_respawn(self, worker: FleetWorker) -> None:
        if worker in self.workers:
            self.workers.remove(worker)
        if self.started and self.respawns < self.max_respawns:
            self.respawns += 1
            self._spawn()
