"""The persistent work queue behind the intake daemon.

Accepted work must survive a daemon restart — including a hard kill —
so every accepted job is journaled *before* its HTTP 202 goes out, and
every completion is journaled after its result is persisted to the
store.  The journal is one JSONL file, ``queue-00.journal`` under the
queue directory:

* ``{"op": "push", "job_id": ..., "digest": ..., "priority": ...,
  "timeout_s": ..., "payload": {...}}``
* ``{"op": "done", "job_id": ..., "outcome": ...}``

Recovery replays the journal: a ``push`` without a matching ``done`` is
a journaled job the daemon owes an answer for and is re-enqueued
exactly once, in priority order and in acceptance order within a
priority; a completed job is dropped.  A line that is not JSON, or
whose fields have the wrong types, is counted in ``skipped_lines`` and
otherwise ignored.  The drain loop re-checks the result store before
re-diagnosing, so a job that finished-but-wasn't-marked (killed between
the store append and the ``done`` record) is answered from cache rather
than re-run.  Replay also compacts: the journal is rewritten holding
only the still-pending pushes, so its size is bounded by queue depth,
not by lifetime throughput.

A directory written with several journal files (``queue-NN.journal``,
one per digest shard) is folded on open: every file is replayed, in
file then line order, the jobs still owed are written into the one
journal, and only then are the other files removed.  A kill mid-fold
folds again on the next open; job ids are unique, so no job is owed
twice.

Writes are flushed to the OS on every append — a killed *process*
loses nothing (the page cache survives it); surviving a machine crash
would need ``fsync`` per accept, which this deliberately does not pay.

In memory the queue is the service's :class:`~repro.service.queue
.JobQueue` (priority + FIFO within a priority) with a bounded depth:
a push past ``max_depth`` raises :class:`~repro.service.queue
.QueueFull` *before* anything is journaled, and the server sheds the
submission with a 429.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, List, Optional, TextIO

from repro.service.queue import JobQueue, QueueFull, TriageJob

#: The journal's file name: the name a one-shard journal had, so such
#: a directory opens unchanged.
JOURNAL_NAME = "queue-00.journal"
#: Default bounded depth (the backpressure threshold).
DEFAULT_MAX_DEPTH = 256

__all__ = ["JournaledWorkQueue", "QueueFull", "DEFAULT_MAX_DEPTH"]


def _replayable_push(entry: dict) -> bool:
    """Whether a parsed push line has the field types replay relies on.

    A line that is valid JSON with other types (a list ``job_id``, a
    list ``payload``, a string ``priority``) is skipped like a torn
    one, so it never reaches the heap, the dedup map or a worker."""
    payload = entry.get("payload", {})
    return (isinstance(entry.get("job_id"), str)
            and isinstance(payload, dict)
            and isinstance(payload.get("digest", ""), str)
            and isinstance(entry.get("priority", 0), int)
            and isinstance(entry.get("timeout_s", 300.0), (int, float)))


class JournaledWorkQueue:
    """Bounded priority queue whose accepted work survives restart."""

    def __init__(self, directory: str,
                 max_depth: Optional[int] = DEFAULT_MAX_DEPTH) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, JOURNAL_NAME)
        self._queue = JobQueue(max_depth=max_depth)
        self._lock = threading.Lock()
        #: Jobs recovered from the journal at open, already enqueued.
        self.recovered: List[TriageJob] = []
        #: Journal lines skipped at open: torn or not JSON, no ``op``,
        #: or an entry without the field types replay needs.
        self.skipped_lines = 0
        self._writer: Optional[TextIO] = None
        self._replay_and_compact()

    def _append(self, entry: dict) -> None:
        if self._writer is None:
            self._writer = open(self.path, "a")
        self._writer.write(json.dumps(entry, sort_keys=True) + "\n")
        self._writer.flush()

    # -- recovery -------------------------------------------------------
    def _replay_and_compact(self) -> None:
        legacy = sorted(
            name for name in os.listdir(self.directory)
            if name.startswith("queue-") and name.endswith(".journal")
            and name != JOURNAL_NAME)
        paths = [self.path] + [os.path.join(self.directory, name)
                               for name in legacy]
        pushes: Dict[str, dict] = {}  # job_id -> push, in acceptance order
        done = set()
        for path in paths:
            if not os.path.exists(path):
                continue
            with open(path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                        op = entry["op"]
                    except (ValueError, KeyError, TypeError):
                        self.skipped_lines += 1
                        continue
                    if op == "push" and _replayable_push(entry):
                        pushes.setdefault(entry["job_id"], entry)
                    elif op == "done" and isinstance(entry.get("job_id"),
                                                     str):
                        done.add(entry["job_id"])
                    else:
                        self.skipped_lines += 1
        pending = [entry for job_id, entry in pushes.items()
                   if job_id not in done]
        # Compact: the journal now holds only what is still owed, and
        # only then do the folded files go.
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            for entry in pending:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
        os.replace(tmp, self.path)
        for path in paths[1:]:
            os.remove(path)
        # Pushed in acceptance order, so JobQueue serves them by
        # priority and FIFO within a priority, as before the restart.
        for entry in pending:
            job = TriageJob(job_id=entry["job_id"],
                            payload=entry.get("payload", {}),
                            priority=entry.get("priority", 0),
                            timeout_s=entry.get("timeout_s", 300.0))
            # Recovered work is never shed: it was accepted before the
            # restart, so it bypasses the depth bound.
            saved, self._queue.max_depth = self._queue.max_depth, None
            try:
                self._queue.push(job)
            finally:
                self._queue.max_depth = saved
            self.recovered.append(job)

    # -- the queue surface ----------------------------------------------
    def push(self, job: TriageJob) -> None:
        """Accept one job: journal it, then enqueue it.

        Raises :class:`QueueFull` (nothing journaled) when the bounded
        depth is reached — the caller sheds the submission.
        """
        with self._lock:
            if self._queue.full:
                raise QueueFull(
                    f"queue at bounded depth {self._queue.max_depth}")
            self._append({
                "op": "push", "job_id": job.job_id,
                "digest": job.payload.get("digest", job.job_id),
                "priority": job.priority, "timeout_s": job.timeout_s,
                "payload": job.payload})
            self._queue.push(job)

    def pop_batch(self, n: int) -> List[TriageJob]:
        """Up to ``n`` jobs in priority order (may be empty)."""
        with self._lock:
            batch: List[TriageJob] = []
            while len(batch) < n and self._queue:
                batch.append(self._queue.pop())
            return batch

    def mark_done(self, job: TriageJob) -> None:
        """Journal a completion (call *after* the result is persisted,
        so a crash in between re-runs rather than loses the job)."""
        with self._lock:
            self._append({"op": "done", "job_id": job.job_id,
                          "outcome": job.outcome.value})

    @property
    def depth(self) -> int:
        return len(self._queue)

    @property
    def max_depth(self) -> Optional[int]:
        return self._queue.max_depth

    def __len__(self) -> int:
        return len(self._queue)

    def close(self) -> None:
        with self._lock:
            if self._writer is not None:
                self._writer.close()
                self._writer = None

    def __repr__(self) -> str:
        return (f"<JournaledWorkQueue {self.path}: depth "
                f"{self.depth}/{self.max_depth}>")
