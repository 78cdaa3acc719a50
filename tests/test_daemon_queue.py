"""Tests for the journaled work queue (persistence and recovery)."""

import json
import os

import pytest

from repro.daemon.queue import JournaledWorkQueue
from repro.service.queue import JobOutcome, QueueFull, TriageJob


def _job(n: int, priority: int = 0) -> TriageJob:
    # Vary the leading hex digits: a digest-sharded journal would put
    # these jobs in different files.
    digest = f"{n:04x}" + "0" * 12
    return TriageJob(job_id=f"BUG-{n}:{digest}", priority=priority,
                     payload={"digest": digest, "bug_id": f"BUG-{n}"})


def _push_line(job: TriageJob) -> str:
    return json.dumps({"op": "push", "job_id": job.job_id,
                       "digest": job.payload["digest"],
                       "priority": job.priority, "timeout_s": 300.0,
                       "payload": job.payload}) + "\n"


def _journal_entries(directory):
    entries = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".journal"):
            continue
        with open(os.path.join(directory, name)) as fh:
            entries.extend(json.loads(line) for line in fh if line.strip())
    return entries


class TestPushPop:
    def test_priority_order_across_shards(self, tmp_path):
        queue = JournaledWorkQueue(str(tmp_path))
        queue.push(_job(1, priority=5))
        queue.push(_job(2, priority=0))
        queue.push(_job(3, priority=5))
        batch = queue.pop_batch(10)
        assert [j.payload["bug_id"] for j in batch] == [
            "BUG-2", "BUG-1", "BUG-3"]  # FIFO within a priority

    def test_pop_batch_bounded_and_empty(self, tmp_path):
        queue = JournaledWorkQueue(str(tmp_path))
        for n in range(5):
            queue.push(_job(n))
        assert len(queue.pop_batch(2)) == 2
        assert queue.depth == 3
        assert queue.pop_batch(10) and queue.pop_batch(10) == []

    def test_full_queue_sheds_before_journaling(self, tmp_path):
        queue = JournaledWorkQueue(str(tmp_path), max_depth=2)
        queue.push(_job(1))
        queue.push(_job(2))
        with pytest.raises(QueueFull):
            queue.push(_job(3))
        # Nothing was journaled for the rejected push.
        assert len(_journal_entries(tmp_path)) == 2
        assert queue.depth == 2


class TestRecovery:
    def test_pending_jobs_survive_reopen(self, tmp_path):
        queue = JournaledWorkQueue(str(tmp_path))
        for n in range(4):
            queue.push(_job(n))
        queue.close()

        reopened = JournaledWorkQueue(str(tmp_path))
        assert len(reopened.recovered) == 4
        assert reopened.depth == 4
        ids = {j.job_id for j in reopened.pop_batch(10)}
        assert ids == {_job(n).job_id for n in range(4)}

    def test_done_jobs_are_not_recovered(self, tmp_path):
        queue = JournaledWorkQueue(str(tmp_path))
        first, second = _job(1), _job(2)
        queue.push(first)
        queue.push(second)
        queue.pop_batch(2)
        first.outcome = JobOutcome.SUCCEEDED
        queue.mark_done(first)
        queue.close()

        reopened = JournaledWorkQueue(str(tmp_path))
        assert [j.job_id for j in reopened.recovered] == [second.job_id]

    def test_replay_compacts_the_shards(self, tmp_path):
        queue = JournaledWorkQueue(str(tmp_path))
        for n in range(10):
            job = _job(n)
            queue.push(job)
            if n < 9:
                queue.pop_batch(1)
                job.outcome = JobOutcome.SUCCEEDED
                queue.mark_done(job)
        queue.close()
        assert len(_journal_entries(tmp_path)) == 19  # 10 push + 9 done

        JournaledWorkQueue(str(tmp_path)).close()
        # Only the one still-owed push survives compaction.
        entries = _journal_entries(tmp_path)
        assert len(entries) == 1
        assert entries[0]["op"] == "push"
        assert entries[0]["job_id"] == _job(9).job_id

    def test_recovery_preserves_priority_and_payload(self, tmp_path):
        queue = JournaledWorkQueue(str(tmp_path))
        queue.push(_job(1, priority=9))
        queue.push(_job(2, priority=1))
        queue.close()

        reopened = JournaledWorkQueue(str(tmp_path))
        batch = reopened.pop_batch(2)
        assert [j.priority for j in batch] == [1, 9]
        assert batch[1].payload == _job(1).payload

    def test_recovered_work_bypasses_the_depth_bound(self, tmp_path):
        queue = JournaledWorkQueue(str(tmp_path), max_depth=None)
        for n in range(6):
            queue.push(_job(n))
        queue.close()

        # Reopen with a bound smaller than the backlog: accepted work
        # is never shed, but *new* pushes see the full queue.
        reopened = JournaledWorkQueue(str(tmp_path), max_depth=3)
        assert reopened.depth == 6
        with pytest.raises(QueueFull):
            reopened.push(_job(7))

    def test_corrupt_journal_lines_are_skipped(self, tmp_path):
        queue = JournaledWorkQueue(str(tmp_path))
        queue.push(_job(1))
        queue.close()
        path = os.path.join(str(tmp_path), "queue-00.journal")
        with open(path, "a") as fh:
            fh.write("not json\n")
            fh.write('{"no": "op"}\n')
            fh.write('{"op": "push", "job_id": "ok:0000000000000002", '
                     '"digest": "0000000000000002", "payload": {}}\n')

        reopened = JournaledWorkQueue(str(tmp_path))
        assert reopened.skipped_lines == 2  # bad JSON + missing "op"
        assert len(reopened.recovered) == 2

    def test_recovery_replays_in_acceptance_order(self, tmp_path):
        queue = JournaledWorkQueue(str(tmp_path))
        jobs = [_job(n) for n in range(8)]
        for job in jobs:
            queue.push(job)
        queue.close()
        assert os.listdir(tmp_path) == ["queue-00.journal"]

        reopened = JournaledWorkQueue(str(tmp_path))
        assert [j.job_id for j in reopened.pop_batch(8)] == [
            j.job_id for j in jobs]  # FIFO within a priority


class TestShardedLayoutFold:
    """Directories written with one journal file per digest shard."""

    def _write_shards(self, directory, jobs):
        done = jobs[2]
        with open(os.path.join(directory, "queue-01.journal"), "w") as fh:
            fh.write(_push_line(jobs[0]))
            fh.write(_push_line(done))
            fh.write(json.dumps({"op": "done", "job_id": done.job_id,
                                 "outcome": "succeeded"}) + "\n")
        with open(os.path.join(directory, "queue-03.journal"), "w") as fh:
            fh.write(_push_line(jobs[1]))

    def test_fold_replays_owed_jobs_into_one_file(self, tmp_path):
        jobs = [_job(n) for n in (1, 3, 5)]
        self._write_shards(str(tmp_path), jobs)

        queue = JournaledWorkQueue(str(tmp_path))
        # File then line order: queue-01's owed job, then queue-03's.
        assert [j.job_id for j in queue.recovered] == [
            jobs[0].job_id, jobs[1].job_id]
        assert os.listdir(tmp_path) == ["queue-00.journal"]
        queue.close()
        reopened = JournaledWorkQueue(str(tmp_path))
        assert [j.job_id for j in reopened.recovered] == [
            jobs[0].job_id, jobs[1].job_id]

    def test_fold_cut_short_folds_again(self, tmp_path):
        jobs = [_job(n) for n in (1, 3, 5)]
        self._write_shards(str(tmp_path), jobs)
        # A kill after the one journal was written but before the
        # folded files were removed leaves both behind.
        with open(os.path.join(str(tmp_path), "queue-00.journal"),
                  "w") as fh:
            fh.write(_push_line(jobs[0]))
            fh.write(_push_line(jobs[1]))

        queue = JournaledWorkQueue(str(tmp_path))
        assert [j.job_id for j in queue.recovered] == [
            jobs[0].job_id, jobs[1].job_id]
        assert os.listdir(tmp_path) == ["queue-00.journal"]
        assert len(_journal_entries(tmp_path)) == 2
