"""repro.daemon — the long-running, internet-facing triage daemon.

``repro serve`` turns the batch crash-triage verb into an always-on
intake service (ROADMAP item 3): a fuzzing fleet POSTs ``.crash``
artifacts at it around the clock, repeat signatures are answered from
a two-tier cache without touching the pipeline, and accepted work is
journaled so nothing is lost across a restart — soft or hard.

The layer sits *above* ``repro.service`` and reuses its vocabulary
(signatures, jobs, the worker pool, the offset-indexed result store):

* :mod:`repro.daemon.protocol` — minimal HTTP/1.1 over asyncio
  streams (no third-party deps);
* :mod:`repro.daemon.tiers` — hot in-memory LRU over one cold JSONL
  result store;
* :mod:`repro.daemon.queue` — the persistent, bounded work queue with
  its one-file recovery journal;
* :mod:`repro.daemon.server` — routing, dedup, queue-depth
  backpressure, the drain loop, and the ``/metrics`` exposition;
* :mod:`repro.daemon.lifecycle` — config, signals, the ``repro
  serve`` entrypoint;
* :mod:`repro.daemon.worker` — the worker entry (real pipeline or the
  pluggable test stub);
* :mod:`repro.daemon.client` — the matching asyncio client the tests,
  load benchmark and CI smoke script submit through.

See ``docs/SERVICE.md`` for the HTTP protocol, journal format and tier
layout.
"""

from repro.daemon.client import DaemonClient
from repro.daemon.lifecycle import DaemonConfig, run_daemon, start_daemon
from repro.daemon.queue import JournaledWorkQueue
from repro.daemon.server import DaemonMetrics, TriageDaemon
from repro.daemon.tiers import HotTier, TieredStore
from repro.daemon.worker import resolve_diagnoser, stub_diagnose_job

__all__ = [
    "DaemonClient",
    "DaemonConfig",
    "DaemonMetrics",
    "HotTier",
    "JournaledWorkQueue",
    "TieredStore",
    "TriageDaemon",
    "resolve_diagnoser",
    "run_daemon",
    "start_daemon",
    "stub_diagnose_job",
]
