"""The crash-triage service: AITIA as a syzbot-style pipeline.

The paper's manager parallelizes reproducing/diagnosing across 32 VMs
(section 4.5); this package is the layer above that turns the diagnosis
algorithm into a *service*: report intake, signature-based dedup, a job
queue with retry/timeout policy, a ``multiprocessing``-backed worker
pool (the simulator is deterministic pure Python, so independent bugs
genuinely parallelize across processes), and a content-addressed result
store so a re-submitted crash returns its cached causality chain without
re-running LIFS or Causality Analysis.

Modules:

* :mod:`repro.service.signature` — crash fingerprinting;
* :mod:`repro.service.artifacts` — the serialized intake format
  (crash-report text + ftrace history text in one file);
* :mod:`repro.service.store` — persistent JSONL result cache;
* :mod:`repro.service.queue` — job model, priorities, retry policy;
* :mod:`repro.service.pool` — the in-process job executor;
* :mod:`repro.service.metrics` — counters and per-stage timings;
* :mod:`repro.service.triage` — the orchestrator and CLI backend.
"""

from repro.service.artifacts import ArtifactParseError, CrashArtifact
from repro.service.metrics import Histogram, ServiceMetrics
from repro.service.pool import InProcessPool
from repro.service.queue import (
    JobOutcome,
    QueueFull,
    RetryPolicy,
    TriageJob,
)
from repro.service.signature import CrashSignature, signature_of
from repro.service.store import ResultStore
from repro.service.triage import (
    EMPTY_INTAKE_MESSAGE,
    TriageService,
    TriageSummary,
    diagnose_job,
)

__all__ = [
    "ArtifactParseError",
    "CrashArtifact",
    "CrashSignature",
    "EMPTY_INTAKE_MESSAGE",
    "Histogram",
    "InProcessPool",
    "JobOutcome",
    "QueueFull",
    "ResultStore",
    "RetryPolicy",
    "ServiceMetrics",
    "TriageJob",
    "TriageService",
    "TriageSummary",
    "diagnose_job",
    "signature_of",
]
