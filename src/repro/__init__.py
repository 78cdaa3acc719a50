"""aitia-repro: a reproduction of "Diagnosing Kernel Concurrency Failures
with AITIA" (EuroSys 2023).

Quickstart — the :mod:`repro.api` facade is the documented entrypoint::

    import repro

    diagnosis = repro.diagnose("CVE-2017-15649")
    print(diagnosis.chain.render())

    # with structured tracing
    from repro.observe import JsonlSink, Tracer
    with Tracer(JsonlSink("trace.jsonl")) as tracer:
        repro.diagnose("CVE-2017-15649", tracer=tracer)

Package map:

* :mod:`repro.kernel`     — the simulated kernel (instruction IR, memory,
  locks, deferred work, failure detectors);
* :mod:`repro.hypervisor` — schedule enforcement (breakpoints, trampoline,
  controller, VM pool);
* :mod:`repro.core`       — AITIA itself: LIFS, Causality Analysis,
  causality chains, the :class:`~repro.core.diagnose.Aitia` orchestrator;
* :mod:`repro.trace`      — execution histories, slicing, the synthetic
  Syzkaller front end;
* :mod:`repro.corpus`     — models of the paper's 22 real-world bugs and
  figure examples;
* :mod:`repro.baselines`  — Kairux, cooperative bug localization, MUVI and
  record&replay comparators (Table 1 / section 5.3);
* :mod:`repro.analysis`   — cost model and table renderers for the
  benchmark harness;
* :mod:`repro.observe`    — structured tracing: spans, counters, sinks,
  and the ``repro trace-report`` renderer;
* :mod:`repro.daemon`     — the long-running triage intake daemon
  behind ``repro serve`` (see ``docs/SERVICE.md``);
* :mod:`repro.api`        — the facade: :func:`repro.api.diagnose`,
  :func:`repro.api.evaluate`, :func:`repro.api.triage`,
  :func:`repro.api.serve`.
"""

from repro.api import TriageReport, diagnose, evaluate, serve, triage
from repro.core.causality import CausalityAnalysis
from repro.core.chain import CausalityChain
from repro.core.diagnose import Aitia, Diagnosis
from repro.core.lifs import FailureMatcher, LeastInterleavingFirstSearch
from repro.core.races import DataRace, find_data_races
from repro.core.schedule import OrderConstraint, Preemption, Schedule
from repro.observe import (
    NULL_TRACER,
    JsonlSink,
    LiveProgressSink,
    MemorySink,
    Tracer,
)

__version__ = "3.0.0"

__all__ = [
    "Aitia",
    "CausalityAnalysis",
    "CausalityChain",
    "DataRace",
    "Diagnosis",
    "FailureMatcher",
    "JsonlSink",
    "LeastInterleavingFirstSearch",
    "LiveProgressSink",
    "MemorySink",
    "NULL_TRACER",
    "OrderConstraint",
    "Preemption",
    "Schedule",
    "Tracer",
    "TriageReport",
    "diagnose",
    "evaluate",
    "find_data_races",
    "serve",
    "triage",
    "__version__",
]
