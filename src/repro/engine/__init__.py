"""repro.engine — the unified schedule-execution engine.

One run service between "algorithm wants runs" and "hypervisor
interprets instructions".  LIFS and Causality Analysis emit
:class:`RunRequest`/:class:`RunPlan` values and consume
:class:`RunOutcome`\\ s; the :class:`ScheduleExecutionEngine` decides
*how* each schedule executes — inline fresh boots or snapshot
resume on a vehicle machine — under one :class:`EnginePolicy`
resolved from algorithm configs, api keywords and CLI flags.  The
process fan-out across independent diagnoses (triage and evaluation
``--jobs``, the daemon's workers) is :func:`make_executor`.  See
docs/ARCHITECTURE.md.

* :mod:`repro.engine.protocol`  — the request/plan/outcome vocabulary,
  :class:`EnginePolicy` resolution and :class:`EngineStats`;
* :mod:`repro.engine.backends`  — the in-parent backends
  (:class:`InlineBackend`, :class:`SnapshotBackend`);
* :mod:`repro.engine.executors` — the one process-dispatch front door
  (:func:`make_executor`, :class:`JobExecutor` for triage jobs);
* :mod:`repro.engine.fleet`     — the fork-server worker substrate;
* :mod:`repro.engine.engine`    — the engine itself.
"""

from repro.engine.backends import InlineBackend, SnapshotBackend
from repro.engine.engine import ScheduleExecutionEngine
from repro.engine.executors import JobExecutor, make_executor
from repro.engine.protocol import (
    CA_COUNTER_NAMES,
    LIFS_COUNTER_NAMES,
    EnginePolicy,
    EngineStats,
    RunOutcome,
    RunPlan,
    RunRequest,
)

__all__ = [
    "CA_COUNTER_NAMES",
    "LIFS_COUNTER_NAMES",
    "EnginePolicy",
    "EngineStats",
    "InlineBackend",
    "JobExecutor",
    "RunOutcome",
    "RunPlan",
    "RunRequest",
    "ScheduleExecutionEngine",
    "SnapshotBackend",
    "make_executor",
]
