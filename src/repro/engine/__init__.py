"""repro.engine — the unified schedule-execution engine.

One run service between "algorithm wants runs" and "hypervisor
interprets instructions".  LIFS and Causality Analysis emit
:class:`RunRequest`/:class:`RunPlan` values and consume
:class:`RunOutcome`\\ s; the :class:`ScheduleExecutionEngine` resumes
each schedule on its vehicle machine from a checkpoint, or boots fresh
when snapshots are off.  The process fan-out across independent
diagnoses (triage and evaluation ``--jobs``, the daemon's workers) is
:func:`make_executor`.  See docs/ARCHITECTURE.md.

* :mod:`repro.engine.protocol`  — the request/plan/outcome vocabulary
  and :class:`EngineStats`;
* :mod:`repro.engine.engine`    — the engine itself;
* :mod:`repro.engine.executors` — the one process-dispatch front door
  (:func:`make_executor`, :class:`JobExecutor` for triage jobs);
* :mod:`repro.engine.fleet`     — the fork-server worker substrate.
"""

from repro.engine.engine import ScheduleExecutionEngine
from repro.engine.executors import JobExecutor, make_executor
from repro.engine.protocol import (
    CA_COUNTER_NAMES,
    LIFS_COUNTER_NAMES,
    EngineStats,
    RunOutcome,
    RunPlan,
    RunRequest,
)

__all__ = [
    "CA_COUNTER_NAMES",
    "LIFS_COUNTER_NAMES",
    "EngineStats",
    "JobExecutor",
    "RunOutcome",
    "RunPlan",
    "RunRequest",
    "ScheduleExecutionEngine",
    "make_executor",
]
