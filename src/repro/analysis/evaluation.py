"""Whole-corpus evaluation: one call that reproduces the paper's numbers.

:func:`evaluate_corpus` runs the full diagnosis over a set of bugs and
returns a structured :class:`CorpusEvaluation` — the data behind Tables
2 and 3 and the section 5.2 statistics — with a JSON-safe export for
archiving results next to a checkout.  The benchmark harness prints the
same rows; this module is the programmatic interface.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.races import count_memory_instructions

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.corpus.spec import Bug


@dataclass
class BugEvaluation:
    """One bug's measured row."""

    bug_id: str
    subsystem: str
    bug_type: str
    source: str
    multi_variable: bool
    loosely_correlated: bool
    reproduced: bool
    interleavings: int = 0
    lifs_schedules: int = 0
    lifs_seconds: float = 0.0
    ca_schedules: int = 0
    ca_seconds: float = 0.0
    ca_reboots: int = 0
    memory_accesses: int = 0
    races_detected: int = 0
    races_in_chain: int = 0
    benign_excluded: int = 0
    ambiguous: bool = False
    chain: str = ""
    slices_tried: int = 0


@dataclass
class CorpusEvaluation:
    """All rows plus the aggregates the paper quotes."""

    rows: List[BugEvaluation] = field(default_factory=list)

    @property
    def reproduced_count(self) -> int:
        return sum(1 for r in self.rows if r.reproduced)

    @property
    def ambiguous_bugs(self) -> List[str]:
        return [r.bug_id for r in self.rows if r.ambiguous]

    def averages(self) -> Dict[str, float]:
        done = [r for r in self.rows if r.reproduced]
        if not done:
            return {"memory_accesses": 0.0, "races_detected": 0.0,
                    "races_in_chain": 0.0}
        n = len(done)
        return {
            "memory_accesses": sum(r.memory_accesses for r in done) / n,
            "races_detected": sum(r.races_detected for r in done) / n,
            "races_in_chain": sum(r.races_in_chain for r in done) / n,
        }

    def to_json(self, indent: int = 2) -> str:
        payload = {
            "rows": [asdict(r) for r in self.rows],
            "aggregates": {
                "bugs": len(self.rows),
                "reproduced": self.reproduced_count,
                "ambiguous": self.ambiguous_bugs,
                **self.averages(),
            },
        }
        return json.dumps(payload, indent=indent)


def summarize_diagnosis(bug: "Bug", diagnosis) -> BugEvaluation:
    """Condense a :class:`~repro.core.diagnose.Diagnosis` into the
    evaluation row — shared by the sequential evaluation and the triage
    service's workers, so both report identical numbers."""
    row = BugEvaluation(
        bug_id=bug.bug_id, subsystem=bug.subsystem,
        bug_type=bug.bug_type.name, source=bug.source,
        multi_variable=bug.multi_variable,
        loosely_correlated=bug.loosely_correlated,
        reproduced=diagnosis.reproduced,
        slices_tried=diagnosis.slices_tried)
    if not diagnosis.reproduced:
        if diagnosis.lifs_result is not None:
            row.lifs_schedules = diagnosis.lifs_result.stats.schedules_executed
        return row

    failing = diagnosis.lifs_result.failure_run
    row.interleavings = diagnosis.interleaving_count
    row.lifs_schedules = diagnosis.lifs_schedules
    row.lifs_seconds = diagnosis.lifs_cost.seconds
    row.ca_schedules = diagnosis.ca_schedules
    row.ca_seconds = diagnosis.ca_cost.seconds
    row.ca_reboots = diagnosis.ca_result.stats.reboots
    row.memory_accesses = count_memory_instructions(failing.accesses)
    row.races_detected = len(diagnosis.lifs_result.races)
    row.races_in_chain = diagnosis.chain.race_count
    row.benign_excluded = diagnosis.ca_result.benign_race_count
    row.ambiguous = diagnosis.chain.has_ambiguity
    row.chain = diagnosis.chain.render()
    return row


def _evaluate_one(bug: "Bug", pipeline: bool = False,
                  snapshots: bool = True,
                  policy: str = "static",
                  experience=None,
                  tracer=None) -> BugEvaluation:
    """Diagnose one bug and summarize the outcome."""
    # Imported here: analysis is a leaf package for repro.core, so the
    # orchestrator import must not run at module-import time.
    from repro.core.causality import CaConfig
    from repro.core.diagnose import Aitia
    from repro.core.lifs import LifsConfig

    report = None
    if pipeline:
        from repro.trace.syzkaller import run_bug_finder
        report = run_bug_finder(bug)
    diagnosis = Aitia(bug, report=report,
                      lifs_config=LifsConfig(use_snapshots=snapshots,
                                             policy=policy),
                      ca_config=CaConfig(use_snapshots=snapshots,
                                         policy=policy),
                      experience=experience,
                      tracer=tracer).diagnose()
    return summarize_diagnosis(bug, diagnosis)


def _evaluate_worker(payload: dict) -> dict:
    """Worker-process entry for the parallel evaluation: look the bug
    up by id (bugs themselves hold unpicklable factories) and return
    the row as a plain dict."""
    from repro.corpus import registry

    bug = registry.get_bug(payload["bug_id"])
    return asdict(_evaluate_one(bug, pipeline=payload["pipeline"],
                                snapshots=payload.get("snapshots", True),
                                policy=payload.get("policy", "static")))


def evaluate_corpus(bugs: Optional[Sequence["Bug"]] = None,
                    pipeline: bool = False,
                    jobs: int = 1,
                    timeout_s: float = 600.0,
                    snapshots: bool = True,
                    policy: str = "static",
                    tracer=None) -> CorpusEvaluation:
    """Evaluate a bug set (default: the paper's 22 evaluated bugs).

    With ``jobs > 1`` the rows are computed by the triage service's
    worker pool — one process per bug, ``jobs`` at a time — and are
    bit-identical to the sequential rows (the simulator is
    deterministic).  A bug whose worker fails for any reason falls back
    to in-process evaluation, so the result is always complete.

    ``tracer`` records per-diagnosis spans in-process; with ``jobs >
    1`` the diagnoses happen in worker processes, so the trace carries
    the dispatch span and per-job points instead.

    ``snapshots=False`` disables the prefix-checkpoint engine (the
    ``--no-snapshot`` ablation).  ``policy="adaptive"`` routes both
    search stages through the adaptive search policy (``--policy``);
    the sequential path shares one experience index across the whole
    set, so each diagnosis learns from its predecessors, while parallel
    workers rank with empty priors.  Rows are bit-identical whatever
    the settings.
    """
    from repro.observe.tracer import as_tracer

    tracer = as_tracer(tracer)
    if bugs is None:
        from repro.corpus.registry import all_bugs
        bugs = all_bugs()
    if jobs <= 1:
        experience = None
        if policy != "static":
            from repro.policy import ExperienceIndex
            experience = ExperienceIndex()
        with tracer.span("evaluate", stage="evaluate",
                         bugs=len(bugs), jobs=1):
            return CorpusEvaluation(
                rows=[_evaluate_one(bug, pipeline=pipeline,
                                    snapshots=snapshots, policy=policy,
                                    experience=experience, tracer=tracer)
                      for bug in bugs])

    from repro.engine.executors import make_executor
    from repro.service.queue import JobOutcome, TriageJob

    triage_jobs = [
        TriageJob(job_id=bug.bug_id,
                  payload={"bug_id": bug.bug_id, "pipeline": pipeline,
                           "snapshots": snapshots, "policy": policy},
                  timeout_s=timeout_s)
        for bug in bugs
    ]
    with tracer.span("evaluate", stage="evaluate",
                     bugs=len(bugs), jobs=jobs) as span:
        pool = make_executor(worker=_evaluate_worker, jobs=jobs)
        try:
            pool.run(triage_jobs)
        finally:
            pool.close()
        rows = []
        fallbacks = 0
        for bug, job in zip(bugs, triage_jobs):
            if tracer.enabled:
                tracer.point("evaluate.job", stage="evaluate",
                             bug=bug.bug_id, outcome=job.outcome.value,
                             seconds=round(job.seconds, 6),
                             queue_wait_s=round(job.queue_wait_s, 6))
                tracer.count(f"evaluate.jobs_{job.outcome.value}")
            if job.outcome is JobOutcome.SUCCEEDED:
                rows.append(BugEvaluation(**job.result))
            else:  # pragma: no cover — worker-loss fallback
                fallbacks += 1
                rows.append(_evaluate_one(bug, pipeline=pipeline,
                                          snapshots=snapshots,
                                          policy=policy))
        span.set(fallbacks=fallbacks)
    return CorpusEvaluation(rows=rows)
