"""The AITIA orchestrator (paper section 4.1).

:class:`Aitia` ties the full pipeline together:

1. **Input** — a bug finder's report: execution history + crash report
   (:mod:`repro.trace.syzkaller`);
2. **Modeling** — the history is sliced into groups of up to three
   concurrent threads, backward from the failure
   (:mod:`repro.trace.slicer`);
3. **Reproducing** — LIFS runs on each slice in order until one reproduces
   the reported failure (:mod:`repro.core.lifs`);
4. **Diagnosing** — Causality Analysis flips every detected race and
   builds the causality chain (:mod:`repro.core.causality`);
5. **Output** — a :class:`Diagnosis` with the chain and the evaluation
   accounting (schedules, interleavings, simulated stage times).

The workload object must expose ``bug_id``, ``machine_factory()`` (the
canonical concurrent threads, used when no report is given) and, for the
report-driven path, ``factory_for_slice(slice)`` plus
``slice_thread_names(slice)``; the corpus's
:class:`~repro.corpus.spec.BugModel` implements all of these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.metrics import CostModel, StageCost
from repro.core.causality import CaConfig, CausalityAnalysis, CausalityResult
from repro.core.chain import CausalityChain
from repro.core.lifs import (
    FailureMatcher,
    LeastInterleavingFirstSearch,
    LifsConfig,
    LifsResult,
)
from repro.observe.tracer import as_tracer
from repro.policy import ExperienceIndex

@dataclass
class Diagnosis:
    """The complete output for one bug."""

    bug_id: str
    reproduced: bool
    chain: Optional[CausalityChain]
    lifs_result: Optional[LifsResult]
    ca_result: Optional[CausalityResult]
    slice_used: Optional[object] = None
    slices_tried: int = 0
    #: LIFS schedules spent on slices that failed to reproduce (the
    #: reproducers the manager runs in parallel before one wins).
    rejected_slice_schedules: int = 0
    lifs_cost: Optional[StageCost] = None
    ca_cost: Optional[StageCost] = None

    @property
    def interleaving_count(self) -> int:
        return self.lifs_result.interleaving_count if self.lifs_result else 0

    @property
    def lifs_schedules(self) -> int:
        return (self.lifs_result.stats.schedules_executed
                if self.lifs_result else 0)

    @property
    def total_lifs_schedules(self) -> int:
        """Schedules across every slice tried, not just the winner."""
        return self.lifs_schedules + self.rejected_slice_schedules

    @property
    def ca_schedules(self) -> int:
        return (self.ca_result.stats.schedules_executed
                if self.ca_result else 0)

    def render(self) -> str:
        lines = [f"=== AITIA diagnosis: {self.bug_id} ==="]
        if not self.reproduced:
            lines.append("failure NOT reproduced")
            return "\n".join(lines)
        failure = self.lifs_result.failure_run.failure
        lines.append(f"failure: {failure}")
        if self.slice_used is not None:
            lines.append(f"slice:   {self.slice_used.describe()}")
        lines.append(
            f"LIFS:    {self.lifs_schedules} schedules, "
            f"{self.interleaving_count} interleaving(s)"
            + (f", {self.lifs_cost.seconds:.1f}s simulated"
               if self.lifs_cost else ""))
        lines.append(
            f"CA:      {self.ca_schedules} schedules, "
            f"{len(self.ca_result.root_cause_units)} root-cause unit(s), "
            f"{self.ca_result.benign_race_count} benign race(s) excluded"
            + (f", {self.ca_cost.seconds:.1f}s simulated"
               if self.ca_cost else ""))
        lines.append(f"chain:   {self.chain.render()}")
        if self.chain.has_ambiguity:
            lines.append("note:    chain contains an ambiguous race (§3.4)")
        return "\n".join(lines)


class Aitia:
    """Root-cause diagnosis for one reported kernel concurrency failure."""

    def __init__(
        self,
        workload,
        report=None,
        lifs_config: Optional[LifsConfig] = None,
        ca_config: Optional[CaConfig] = None,
        cost_model: Optional[CostModel] = None,
        tracer=None,
        experience: Optional[ExperienceIndex] = None,
    ) -> None:
        self.workload = workload
        self.report = report
        self.lifs_config = lifs_config
        self.ca_config = ca_config
        self.cost_model = cost_model or CostModel()
        self.tracer = as_tracer(tracer)
        #: Cross-diagnosis experience index driving the adaptive search
        #: policy.  ``None`` means no priors and no learning; when given,
        #: the same index object serves both stages and absorbs this
        #: diagnosis's outcome at completion, so a sequence of diagnoses
        #: sharing one index warms it as it goes.
        self.experience = experience

    # ------------------------------------------------------------------
    def diagnose(self) -> Diagnosis:
        """Run the full pipeline and return the diagnosis."""
        with self.tracer.span("diagnose", stage="diagnose",
                              bug=self.workload.bug_id) as span:
            if self.report is not None:
                diagnosis = self._diagnose_from_report()
            else:
                diagnosis = self._diagnose_direct()
            span.set(reproduced=diagnosis.reproduced,
                     slices_tried=diagnosis.slices_tried,
                     lifs_schedules=diagnosis.total_lifs_schedules,
                     ca_schedules=diagnosis.ca_schedules)
        if self.experience is not None and diagnosis.reproduced:
            self.experience.absorb_record(ExperienceIndex.record_of(
                self.workload.bug_id, diagnosis))
        return diagnosis

    # ------------------------------------------------------------------
    def _matcher(self) -> FailureMatcher:
        if self.report is not None:
            crash = self.report.crash
            return FailureMatcher(kind=crash.symptom, location=crash.location)
        return FailureMatcher.any_failure()

    def _diagnose_direct(self) -> Diagnosis:
        """Diagnose without trace modeling: use the workload's canonical
        concurrent threads (the CVE-style evaluation of section 5.1, where
        the failing syscall pair is known)."""
        with self.tracer.span("slice", stage="slice", mode="direct") as span:
            factory = self.workload.machine_factory
            names = [t.name for t in factory().threads]
            span.set(slices=1, threads=len(names))
        lifs = LeastInterleavingFirstSearch(
            factory, names, target=self._matcher(), config=self.lifs_config,
            tracer=self.tracer, experience=self.experience)
        lifs_result = lifs.search()
        if not lifs_result.reproduced:
            return Diagnosis(bug_id=self.workload.bug_id, reproduced=False,
                             chain=None, lifs_result=lifs_result,
                             ca_result=None)
        return self._run_ca(factory, lifs_result, slice_used=None,
                            slices_tried=0)

    def _diagnose_from_report(self) -> Diagnosis:
        """The full pipeline: model the history, slice it, reproduce with
        LIFS slice by slice, then diagnose."""
        from repro.trace.slicer import Slicer  # local to avoid a cycle

        with self.tracer.span("slice", stage="slice", mode="report") as span:
            slicer = Slicer(self.report.history)
            slices = slicer.slices()
            span.set(slices=len(slices), history=len(self.report.history))
        matcher = self._matcher()
        tried = 0
        rejected_schedules = 0
        last_result: Optional[LifsResult] = None
        for candidate in slices:
            tried += 1
            factory = self.workload.factory_for_slice(candidate)
            names = self.workload.slice_thread_names(candidate)
            lifs = LeastInterleavingFirstSearch(
                factory, names, target=matcher, config=self.lifs_config,
                tracer=self.tracer, experience=self.experience)
            lifs_result = lifs.search()
            last_result = lifs_result
            if lifs_result.reproduced:
                diagnosis = self._run_ca(factory, lifs_result,
                                         slice_used=candidate,
                                         slices_tried=tried)
                diagnosis.rejected_slice_schedules = rejected_schedules
                return diagnosis
            rejected_schedules += lifs_result.stats.schedules_executed
        return Diagnosis(bug_id=self.workload.bug_id, reproduced=False,
                         chain=None, lifs_result=last_result, ca_result=None,
                         slices_tried=tried,
                         rejected_slice_schedules=rejected_schedules)

    def _run_ca(self, factory: Callable, lifs_result: LifsResult,
                slice_used, slices_tried: int) -> Diagnosis:
        ca = CausalityAnalysis(factory, lifs_result, target=self._matcher()
                               if self.report else None,
                               config=self.ca_config, tracer=self.tracer,
                               experience=self.experience)
        ca_result = ca.analyze()
        lifs_cost = lifs_result.stats.stage_cost(self.cost_model)
        ca_cost = self.cost_model.stage_cost(
            schedules=ca_result.stats.schedules_executed,
            total_steps=ca_result.stats.total_steps,
            crashes=ca_result.stats.reboots)
        return Diagnosis(
            bug_id=self.workload.bug_id, reproduced=True,
            chain=ca_result.chain, lifs_result=lifs_result,
            ca_result=ca_result, slice_used=slice_used,
            slices_tried=slices_tried, lifs_cost=lifs_cost, ca_cost=ca_cost)
