"""The schedule-execution engine: one run service for every algorithm.

:class:`ScheduleExecutionEngine` owns everything between "algorithm
wants runs" and "hypervisor interprets instructions": whether a run
resumes on the vehicle machine or boots fresh, coverage pinning, the
unified snapshot accounting, and the single place that publishes the
``snapshot.*`` / ``ca.snapshot_*`` / ``engine.*`` counters.  Every
schedule of a diagnosis runs in this process; parallelism lives one
level up, across independent diagnoses
(:func:`repro.engine.executors.make_executor`).

Algorithms (LIFS, Causality Analysis) stay pure: they emit
:class:`RunRequest`/:class:`RunPlan` values and consume
:class:`RunOutcome`\\ s — no algorithm touches ``CheckpointPolicy``
directly.

Invariants the engine maintains (and the equivalence tests assert):

* **Bit identity** — a request's ``RunResult`` bits are the same
  whether it resumes from a checkpoint or boots fresh; snapshots change
  placement and accounting only.
* **Coverage pinning** — the first boot of a machine with a kcov
  callback permanently turns snapshots off: coverage callbacks must
  fire over every instruction, including the prefix a resume would
  skip.
* **No reuse** — every request executes; the engine never answers one
  from an earlier result (Causality Analysis deliberately re-executes
  identical schedules when rechecking chain edges).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Mapping, Optional

from repro.hypervisor.controller import ScheduleController
from repro.hypervisor.snapshot import (CheckpointPolicy, RunCheckpoint,
                                       boot_checkpoint)
from repro.observe.tracer import as_tracer

from repro.engine.protocol import EngineStats, RunOutcome, RunPlan, RunRequest
from repro.policy import make_policy

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from typing import Callable

    from repro.kernel.machine import KernelMachine

#: Where runs that ask for checkpoints capture them: at entry and just
#: before each preemption fires — the points later runs resume from.
#: Periodic captures cost more to take than the few steps they save.
CAPTURE_POLICY = CheckpointPolicy(interval=0)


class ScheduleExecutionEngine:
    """Execute schedules on behalf of one algorithm instance.

    An engine is built per algorithm instance (one for a LIFS search,
    one for a Causality Analysis) so its stats describe exactly that
    consumer's work.  ``use_snapshots=False`` boots every request fresh
    (the ``--no-snapshot`` reference configuration); ``search_policy``
    names the :mod:`repro.policy` policy that shapes candidate plans.
    """

    def __init__(self, machine_factory: "Callable[[], KernelMachine]", *,
                 use_snapshots: bool = True, search_policy: str = "static",
                 tracer=None, experience=None) -> None:
        self.machine_factory = machine_factory
        self.tracer = as_tracer(tracer)
        self.stats = EngineStats()
        #: The search policy shaping candidate plans (repro.policy).
        #: ``experience`` is the caller's ExperienceIndex — shared
        #: across diagnoses by triage/daemon workers so ranking improves
        #: over the corpus and over uptime.
        self.search_policy = make_policy(search_policy,
                                         experience=experience)
        #: Whether runs resume from checkpoints: starts at
        #: ``use_snapshots`` and is turned off for good by a halted or
        #: coverage-instrumented boot.
        self.snapshots_active = bool(use_snapshots)
        #: The one machine resumed runs are restored onto, and the boot
        #: checkpoint that stands in for a reboot.  Adopted eagerly by
        #: :meth:`prime` (the CA pattern) or from the first fresh boot
        #: and its entry capture (the LIFS pattern).
        self.vehicle: Optional["KernelMachine"] = None
        self.boot_checkpoint: Optional[RunCheckpoint] = None

    def _boot(self) -> "KernelMachine":
        """Boot a fresh machine; a coverage callback turns snapshots off
        for good, since every instruction must then be interpreted."""
        machine = self.machine_factory()
        if machine.coverage_cb is not None:
            self.snapshots_active = False
        return machine

    def prime(self) -> "KernelMachine":
        """Eagerly boot one machine and, while snapshots are active,
        adopt it as the vehicle (the Causality Analysis pattern — CA
        needs a booted image up front anyway).  Returns the machine; a
        halted or coverage-instrumented boot turns snapshots off."""
        machine = self._boot()
        if self.snapshots_active and not machine.halted:
            self.vehicle = machine
            self.boot_checkpoint = boot_checkpoint(machine)
        else:
            self.snapshots_active = False
        return machine

    # -- execution ------------------------------------------------------
    def run(self, request: RunRequest) -> RunOutcome:
        """Execute one request: resume on the vehicle from the request's
        prefix checkpoint or the boot checkpoint, or boot fresh when
        there is none yet or snapshots are off."""
        resume = None
        if self.snapshots_active:
            resume = request.resume_from
            if resume is None:
                resume = self.boot_checkpoint
        if resume is not None:
            machine = self.vehicle
        else:
            machine = self._boot()
            if self.snapshots_active:
                self.vehicle = machine
        capture = self.snapshots_active and request.capture_checkpoints
        controller = ScheduleController(
            machine, request.schedule, watch_races=request.watch_races,
            tracer=self.tracer, resume_from=resume,
            checkpoint_policy=CAPTURE_POLICY if capture else None)
        run = controller.run()
        if self.snapshots_active and self.boot_checkpoint is None:
            # Harvest the run-entry capture as the boot checkpoint that
            # replaces per-schedule reboots from here on.
            for ckpt in controller.checkpoints:
                if ckpt.steps == 0 and not ckpt.fired:
                    self.boot_checkpoint = ckpt
                    break
        outcome = RunOutcome(
            run=run, checkpoints=tuple(controller.checkpoints),
            resumed=resume is not None,
            prefix_steps=resume.steps if resume is not None else 0,
            setup_steps=machine.setup_steps)
        self._account(outcome)
        return outcome

    def run_plan(self, plan: RunPlan) -> List[RunOutcome]:
        """Execute a batch in order; outcomes come back in submission
        order.  The plan is traced as one ``engine.plan`` point saying
        whether it ran with snapshots on."""
        self.stats.plans += 1
        if self.tracer.enabled and plan.requests:
            self.tracer.point(
                "engine.plan", stage="engine", phase=plan.phase,
                backend="snapshot" if self.snapshots_active else "inline",
                requests=len(plan.requests))
        return [self.run(request) for request in plan.requests]

    def shape_plan(self, plan: RunPlan, context=None):
        """Route a candidate plan through the search policy.

        Returns ``(shaped plan, pruned requests)``: the policy first
        discards candidates it can prove irrelevant, then orders the
        rest.  Callers execute the shaped plan and map outcomes back to
        submission positions through each request's ``meta.index``.
        The default static policy returns the canonical order and
        prunes nothing, so routing every batch through here is free.
        """
        shaped, pruned = self.search_policy.shape(plan, context)
        if pruned and self.tracer.enabled:
            self.tracer.point("policy.prune", stage="policy",
                              phase=plan.phase, pruned=len(pruned),
                              kept=len(shaped.requests))
        return shaped, pruned

    # -- accounting -----------------------------------------------------
    def _account(self, outcome: RunOutcome) -> None:
        """Fold one outcome into the engine stats.

        One formula covers both paths: ``suffix = steps - prefix`` is
        what the interpreter actually executed for a resumed run; a fresh
        boot additionally interprets its setup.
        """
        stats = self.stats
        stats.requests += 1
        suffix = outcome.run.steps - outcome.prefix_steps
        if outcome.resumed:
            stats.snapshot_hits += 1
            stats.resumed_steps += suffix
            stats.saved_steps += outcome.prefix_steps + outcome.setup_steps
            stats.interpreted_steps += suffix
        else:
            stats.snapshot_misses += 1
            stats.interpreted_steps += (outcome.run.steps
                                        + outcome.setup_steps)
        stats.checkpoints_captured += len(outcome.checkpoints)

    def emit_counters(self, names: Mapping[str, str]) -> None:
        """Publish the engine accounting as trace counters.

        ``names`` maps :class:`EngineStats` field names to the counter
        names the consumer's report section expects
        (:data:`LIFS_COUNTER_NAMES` / :data:`CA_COUNTER_NAMES`); the
        engine's own ``engine.*`` counters are always emitted alongside.
        """
        if not self.tracer.enabled:
            return
        for field_name, counter in names.items():
            self.tracer.count(counter, getattr(self.stats, field_name))
        self.tracer.count("engine.requests", self.stats.requests)
        self.tracer.count("engine.plans", self.stats.plans)
        policy_stats = self.search_policy.stats
        self.tracer.count("policy.ranked", policy_stats.ranked)
        self.tracer.count("policy.pruned", policy_stats.pruned)
        self.tracer.count("policy.experience_hits",
                          policy_stats.experience_hits)
