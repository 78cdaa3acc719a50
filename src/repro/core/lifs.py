"""Least Interleaving First Search (paper section 3.3).

LIFS reproduces a reported concurrency failure by exploring interleavings
of *conflicting* instructions, fewest preemptions first:

1. **Interleaving count 0** — every serial order of the slice's threads is
   executed.  These runs discover each thread's memory-accessing
   instructions (the kcov + disassembly step of section 4.3) and seed the
   conflict knowledge.
2. **Interleaving count k** — every non-failing run with k-1 preemptions is
   extended with one more preemption, placed *after* the previous ones
   (front-to-back search) and only at instructions whose data address is
   also accessed, conflictingly, by the thread being switched to.  The
   latter is the dynamic-partial-order-reduction insight: preempting where
   the target thread cannot conflict yields an equivalent trace, so those
   candidates are pruned without running (the grey branches of Figure 5).
3. Runs whose Mazurkiewicz signature repeats an earlier run are recorded as
   equivalent rather than explored further.  One family of equivalent
   candidates is recognised before it runs: an extension that hands
   control straight back to the thread its base's last preemption
   parked, after an excursion independent of everything in between,
   replays the base's parent run step for step, so it is skipped and
   charged as that run (:meth:`LeastInterleavingFirstSearch._replay_bound`).
   The signature check stays as the safety net for the rest.

New instructions executed because of race-steered control flows enter the
knowledge base as soon as a run reveals them, extending the candidate set
on the fly — the property that lets LIFS handle the asynchronous patterns
of Figure 4 without predefined bug shapes.

The search stops at the first run whose failure matches the reported
symptom and returns the totally ordered failure-causing instruction
sequence together with every data race observed in it.
"""

from __future__ import annotations

import bisect
import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, List,
                    NamedTuple, Optional, Sequence, Set, Tuple)

from repro.core.races import RaceSet, find_data_races
from repro.core.schedule import Preemption, Schedule
from repro.hypervisor.controller import RunResult, ScheduleController
from repro.hypervisor.snapshot import RunCheckpoint
from repro.kernel.access import MemoryAccess
from repro.kernel.failures import Failure, FailureKind
from repro.kernel.instructions import Op
from repro.kernel.machine import KernelMachine, TraceEntry
from repro.kernel.program import KernelImage
from repro.observe.tracer import as_tracer

from repro.engine import (LIFS_COUNTER_NAMES, RunPlan, RunRequest,
                          ScheduleExecutionEngine)
from repro.policy import (CandidateMeta, PolicyContext,
                          lifs_candidate_features)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.analysis.metrics import CostModel, StageCost

#: Instructions an excursion skipped by the replay rule may not contain:
#: their effects (heap layout, lock state, the thread roster) are not
#: captured by data addresses alone.
_DEPENDENT_OPS = frozenset({Op.ALLOC, Op.FREE, Op.LOCK, Op.UNLOCK,
                            Op.QUEUE_WORK, Op.CALL_RCU})


@dataclass(frozen=True)
class FailureMatcher:
    """Does an observed failure match the reported one?

    ``kind=None`` matches any failure; ``location=None`` matches any
    instruction.  Crash reports give both (section 4.2).
    """

    kind: Optional[FailureKind] = None
    location: Optional[str] = None

    def matches(self, failure: Optional[Failure]) -> bool:
        if failure is None:
            return False
        if self.kind is not None and failure.kind is not self.kind:
            return False
        if self.location is not None and failure.instr_label != self.location:
            return False
        return True

    @classmethod
    def any_failure(cls) -> "FailureMatcher":
        return cls()


@dataclass
class LifsConfig:
    """Search bounds."""

    max_interleavings: int = 4
    max_schedules: int = 20_000
    #: How many full (non-failing) run results to retain for baselines and
    #: inspection; the frontier itself keeps only what extension needs.
    keep_runs: int = 64
    #: Ablation switch: disable the DPOR-style candidate pruning (preempt
    #: at *every* memory instruction, conflicting or not).  Exists to
    #: measure how much the paper's partial-order reduction buys.
    conflict_pruning: bool = True
    #: Ablation switch: extend equivalent (same-signature) runs instead of
    #: skipping their subtrees.
    equivalence_dedup: bool = True
    #: Prefix-checkpoint engine (docs/PERFORMANCE.md): run every schedule on
    #: one vehicle machine, resumed from the latest checkpoint before the
    #: point where the schedule diverges from its base run, instead of
    #: rebooting and re-interpreting the shared prefix.  Results are
    #: bit-identical with the engine on or off (the ``--no-snapshot``
    #: ablation); only ``snapshot.*`` accounting differs.
    use_snapshots: bool = True
    #: Which :mod:`repro.policy` search policy shapes frontier-extension
    #: batches (``--policy``): ``"static"`` (the canonical lazy
    #: front-to-back order, the default) or ``"adaptive"``
    #: (experience-ranked candidates, so a structurally familiar
    #: reproduction surfaces in fewer executed schedules).  Final
    #: diagnoses are identical under every policy; only cost accounting
    #: differs.
    policy: str = "static"


@dataclass
class SearchStats:
    schedules_executed: int = 0
    candidates_pruned: int = 0
    equivalent_runs: int = 0
    total_steps: int = 0
    failing_runs: int = 0
    #: Equivalent candidates skipped before they ran (a subset of
    #: ``equivalent_runs``; not in ``schedules_executed`` or
    #: ``total_steps``) and the steps of the runs they replay.
    equivalent_skipped: int = 0
    skipped_steps: int = 0
    per_round_executed: Dict[int, int] = field(default_factory=dict)
    per_round_pruned: Dict[int, int] = field(default_factory=dict)
    per_round_equivalent: Dict[int, int] = field(default_factory=dict)
    per_round_skipped: Dict[int, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    #: Schedules resumed from a checkpoint / booted fresh; their sum always
    #: equals ``schedules_executed``.
    snapshot_hits: int = 0
    snapshot_misses: int = 0
    #: Checkpoints captured across all runs.
    snapshot_checkpoints: int = 0
    #: Suffix steps actually interpreted by resumed runs.
    resumed_steps: int = 0
    #: Prefix + boot-setup steps resumed runs did *not* interpret.
    saved_steps: int = 0
    #: Steps the interpreter really executed (suffixes plus setup on fresh
    #: boots).  With snapshots off this equals total_steps + setup per run;
    #: ``total_steps`` itself keeps whole-run semantics either way.
    interpreted_steps: int = 0

    def stage_cost(self, model: "CostModel") -> "StageCost":
        """The simulated LIFS stage cost: every schedule the search
        decided, skipped ones charged as the runs they replay."""
        return model.stage_cost(
            schedules=self.schedules_executed + self.equivalent_skipped,
            total_steps=self.total_steps + self.skipped_steps,
            crashes=self.failing_runs)


@dataclass(frozen=True)
class RunSummary:
    """Lightweight record of one executed schedule: what retention keeps
    instead of a full ``RunResult`` (whose trace and access log pin the
    whole run in memory).  The schedule plus the deterministic controller
    are enough to rematerialize the full run on demand."""

    schedule: Schedule
    failure: Optional[Failure]
    steps: int
    interleavings: int

    @property
    def failed(self) -> bool:
        return self.failure is not None


@dataclass
class LifsResult:
    """Outcome of one LIFS search over one slice."""

    reproduced: bool
    failure_run: Optional[RunResult]
    races: RaceSet
    stats: SearchStats
    #: Paper-style interleaving count of the reproducing run (preempted and
    #: later resumed pairs).
    interleaving_count: int = 0
    #: Summaries of the first ``LifsConfig.keep_runs`` executed schedules.
    run_summaries: List[RunSummary] = field(default_factory=list)
    _replayer: Optional[Callable[[Schedule], RunResult]] = field(
        default=None, repr=False, compare=False)

    @cached_property
    def sample_runs(self) -> List[RunResult]:
        """Full ``RunResult``s for the retained schedules, replayed on
        first access (execution is deterministic, so the replay is
        exact)."""
        if self._replayer is None:
            return []
        return [self._replayer(s.schedule) for s in self.run_summaries]

    @property
    def failure_sequence(self):
        """The totally ordered failure-causing instruction sequence."""
        if self.failure_run is None:
            return []
        return self.failure_run.trace

    @property
    def schedule(self) -> Optional[Schedule]:
        return self.failure_run.schedule if self.failure_run else None


def _after(trace: Sequence[TraceEntry], seq: int) -> int:
    """Index of the first entry of ``trace`` past ``seq``.  A run's trace
    seqs are consecutive: each executed instruction takes the next."""
    return max(0, seq - trace[0].seq + 1) if trace else 0


class _ParentReplay(NamedTuple):
    """What extending a run needs of its parent run P to recognise the
    extensions that replay P before they run (see
    :meth:`LeastInterleavingFirstSearch._replay_bound`)."""

    #: The run's last preemption p1 = (T at x -> U) and the seq it fired at.
    preemption: Preemption
    fired_seq: int
    #: Data addresses P accessed after ``fired_seq`` and before U's first
    #: entry there.
    window: FrozenSet[int]
    #: P's steps, which a skipped replay is charged.
    parent_steps: int


class _Knowledge:
    """What LIFS has learned from executed runs: who accesses which data
    address and how, plus which threads spawn which background threads."""

    def __init__(self) -> None:
        #: data_addr -> {(thread, is_write)}
        self.accessors: Dict[int, Set[Tuple[str, bool]]] = {}
        #: parent thread -> {child threads it has been seen spawning}
        self.spawn_children: Dict[str, Set[str]] = {}

    def absorb(self, run: RunResult) -> None:
        for access in run.accesses:
            self.accessors.setdefault(access.data_addr, set()).add(
                (access.thread, access.is_write))
        for spawn in run.spawn_events:
            self.spawn_children.setdefault(spawn.parent, set()).add(
                spawn.child)

    def _with_descendants(self, thread: str) -> Set[str]:
        family = {thread}
        work = [thread]
        while work:
            for child in self.spawn_children.get(work.pop(), ()):
                if child not in family:
                    family.add(child)
                    work.append(child)
        return family

    def conflicts(self, data_addr: int, accessor_is_write: bool,
                  target_thread: str) -> bool:
        """Would switching to the target thread allow a conflicting access
        to this address — by the target itself or by a background thread
        it (transitively) invokes?  The latter is what makes preempting
        toward an asynchronous free worthwhile (Figure 4-(a))."""
        family = self._with_descendants(target_thread)
        for thread, is_write in self.accessors.get(data_addr, ()):
            if thread in family and (is_write or accessor_is_write):
                return True
        return False


#: A frontier run, the checkpoints valid for extending it, and the run it
#: extended (``None`` for serial runs).
_FrontierEntry = Tuple[RunResult, List[RunCheckpoint], Optional[RunResult]]


class LeastInterleavingFirstSearch:
    """One LIFS instance over one slice of threads."""

    def __init__(
        self,
        machine_factory: Callable[[], KernelMachine],
        initial_threads: Sequence[str],
        target: Optional[FailureMatcher] = None,
        config: Optional[LifsConfig] = None,
        tracer=None,
        experience=None,
    ) -> None:
        self.machine_factory = machine_factory
        self.initial_threads = tuple(initial_threads)
        self.target = target or FailureMatcher.any_failure()
        self.config = config or LifsConfig()
        self.tracer = as_tracer(tracer)
        self.stats = SearchStats()
        self._knowledge = _Knowledge()
        self._signatures: Set[int] = set()
        self._tried_schedules: Set[Tuple] = set()
        self._run_summaries: List[RunSummary] = []
        # All execution placement (snapshot resume, coverage
        # pinning) lives in the engine; the search only decides *which*
        # schedules to run and in what order.
        self.engine = ScheduleExecutionEngine(
            machine_factory, use_snapshots=self.config.use_snapshots,
            search_policy=self.config.policy, tracer=self.tracer,
            experience=experience)

    # ------------------------------------------------------------------
    def search(self) -> LifsResult:
        with self.tracer.span("lifs", stage="lifs",
                              threads=len(self.initial_threads)) as span:
            started = time.perf_counter()
            result = self._search()
            self._absorb_engine_stats()
            self.stats.elapsed_seconds = time.perf_counter() - started
            self._trace_outcome(span, result)
        return result

    def _absorb_engine_stats(self) -> None:
        """Copy the engine's execution accounting into the search stats
        (the engine serves exactly this search, so the copy is total)."""
        engine_stats = self.engine.stats
        self.stats.snapshot_hits = engine_stats.snapshot_hits
        self.stats.snapshot_misses = engine_stats.snapshot_misses
        self.stats.snapshot_checkpoints = engine_stats.checkpoints_captured
        self.stats.resumed_steps = engine_stats.resumed_steps
        self.stats.saved_steps = engine_stats.saved_steps
        self.stats.interpreted_steps = engine_stats.interpreted_steps

    def _trace_outcome(self, span, result: LifsResult) -> None:
        """Publish the search accounting: per-depth points, aggregate
        counters, and the span's summary attributes."""
        stats = self.stats
        if not self.tracer.enabled:
            return
        depths = (set(stats.per_round_executed) | set(stats.per_round_pruned)
                  | set(stats.per_round_equivalent))
        for depth in sorted(depths):
            self.tracer.point(
                "lifs.depth", stage="lifs", depth=depth,
                executed=stats.per_round_executed.get(depth, 0),
                pruned=stats.per_round_pruned.get(depth, 0),
                equivalent=stats.per_round_equivalent.get(depth, 0),
                skipped=stats.per_round_skipped.get(depth, 0))
        self.tracer.count("lifs.schedules", stats.schedules_executed)
        self.tracer.count("lifs.pruned", stats.candidates_pruned)
        self.tracer.count("lifs.equivalent", stats.equivalent_runs)
        self.tracer.count("lifs.skipped", stats.equivalent_skipped)
        self.tracer.count("lifs.failing_runs", stats.failing_runs)
        self.tracer.count("lifs.searches")
        self.engine.emit_counters(LIFS_COUNTER_NAMES)
        span.set(reproduced=result.reproduced,
                 schedules=stats.schedules_executed,
                 pruned=stats.candidates_pruned,
                 equivalent=stats.equivalent_runs,
                 skipped=stats.equivalent_skipped,
                 interleavings=result.interleaving_count,
                 races=len(result.races))

    def _search(self) -> LifsResult:
        # Frontier entries carry the checkpoints valid for extending the
        # run (the base's shared-prefix checkpoints plus the run's own)
        # and the run's parent, for the replay rule.
        frontier: List[_FrontierEntry] = []

        # Interleaving count 0: serial executions in every thread order.
        for order in itertools.permutations(self.initial_threads):
            schedule = Schedule(start_order=order,
                                note=f"lifs serial {'>'.join(order)}")
            run, duplicate, checkpoints = self._execute(schedule,
                                                        round_index=0)
            if run is None:
                return self._give_up()
            if self.target.matches(run.failure):
                return self._success(run)
            if not run.failed and not duplicate:
                frontier.append((run, checkpoints, None))

        extend = (self._extend_round_ranked
                  if self.engine.search_policy.reorders
                  else self._extend_round_static)
        for round_index in range(1, self.config.max_interleavings + 1):
            result, next_frontier = extend(frontier, round_index)
            if result is not None:
                return result
            if not next_frontier:
                break
            frontier = next_frontier

        return self._give_up()

    def _extend_round_static(
        self, frontier, round_index: int,
    ) -> Tuple[Optional[LifsResult], List]:
        """One frontier round in the canonical lazy order — the static
        policy.  Candidates are generated base by base *while* earlier
        siblings execute, so each sees the conflict knowledge its
        predecessors just grew: the exact pre-policy semantics, bit for
        bit."""
        next_frontier: List[_FrontierEntry] = []
        for base, base_ckpts, parent in frontier:
            replay = self._parent_replay(parent, base)
            base_ckpts = list(base_ckpts)
            horizons = [c.horizon_seq for c in base_ckpts]
            for schedule, div_seq, replays in self._extensions(base, replay):
                if replays:
                    if not self._skip(schedule, replay, round_index):
                        return self._give_up(), []
                    continue
                # Latest checkpoint strictly before the divergence
                # point: base and extension behave identically up to
                # there, and the preempted occurrence must not have
                # executed yet or the preemption would never fire.
                i = bisect.bisect_left(horizons, div_seq)
                resume = base_ckpts[i - 1] if i else None
                run, duplicate, checkpoints = self._execute(
                    schedule, round_index, resume_from=resume)
                if run is None:
                    return self._give_up(), []
                if self.target.matches(run.failure):
                    return self._success(run), []
                self._harvest(schedule, checkpoints, base_ckpts,
                              horizons)
                # Equivalent runs are recorded but not extended — the
                # DPOR-style subtree skip of Figure 5.
                keep = not duplicate or not self.config.equivalence_dedup
                if not run.failed and keep:
                    next_frontier.append((run, self._child_checkpoints(
                        schedule, run, base_ckpts, checkpoints), base))
        return None, next_frontier

    def _extend_round_ranked(
        self, frontier, round_index: int,
    ) -> Tuple[Optional[LifsResult], List]:
        """One frontier round through the search policy (reordering
        policies only): materialize the round's candidates, let
        :meth:`~repro.engine.engine.ScheduleExecutionEngine.shape_plan`
        rank the batch, execute in shaped order.

        Materialization repeats to a fixed point: executed runs grow the
        conflict knowledge, and grown knowledge can unlock extensions the
        first materialization pruned (the conflict check is monotone in
        the knowledge, which only grows), so the candidate set here
        always covers everything the lazy static order would have
        generated.  Execution *order* inside the round — and with it
        which failure-matching run surfaces first — is the policy's
        choice; the ablation benchmark asserts the resulting diagnoses
        stay bit-identical across policies on the whole corpus."""
        # Per-base mutable checkpoint pools, shared across fixed-point
        # iterations so harvested captures keep densifying the prefix.
        pools = []
        for base, base_ckpts, parent in frontier:
            pool = list(base_ckpts)
            pools.append((base, pool, [c.horizon_seq for c in pool],
                          self._parent_replay(parent, base)))
        next_frontier: List[_FrontierEntry] = []
        while True:
            requests: List[RunRequest] = []
            # Replaying candidates stay in the plan, so the policy ranks
            # the same batch; they are skipped where they would run.
            replaying: Set[int] = set()
            for base_index, (base, _, _, replay) in enumerate(pools):
                access_by_seq = {a.seq: a for a in base.accesses}
                kinds = base.thread_kinds
                for schedule, div_seq, replays in self._extensions(base,
                                                                   replay):
                    if replays:
                        replaying.add(len(requests))
                    preemption = schedule.preemptions[-1]
                    access = access_by_seq.get(div_seq)
                    requests.append(RunRequest(
                        schedule=schedule, capture_checkpoints=True,
                        meta=CandidateMeta(
                            index=len(requests), kind="lifs.extend",
                            base_index=base_index, div_seq=div_seq,
                            sort_key=(base_index, div_seq,
                                      preemption.switch_to),
                            features=lifs_candidate_features(
                                preemption.instr_label,
                                access.func if access is not None else "",
                                kinds.get(preemption.switch_to, ""),
                                round_index))))
            if not requests:
                return None, next_frontier
            shaped, _pruned = self.engine.shape_plan(
                RunPlan(requests, phase="lifs.extend"),
                PolicyContext(phase="lifs.extend", depth=round_index))
            for request in shaped.requests:
                meta = request.meta
                base, pool, horizons, replay = pools[meta.base_index]
                if meta.index in replaying:
                    if not self._skip(request.schedule, replay, round_index):
                        return self._give_up(), []
                    continue
                i = bisect.bisect_left(horizons, meta.div_seq)
                resume = pool[i - 1] if i else None
                run, duplicate, checkpoints = self._execute(
                    request.schedule, round_index, resume_from=resume)
                if run is None:
                    return self._give_up(), []
                if self.target.matches(run.failure):
                    return self._success(run), []
                self._harvest(request.schedule, checkpoints, pool, horizons)
                keep = not duplicate or not self.config.equivalence_dedup
                if not run.failed and keep:
                    next_frontier.append((run, self._child_checkpoints(
                        request.schedule, run, pool, checkpoints), base))

    def _harvest(self, schedule: Schedule,
                 checkpoints: Sequence[RunCheckpoint],
                 base_ckpts: List[RunCheckpoint],
                 horizons: List[int]) -> None:
        """Fold an extension run's pre-divergence checkpoints back into the
        base's pool.  Until its new preemption fires, the extension *is* the
        base run, so those captures densify the shared prefix — siblings
        (generated in ascending divergence order) then resume from just
        before their own divergence point instead of an early, coarse
        checkpoint."""
        if not self.engine.snapshots_active or not schedule.preemptions:
            return
        new_preemption = schedule.preemptions[-1]
        for ckpt in checkpoints:
            # fired grows monotonically along the checkpoint list; the
            # first capture past the divergence ends the shared prefix.
            if any(p == new_preemption for p, _ in ckpt.fired):
                break
            i = bisect.bisect_left(horizons, ckpt.horizon_seq)
            if i < len(horizons) and horizons[i] == ckpt.horizon_seq:
                continue
            horizons.insert(i, ckpt.horizon_seq)
            base_ckpts.insert(i, ckpt)

    def _child_checkpoints(
        self, schedule: Schedule, run: RunResult,
        base_ckpts: List[RunCheckpoint],
        own: List[RunCheckpoint],
    ) -> List[RunCheckpoint]:
        """Checkpoints valid for extensions of ``run``: the base's prefix
        checkpoints up to the point where ``run`` diverged (its new
        preemption's fire seq) plus the checkpoints ``run`` captured
        itself, deduplicated by horizon."""
        if not self.engine.snapshots_active:
            return []
        new_preemption = schedule.preemptions[-1]
        fire_seq = None
        for p, seq in zip(run.fired_preemptions, run.fired_seqs):
            if p == new_preemption:
                fire_seq = seq
                break
        if fire_seq is None:
            # The new preemption never fired: the run never diverged from
            # its base, so every base checkpoint stays valid.
            inherited = base_ckpts
        else:
            inherited = [c for c in base_ckpts if c.horizon_seq <= fire_seq]
        merged: Dict[int, RunCheckpoint] = {}
        for ckpt in itertools.chain(inherited, own):
            merged.setdefault(ckpt.horizon_seq, ckpt)
        return [merged[h] for h in sorted(merged)]

    # ------------------------------------------------------------------
    def _execute(
        self, schedule: Schedule, round_index: int,
        resume_from: Optional[RunCheckpoint] = None,
    ) -> Tuple[Optional[RunResult], bool, List[RunCheckpoint]]:
        """Run one schedule through the engine.  Returns
        ``(run, is_equivalent, checkpoints)``; ``run`` is ``None`` when
        the schedule budget is exhausted."""
        if self._out_of_budget():
            return None, False, []
        outcome = self.engine.run(RunRequest(
            schedule=schedule, resume_from=resume_from,
            capture_checkpoints=True))
        run = outcome.run
        self.stats.schedules_executed += 1
        self.stats.total_steps += run.steps
        duplicate = self._account_run(schedule, run, round_index)
        return run, duplicate, list(outcome.checkpoints)

    def _account_run(self, schedule: Schedule, run: RunResult,
                     round_index: int) -> bool:
        """Search-level bookkeeping for one executed run; returns whether
        the run's signature repeats an earlier one."""
        if run.failed:
            self.stats.failing_runs += 1
        self.stats.per_round_executed[round_index] = (
            self.stats.per_round_executed.get(round_index, 0) + 1)
        self._knowledge.absorb(run)
        # The in-process hash of the signature is as wide as the stable
        # digest (``RunResult.signature_hash``) and far cheaper; the set
        # never leaves this search, so per-process salting is harmless.
        key = hash(run.signature())
        duplicate = key in self._signatures
        if duplicate:
            self.stats.equivalent_runs += 1
            self.stats.per_round_equivalent[round_index] = (
                self.stats.per_round_equivalent.get(round_index, 0) + 1)
        else:
            self._signatures.add(key)
        if len(self._run_summaries) < self.config.keep_runs:
            self._run_summaries.append(RunSummary(
                schedule=schedule, failure=run.failure, steps=run.steps,
                interleavings=run.interleavings))
        return duplicate

    def _out_of_budget(self) -> bool:
        """Skipped schedules count against ``max_schedules`` like executed
        ones, so a search stops at the same candidate either way."""
        stats = self.stats
        return (stats.schedules_executed + stats.equivalent_skipped
                >= self.config.max_schedules)

    def _skip(self, schedule: Schedule, replay: _ParentReplay,
              round_index: int) -> bool:
        """Account a candidate that replays its base's parent run, without
        running it: an equivalent run with the parent's steps and no
        failure, retained as a summary like an executed run.  It is not
        absorbed or extended (its accesses are the parent's).  Returns
        ``False`` when the schedule budget is exhausted."""
        if self._out_of_budget():
            return False
        stats = self.stats
        stats.equivalent_skipped += 1
        stats.skipped_steps += replay.parent_steps
        stats.equivalent_runs += 1
        for per_round in (stats.per_round_equivalent, stats.per_round_skipped):
            per_round[round_index] = per_round.get(round_index, 0) + 1
        if len(self._run_summaries) < self.config.keep_runs:
            self._run_summaries.append(RunSummary(
                schedule=schedule, failure=None, steps=replay.parent_steps,
                interleavings=len(schedule.preemptions)))
        return True

    def _replay(self, schedule: Schedule) -> RunResult:
        """Deterministically rematerialize a retained run (fresh boot, no
        tracer — accounting already happened during the search)."""
        return ScheduleController(self.machine_factory(), schedule).run()

    @cached_property
    def _image(self) -> KernelImage:
        """The kernel image, for opcode lookups: the engine's vehicle's,
        or one booted machine's when snapshots are off."""
        vehicle = self.engine.vehicle
        if vehicle is None:
            vehicle = self.machine_factory()
        return vehicle.image

    def _parent_replay(self, parent: Optional[RunResult],
                       run: RunResult) -> Optional[_ParentReplay]:
        """What :meth:`_replay_bound` needs of ``run``'s parent run P,
        computed once, when ``run`` is extended (most frontier runs of
        the last round never are); ``None`` when no extension of ``run``
        can replay P, when ``run`` is serial, and always when
        equivalence dedup is off: that ablation runs every duplicate.

        With p1 = (T at x -> U) ``run``'s last preemption, fired at f1,
        and g U's first entry in P after f1, an extension can replay P
        only when every preemption of ``run`` fired, in order; no thread
        but U sat parked on P's trampoline at f1; and every entry of P
        from g on belongs to U or to a thread spawned at or after g.
        The window is the set of data addresses P accessed between f1
        and g."""
        if parent is None or not self.config.equivalence_dedup:
            return None
        preemptions = run.schedule.preemptions
        if not preemptions or run.fired_preemptions != preemptions:
            return None
        p1, f1 = preemptions[-1], run.fired_seqs[-1]
        trace = parent.trace
        start = _after(trace, f1)
        # Replay the trampoline's bookkeeping up to f1: a fire parks its
        # thread and releases its target; a parked thread that executed
        # since was resumed.
        parked: Dict[str, int] = {}
        for p, seq in zip(run.fired_preemptions[:-1], run.fired_seqs[:-1]):
            parked.pop(p.switch_to, None)
            parked[p.thread] = seq
        for thread, seq in parked.items():
            since = trace[_after(trace, seq):start]
            if thread != p1.switch_to and all(e.thread != thread
                                              for e in since):
                return None
        spawned = {e.child: e.seq for e in parent.spawn_events}
        g = None
        for entry in trace[start:]:
            if g is None:
                if entry.thread == p1.switch_to:
                    g = entry.seq
            elif entry.thread != p1.switch_to and \
                    spawned.get(entry.thread, 0) < g:
                return None
        if g is None:
            return None
        window = frozenset(a.data_addr for a in parent.accesses
                           if f1 < a.seq < g)
        return _ParentReplay(p1, f1, window, parent.steps)

    def _replay_bound(self, base: RunResult, replay: _ParentReplay,
                      accesses_by_seq: Dict[int, MemoryAccess]) -> int:
        """Up to which divergence seq an extension of ``base`` that undoes
        its last preemption replays ``base``'s parent run P, so that it
        can be skipped instead of run.

        Let p1 = (T at x -> U) be ``base``'s last preemption, fired at f1,
        and C = ``base`` plus p2 = (U at the entry ``div_seq`` -> T).  C
        has P's signature, steps and outcome when:

        1. p2 hands control straight back to the thread p1 parked (the
           caller checks this);
        2. the excursion E, ``base``'s entries with f1 < seq < ``div_seq``,
           is all U's and holds no ALLOC, FREE, LOCK, UNLOCK, QUEUE_WORK or
           CALL_RCU;
        3. with g U's first entry in P after f1, every entry of P from g
           on belongs to U or to a thread spawned at or after g, and at f1
           no thread but U was parked on P's trampoline
           (:meth:`_parent_replay`);
        4. no access of P between f1 and g, read or written, touches a
           data address E accessed (the signature records reads too).

        Why C then equals P.  Up to ``div_seq``, C is ``base``.  p2 parks
        U on top of the trampoline's LIFO stack and resumes T, so C's
        controller state is P's at f1 — T active, no preemption pending,
        the stack empty or just U — with U parked on top.  P's events in
        (f1, g) run unchanged in C: E touched none of their addresses and
        took no lock, allocation or spawn.  ``ScheduleController._choose``
        also makes the same choices.  In P, U stays runnable and is never
        chosen before g.  If U is not parked in P, step 3 (first runnable
        thread) always finds a thread ahead of it, so step 4 never runs
        and hiding U changes no choice; if it is, the stacks are equal.
        At g, by (3), no other thread can run: P picks U as first
        runnable or as most recently preempted, and C picks U as most
        recently preempted.  P then runs E uninterrupted, on the values E
        read in ``base`` by (4), and from there both runs are in the same
        configuration.  Without the parked-thread half of (3), a thread
        stacked above U in P would resume before U there but after U in
        C.

        Returns the first seq past f1 whose entry breaks (2) or (4): an
        undoing extension replays P iff its ``div_seq`` is at most that,
        since the entry at ``div_seq`` is not part of E.
        """
        u = replay.preemption.switch_to
        window = replay.window
        instruction_at = self._image.instruction_at
        trace = base.trace
        for entry in trace[_after(trace, replay.fired_seq):]:
            access = accesses_by_seq.get(entry.seq)
            if entry.thread != u or \
                    instruction_at(entry.instr_addr).op in _DEPENDENT_OPS or \
                    (access is not None and access.data_addr in window):
                return entry.seq
        return trace[-1].seq + 1 if trace else 0

    def _extensions(self, base: RunResult,
                    replay: Optional[_ParentReplay]):
        """Candidate ``(schedule, divergence_seq, replays_parent)`` triples
        extending ``base`` with one more preemption, front-to-back after
        the base's last fired preemption.

        ``divergence_seq`` is the new preemption's trace-entry seq: base and
        extension behave identically up to (but excluding) that entry, so
        the caller may resume the extension from any checkpoint whose
        horizon is strictly before it.  ``replays_parent`` marks a
        candidate that undoes the base's last preemption and provably
        replays the base's parent run (:meth:`_replay_bound`): the caller
        skips it instead of running it.
        """
        seen = self._tried_schedules
        # Front-to-back: new preemptions only after the point where the
        # base run's last preemption *fired* (parked its thread).
        last_seq = max(base.fired_seqs) if base.fired_seqs else 0

        accesses_by_seq = {a.seq: a for a in base.accesses}
        thread_kinds = base.thread_kinds
        spawn_seq = {e.child: e.seq for e in base.spawn_events}
        threads = base.thread_names
        remaining_after: Dict[str, int] = {}
        for entry in base.trace:
            remaining_after[entry.thread] = entry.seq
        bound, back = 0, None
        if replay is not None:
            bound = self._replay_bound(base, replay, accesses_by_seq)
            back = (replay.preemption.switch_to, replay.preemption.thread)

        for entry in base.trace:
            if entry.seq <= last_seq:
                continue
            access = accesses_by_seq.get(entry.seq)
            if access is None:
                continue  # not a memory-accessing instruction
            if thread_kinds.get(entry.thread) == "irq":
                continue  # hardware IRQ handlers are not preemptible
            for target in threads:
                if target == entry.thread:
                    continue
                if spawn_seq.get(target, 0) > entry.seq:
                    continue  # not spawned yet at this point
                if remaining_after.get(target, 0) <= entry.seq:
                    continue  # target had no remaining work here
                if self.config.conflict_pruning and \
                        not self._knowledge.conflicts(
                            access.data_addr, access.is_write, target):
                    self.stats.candidates_pruned += 1
                    depth = len(base.schedule.preemptions) + 1
                    self.stats.per_round_pruned[depth] = (
                        self.stats.per_round_pruned.get(depth, 0) + 1)
                    continue
                preemption = Preemption(
                    thread=entry.thread, instr_addr=entry.instr_addr,
                    occurrence=entry.occurrence, switch_to=target,
                    instr_label=entry.instr_label)
                schedule = Schedule(
                    start_order=base.schedule.start_order,
                    preemptions=list(base.schedule.preemptions) + [preemption],
                    note=f"lifs depth {len(base.schedule.preemptions) + 1}")
                key = schedule.key()
                if key in seen:
                    continue
                seen.add(key)
                yield schedule, entry.seq, (
                    entry.seq <= bound and (entry.thread, target) == back)

    # ------------------------------------------------------------------
    def _success(self, run: RunResult) -> LifsResult:
        races = find_data_races(run.accesses)
        return LifsResult(
            reproduced=True, failure_run=run, races=races, stats=self.stats,
            interleaving_count=run.interleavings,
            run_summaries=list(self._run_summaries),
            _replayer=self._replay)

    def _give_up(self) -> LifsResult:
        return LifsResult(
            reproduced=False, failure_run=None, races=RaceSet(),
            stats=self.stats,
            run_summaries=list(self._run_summaries),
            _replayer=self._replay)
