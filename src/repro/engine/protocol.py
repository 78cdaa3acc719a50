"""The run-service protocol: what algorithms say to the engine.

AITIA's two algorithms — LIFS search and Causality Analysis — are pure
strategies over one primitive: "execute this schedule on the kernel and
give me the run result" (paper section 3).  The protocol types here are
that primitive's vocabulary:

* :class:`RunRequest`  — one schedule to execute, plus how (resume hint,
  race watching, checkpoint capture);
* :class:`RunPlan`     — a batch of independent requests (a LIFS frontier
  round, a CA flip phase) the engine may fan out as one wave;
* :class:`RunOutcome`  — the run plus the placement facts accounting
  needs (resumed? prefix/setup/spliced steps, captured checkpoints);
* :class:`EnginePolicy` — which backends the engine composes, resolved
  once from an algorithm config, api kwargs and CLI flags;
* :class:`EngineStats` — the engine-side accounting, published as
  counters by :meth:`ScheduleExecutionEngine.emit_counters`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotations only, no import cycle
    from repro.core.schedule import Schedule
    from repro.hypervisor.controller import RunResult
    from repro.hypervisor.snapshot import CheckpointPolicy, RunCheckpoint

#: Default fleet spin-up threshold (see :class:`EnginePolicy`).
DEFAULT_FLEET_SPINUP_REQUESTS = 48


def _cfg(config, name):
    """A config field, or ``None`` when absent/unset."""
    if config is None:
        return None
    return getattr(config, name, None)


def _pick(*values, default):
    """First non-``None`` value, else the default."""
    for value in values:
        if value is not None:
            return value
    return default


@dataclass(frozen=True)
class EnginePolicy:
    """Everything the engine needs to pick and parameterize backends.

    One policy instance selects the whole backend composition: snapshots
    on/off (``SnapshotBackend`` vs ``InlineBackend``) and the parallel
    executor (``repro.engine.executors`` — fleet kind, width, spin-up
    threshold), plus checkpoint density, continuation memo size and the
    per-task timeout/respawn budget.
    """

    use_snapshots: bool = True
    #: Capture a checkpoint every N executed instructions (besides the
    #: entry and pre-fire captures); 0 takes no periodic captures.
    snapshot_interval: int = 8
    #: Per-run cap on captured checkpoints.
    max_checkpoints_per_run: int = 64
    #: Cap on memoized run continuations (suffix splicing).
    max_continuations: int = 65536
    #: Parallel wave width; 1 keeps execution sequential.
    wave_jobs: int = 1
    #: Per-task wave deadline and worker respawn budget; ``None`` keeps
    #: the :mod:`repro.engine.executors` defaults.
    wave_timeout_s: Optional[float] = None
    wave_max_retries: Optional[int] = None
    #: Which executor serves parallel plans: ``"fleet"`` (persistent
    #: fork-server workers, :mod:`repro.engine.executors`) or
    #: ``"inline"`` (never fan out, whatever ``wave_jobs`` says).
    executor: str = "fleet"
    #: How many parallel requests an engine must demand before the
    #: fleet forks its workers — small diagnoses never cross it and
    #: never pay a fork.
    fleet_spinup_requests: int = DEFAULT_FLEET_SPINUP_REQUESTS
    #: Which :mod:`repro.policy` search policy shapes candidate plans
    #: (``"static"``, ``"adaptive"``, ...).  Resolved here so precedence
    #: (config > api kwarg > CLI) is decided once; the engine builds the
    #: policy object lazily at construction.
    search_policy: str = "static"

    @classmethod
    def resolve(cls, config=None, *,
                snapshots: Optional[bool] = None,
                wave_jobs: Optional[int] = None,
                executor: Optional[str] = None,
                search_policy: Optional[str] = None,
                cli_snapshots: Optional[bool] = None,
                cli_wave_jobs: Optional[int] = None,
                cli_executor: Optional[str] = None,
                cli_search_policy: Optional[str] = None) -> "EnginePolicy":
        """Resolve a policy with precedence config > api kwarg > CLI flag.

        ``config`` is an algorithm config (``LifsConfig`` / ``CaConfig``
        or anything duck-typed like one); when it is given, its fields
        win outright — an explicit config is the strongest statement of
        intent.  ``snapshots`` / ``wave_jobs`` / ``executor`` /
        ``search_policy`` are the :mod:`repro.api` keyword tier, the
        ``cli_*`` names the parsed command-line tier; ``None`` anywhere
        means "unset, fall through".
        """
        chosen = str(_pick(_cfg(config, "executor"), executor,
                           cli_executor, default="fleet"))
        if chosen == "wave":  # pre-2.1 name for the parallel placement
            chosen = "fleet"
        if chosen not in ("fleet", "inline"):
            raise ValueError(
                f"unknown executor {chosen!r} (choose 'fleet' or 'inline')")
        return cls(
            use_snapshots=bool(_pick(
                _cfg(config, "use_snapshots"), snapshots, cli_snapshots,
                default=True)),
            snapshot_interval=_pick(
                _cfg(config, "snapshot_interval"), default=8),
            max_checkpoints_per_run=_pick(
                _cfg(config, "max_checkpoints_per_run"), default=64),
            max_continuations=_pick(
                _cfg(config, "max_continuations"), default=65536),
            wave_jobs=int(_pick(
                _cfg(config, "wave_jobs"), wave_jobs, cli_wave_jobs,
                default=1)),
            executor=chosen,
            fleet_spinup_requests=int(_pick(
                _cfg(config, "fleet_spinup_requests"),
                default=DEFAULT_FLEET_SPINUP_REQUESTS)),
            search_policy=str(_pick(
                _cfg(config, "policy"), search_policy, cli_search_policy,
                default="static")))

    @classmethod
    def for_lifs(cls, config) -> "EnginePolicy":
        """The policy a ``LifsConfig`` implies."""
        return cls.resolve(config=config)

    @classmethod
    def for_ca(cls, config) -> "EnginePolicy":
        """The policy a ``CaConfig`` implies (flip runs never capture
        checkpoints, so the checkpoint knobs stay at their defaults)."""
        return cls.resolve(config=config)


@dataclass(frozen=True)
class RunRequest:
    """One schedule the algorithm wants executed."""

    schedule: Schedule
    #: Explicit resume point (a prefix checkpoint).  ``None`` lets the
    #: engine resume from its boot checkpoint when snapshots are on, or
    #: boot fresh otherwise.
    resume_from: Optional[RunCheckpoint] = None
    watch_races: bool = True
    #: Capture prefix checkpoints during the run (LIFS harvests them for
    #: extension resume; flip runs never need them).
    capture_checkpoints: bool = False
    #: The resolved capture policy.  Algorithms leave this ``None`` (the
    #: engine derives it from ``capture_checkpoints`` and its own
    #: policy); it is filled in when a request is *prepared* for an
    #: executor, which executes exactly what the request says.
    checkpoint_policy: Optional[CheckpointPolicy] = None
    #: Free-form origin label, for diagnostics.
    label: str = ""
    #: Policy-facing candidate identity (a
    #: :class:`repro.policy.protocol.CandidateMeta`): submission index,
    #: canonical sort key and experience features.  Opaque to every
    #: backend — placement never reads it — and stripped when a request
    #: is prepared for an executor, so it never crosses to a worker.
    meta: Optional[object] = None


@dataclass
class RunPlan:
    """A batch of independent requests executed as one phase."""

    requests: List[RunRequest]
    #: Phase label ("lifs.speculate", "ca.identify", ...), surfaced as
    #: the ``engine.plan`` trace point so reports can show which backend
    #: served each phase.
    phase: str = ""


@dataclass(frozen=True)
class RunOutcome:
    """One request's result plus the placement facts accounting needs."""

    run: RunResult
    #: Checkpoints the run captured (for LIFS harvest/extension resume).
    checkpoints: Tuple[RunCheckpoint, ...] = ()
    #: Whether the run resumed from a checkpoint and the prefix steps
    #: that resume skipped.
    resumed: bool = False
    prefix_steps: int = 0
    #: Boot-setup steps of the machine the run used.
    setup_steps: int = 0
    #: Steps grafted from a memoized continuation (suffix splicing).
    spliced_steps: int = 0
    #: Whether the engine answered this request from its dedup map of
    #: speculatively computed outcomes instead of executing it again.
    dedup_hit: bool = False
    #: Which backend produced the run ("inline", "snapshot", "fleet").
    backend: str = "inline"
    #: Whether the run executed *untraced* (in a fleet worker, or as an
    #: untraced speculative run in the parent) — the engine re-emits the
    #: per-run ``hv.*`` counters for remote outcomes when it merges or
    #: consumes them, and only for those, so every run is counted
    #: exactly once.
    remote: bool = False


@dataclass
class EngineStats:
    """Engine-side accounting, independent of any algorithm's stats."""

    requests: int = 0
    plans: int = 0
    #: Requests answered from the speculation dedup map.
    dedup_hits: int = 0
    #: Requests resumed from a checkpoint / booted fresh; their sum
    #: always equals ``requests``.
    snapshot_hits: int = 0
    snapshot_misses: int = 0
    checkpoints_captured: int = 0
    #: Suffix steps actually interpreted by resumed runs.
    resumed_steps: int = 0
    #: Prefix + boot-setup + spliced steps resumed runs did not
    #: interpret.
    saved_steps: int = 0
    #: Steps the interpreter really executed (suffixes, plus setup on
    #: fresh boots).
    interpreted_steps: int = 0
    #: Runs whose suffix was grafted from a memoized continuation, and
    #: the steps those grafts covered.
    splices: int = 0
    spliced_steps: int = 0
    #: Requests served per backend name.
    backend_requests: Dict[str, int] = field(default_factory=dict)


#: How :class:`EngineStats` fields map onto the LIFS counter names the
#: trace report renders (``snapshot.*`` + ``lifs.interpreted_steps``).
LIFS_COUNTER_NAMES = {
    "snapshot_hits": "snapshot.hits",
    "snapshot_misses": "snapshot.misses",
    "checkpoints_captured": "snapshot.captured",
    "resumed_steps": "snapshot.resumed_steps",
    "saved_steps": "snapshot.saved_steps",
    "splices": "snapshot.splices",
    "spliced_steps": "snapshot.spliced_steps",
    "interpreted_steps": "lifs.interpreted_steps",
}

#: The Causality Analysis spellings of the same accounting.
CA_COUNTER_NAMES = {
    "snapshot_hits": "ca.snapshot_hits",
    "snapshot_misses": "ca.snapshot_misses",
    "saved_steps": "ca.snapshot_saved_steps",
    "splices": "ca.snapshot_splices",
    "spliced_steps": "ca.snapshot_spliced_steps",
    "interpreted_steps": "ca.interpreted_steps",
}
