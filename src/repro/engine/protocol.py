"""The run-service protocol: what algorithms say to the engine.

AITIA's two algorithms — LIFS search and Causality Analysis — are pure
strategies over one primitive: "execute this schedule on the kernel and
give me the run result" (paper section 3).  The protocol types here are
that primitive's vocabulary:

* :class:`RunRequest`  — one schedule to execute, plus how (resume hint,
  race watching, checkpoint capture);
* :class:`RunPlan`     — a batch of independent requests (a LIFS frontier
  round, a CA flip phase) the engine executes as one phase;
* :class:`RunOutcome`  — the run plus the placement facts accounting
  needs (resumed? prefix/setup steps, captured checkpoints);
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
    from repro.hypervisor.snapshot import RunCheckpoint


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

    One policy instance selects the backend composition — snapshots
    on/off (``SnapshotBackend`` vs ``InlineBackend``) — plus checkpoint
    density and the search policy.
    """

    use_snapshots: bool = True
    #: Capture a checkpoint every N executed instructions (besides the
    #: entry and pre-fire captures); 0 takes no periodic captures.
    snapshot_interval: int = 8
    #: Per-run cap on captured checkpoints.
    max_checkpoints_per_run: int = 64
    #: Which :mod:`repro.policy` search policy shapes candidate plans
    #: (``"static"``, ``"adaptive"``, ...).  Resolved here so precedence
    #: (config > api kwarg > CLI) is decided once; the engine builds the
    #: policy object lazily at construction.
    search_policy: str = "static"

    @classmethod
    def resolve(cls, config=None, *,
                snapshots: Optional[bool] = None,
                search_policy: Optional[str] = None,
                cli_snapshots: Optional[bool] = None,
                cli_search_policy: Optional[str] = None) -> "EnginePolicy":
        """Resolve a policy with precedence config > api kwarg > CLI flag.

        ``config`` is an algorithm config (``LifsConfig`` / ``CaConfig``
        or anything duck-typed like one); when it is given, its fields
        win outright — an explicit config is the strongest statement of
        intent.  ``snapshots`` / ``search_policy`` are the
        :mod:`repro.api` keyword tier, the ``cli_*`` names the parsed
        command-line tier; ``None`` anywhere means "unset, fall
        through".
        """
        return cls(
            use_snapshots=bool(_pick(
                _cfg(config, "use_snapshots"), snapshots, cli_snapshots,
                default=True)),
            snapshot_interval=_pick(
                _cfg(config, "snapshot_interval"), default=8),
            max_checkpoints_per_run=_pick(
                _cfg(config, "max_checkpoints_per_run"), default=64),
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
    #: Free-form origin label, for diagnostics.
    label: str = ""
    #: Policy-facing candidate identity (a
    #: :class:`repro.policy.protocol.CandidateMeta`): submission index,
    #: canonical sort key and experience features.  Opaque to every
    #: backend — placement never reads it.
    meta: Optional[object] = None


@dataclass
class RunPlan:
    """A batch of independent requests executed as one phase."""

    requests: List[RunRequest]
    #: Phase label ("lifs.extend", "ca.identify", ...), surfaced as
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
    #: Which backend produced the run ("inline", "snapshot").
    backend: str = "inline"


@dataclass
class EngineStats:
    """Engine-side accounting, independent of any algorithm's stats."""

    requests: int = 0
    plans: int = 0
    #: Requests resumed from a checkpoint / booted fresh; their sum
    #: always equals ``requests``.
    snapshot_hits: int = 0
    snapshot_misses: int = 0
    checkpoints_captured: int = 0
    #: Suffix steps actually interpreted by resumed runs.
    resumed_steps: int = 0
    #: Prefix + boot-setup steps resumed runs did not interpret.
    saved_steps: int = 0
    #: Steps the interpreter really executed (suffixes, plus setup on
    #: fresh boots).
    interpreted_steps: int = 0
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
    "interpreted_steps": "lifs.interpreted_steps",
}

#: The Causality Analysis spellings of the same accounting.
CA_COUNTER_NAMES = {
    "snapshot_hits": "ca.snapshot_hits",
    "snapshot_misses": "ca.snapshot_misses",
    "saved_steps": "ca.snapshot_saved_steps",
    "interpreted_steps": "ca.interpreted_steps",
}
