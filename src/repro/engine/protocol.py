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
* :class:`EngineStats` — the engine-side accounting, published as
  counters by :meth:`ScheduleExecutionEngine.emit_counters`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotations only, no import cycle
    from repro.core.schedule import Schedule
    from repro.hypervisor.controller import RunResult
    from repro.hypervisor.snapshot import RunCheckpoint


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
    #: Policy-facing candidate identity (a
    #: :class:`repro.policy.protocol.CandidateMeta`): submission index,
    #: canonical sort key and experience features.  Opaque to the
    #: engine — placement never reads it.
    meta: Optional[object] = None


@dataclass
class RunPlan:
    """A batch of independent requests executed as one phase."""

    requests: List[RunRequest]
    #: Phase label ("lifs.extend", "ca.identify", ...), surfaced as
    #: the ``engine.plan`` trace point so reports can show whether each
    #: phase resumed from snapshots.
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
