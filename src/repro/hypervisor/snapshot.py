"""Whole-machine snapshot / restore and mid-run checkpoints.

The AITIA hypervisor reverts the reproducer VM's memory after every run
(paper section 4.3) instead of rebooting, which is what makes thousands
of LIFS schedules affordable.  Two layers live here:

* :func:`capture` / :func:`restore` — the machine-level snapshot (now
  backed by :mod:`repro.kernel.snapshot`, which carries thread identity so
  a restore can *recreate* threads, not only rewind existing ones).  This
  is what an interactive debugging session wants: run to a point, snap,
  try an interleaving, rewind, try another.
* :class:`RunCheckpoint` — a machine snapshot plus the enforcement state a
  :class:`~repro.hypervisor.controller.ScheduleController` carries (fired
  preemptions, trampoline, watchpoints, active thread, step count).  A
  controller constructed with ``resume_from=checkpoint`` re-enters the run
  at that point and interprets only the suffix; see docs/PERFORMANCE.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.kernel.machine import KernelMachine
from repro.kernel.snapshot import (
    MachineSnapshot,
    restore_machine,
    snapshot_machine,
)

__all__ = [
    "CheckpointPolicy",
    "MachineSnapshot",
    "RunCheckpoint",
    "boot_checkpoint",
    "capture",
    "restore",
]


def capture(machine: KernelMachine) -> MachineSnapshot:
    """Snapshot a machine (typically mid-run, before trying something)."""
    return snapshot_machine(machine)


def restore(machine: KernelMachine, snapshot: MachineSnapshot) -> None:
    """Rewind (or fast-forward) a machine to a snapshot.

    Threads spawned after the capture point are discarded — and threads
    missing from the target machine are recreated — so restores work in
    both directions; logs are reset to the captured prefixes; the failure
    flag is cleared (a crash that happened after the snapshot never
    happened).
    """
    restore_machine(machine, snapshot)


@dataclass(frozen=True)
class CheckpointPolicy:
    """When a controller captures prefix checkpoints during a run: one at
    entry (fresh runs only), one just before each preemption fires, and —
    when ``interval`` is positive — one every ``interval`` executed
    instructions, up to ``max_checkpoints`` total.  ``interval=0`` takes
    no periodic captures: only the points a later run resumes from."""

    interval: int = 8
    max_checkpoints: int = 64


@dataclass(frozen=True)
class RunCheckpoint:
    """Pure state captured mid-run — machine plus enforcement bookkeeping.

    A checkpoint holds no references to the controller or machine that
    produced it; any machine booted from the same factory can be restored
    to it.  ``horizon_seq`` is the global trace seq of the last executed
    instruction: the checkpoint is a valid resume point for any schedule
    that behaves identically up to (and including) that seq.
    """

    machine: MachineSnapshot
    #: Global seq of the last instruction executed before capture.
    horizon_seq: int
    #: Controller steps executed before capture (= steps skipped on resume).
    steps: int
    #: Preemptions already fired, with their fire seqs.
    fired: Tuple
    #: ``Trampoline.snapshot()`` / ``WatchpointManager.snapshot()`` dicts;
    #: ``None`` means "fresh" (nothing to restore).
    trampoline: Optional[dict]
    watchpoints: Optional[dict]
    #: The controller's active thread at capture.
    active: Optional[str]
    #: Start order of the capturing schedule; resume validates it when the
    #: checkpoint is past the boot point.
    start_order: Tuple[str, ...]


def boot_checkpoint(machine: KernelMachine) -> RunCheckpoint:
    """A checkpoint of a freshly booted machine, before any enforcement
    state exists.  Boot state is schedule-independent, so this checkpoint
    resumes under *any* schedule — it is what replaces per-run reboots."""
    return RunCheckpoint(
        machine=snapshot_machine(machine),
        horizon_seq=machine._seq,
        steps=0,
        fired=(),
        trampoline=None,
        watchpoints=None,
        active=None,
        start_order=(),
    )
