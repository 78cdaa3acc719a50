"""Trampoline: where suspended threads are parked.

The real AITIA redirects a suspended thread's program counter into a busy
loop that keeps calling ``cond_resched()``, so the thread stays responsive
to IPIs and RCU notifications while effectively paused (paper section 4.4).
In the simulated kernel a parked thread simply is not scheduled; this class
keeps the bookkeeping — who is parked, why, and in what nesting order —
and mirrors the saved-context semantics of the real trampoline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional


class ParkReason(enum.Enum):
    PREEMPTED = "preempted"  # LIFS scheduling point fired
    CONSTRAINT = "constraint"  # would execute a constrained instruction early


@dataclass
class ParkedThread:
    thread: str
    reason: ParkReason
    #: Index into the diagnosis schedule's constraint queue (CONSTRAINT only).
    constraint_index: Optional[int] = None
    #: Code address the thread was about to execute when parked.
    instr_addr: int = 0


class Trampoline:
    """Bookkeeping for parked threads.

    Preempted threads form a LIFO resume stack (a preemption switches away
    and the preempted thread resumes when the switched-to work finishes);
    constraint-parked threads are released when their constraint becomes
    the head of the queue or is dropped.
    """

    def __init__(self) -> None:
        self._stack: List[ParkedThread] = []
        #: thread name -> its parking record.  Mutated in place, never
        #: rebound, so a run loop may bind it once and probe membership.
        self.parked: Dict[str, ParkedThread] = {}

    def park_preempted(self, thread: str, instr_addr: int) -> None:
        entry = ParkedThread(thread, ParkReason.PREEMPTED, instr_addr=instr_addr)
        self._stack.append(entry)
        self.parked[thread] = entry

    def park_on_constraint(self, thread: str, constraint_index: int,
                           instr_addr: int) -> None:
        entry = ParkedThread(thread, ParkReason.CONSTRAINT,
                             constraint_index=constraint_index,
                             instr_addr=instr_addr)
        self.parked[thread] = entry

    def is_parked(self, thread: str) -> bool:
        return thread in self.parked

    def parked_reason(self, thread: str) -> Optional[ParkReason]:
        entry = self.parked.get(thread)
        return entry.reason if entry else None

    def constraint_index(self, thread: str) -> Optional[int]:
        entry = self.parked.get(thread)
        return entry.constraint_index if entry else None

    def release(self, thread: str) -> None:
        entry = self.parked.pop(thread, None)
        if entry is not None and entry in self._stack:
            self._stack.remove(entry)

    def release_constraint_parked(self) -> List[str]:
        """Release every constraint-parked thread (the queue head changed);
        returns the released thread names."""
        released = [
            name for name, entry in self.parked.items()
            if entry.reason is ParkReason.CONSTRAINT
        ]
        for name in released:
            del self.parked[name]
        return released

    def resume_candidates(self) -> List[str]:
        """Preempted threads in LIFO resume order (most recent first)."""
        return [entry.thread for entry in reversed(self._stack)]

    def parked_threads(self) -> List[str]:
        return list(self.parked)

    def clear(self) -> None:
        self._stack.clear()
        self.parked.clear()

    def snapshot(self) -> dict:
        """Plain-data capture for run checkpoints.  ``parked`` preserves
        insertion order (``release_constraint_parked`` iterates it) and
        ``stack`` records the LIFO resume order by thread name."""
        return {
            "parked": [
                (e.thread, e.reason, e.constraint_index, e.instr_addr)
                for e in self.parked.values()
            ],
            "stack": [e.thread for e in self._stack],
        }

    def restore(self, snap: dict) -> None:
        self.parked.clear()
        for thread, reason, constraint_index, instr_addr in snap["parked"]:
            self.parked[thread] = ParkedThread(
                thread, reason, constraint_index=constraint_index,
                instr_addr=instr_addr)
        # Stack entries must alias the parked entries: ``release`` removes
        # by identity membership.
        self._stack = [self.parked[name] for name in snap["stack"]]
