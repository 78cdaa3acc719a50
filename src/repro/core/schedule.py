"""Schedules: how AITIA tells the hypervisor what interleaving to enforce.

Two primitives cover both stages of the system:

* :class:`Preemption` — "when thread T is about to execute instruction I
  (for the n-th time), park it on the trampoline and switch to thread S".
  LIFS reproduce schedules are a start order plus a list of preemptions
  (paper section 4.3, "Generating a schedule").
* :class:`OrderConstraint` — "instruction I of thread T (n-th occurrence)
  must be the next constrained instruction to execute".  Causality Analysis
  diagnosis schedules are an ordered queue of constraints over the racing
  instructions of the failure-causing sequence, with exactly one data race
  flipped (paper section 4.5).

Both address instructions by *(thread, code address, occurrence)*, which is
precisely what a hardware breakpoint plus a hit counter gives the real
AITIA hypervisor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class Preemption:
    """Park ``thread`` right before instruction ``instr_addr`` (its
    ``occurrence``-th dynamic execution) and switch to ``switch_to`` (or let
    the default policy pick when ``None``)."""

    thread: str
    instr_addr: int
    occurrence: int = 1
    switch_to: Optional[str] = None
    #: Display name of the instruction, for reports.
    instr_label: str = ""

    def matches(self, thread: str, instr_addr: int, occurrence: int) -> bool:
        return (self.thread == thread and self.instr_addr == instr_addr
                and self.occurrence == occurrence)

    def __str__(self) -> str:
        label = self.instr_label or f"0x{self.instr_addr:x}"
        to = f" -> {self.switch_to}" if self.switch_to else ""
        return f"preempt {self.thread}@{label}#{self.occurrence}{to}"


@dataclass(frozen=True)
class OrderConstraint:
    """One entry of a diagnosis schedule's total order over constrained
    instructions."""

    thread: str
    instr_addr: int
    occurrence: int = 1
    instr_label: str = ""

    @property
    def key(self) -> Tuple[str, int, int]:
        return (self.thread, self.instr_addr, self.occurrence)

    def matches(self, thread: str, instr_addr: int, occurrence: int) -> bool:
        return self.key == (thread, instr_addr, occurrence)

    def __str__(self) -> str:
        label = self.instr_label or f"0x{self.instr_addr:x}"
        return f"{self.thread}@{label}#{self.occurrence}"


@dataclass
class Schedule:
    """A complete scheduling manifestation handed to the hypervisor.

    ``start_order`` fixes the serial order of the initial threads (the
    first entry starts; when a thread finishes, the earliest unfinished
    entry resumes/starts).  Background threads spawned during the run are
    appended to the end of the effective order as they appear.
    """

    start_order: Tuple[str, ...]
    preemptions: List[Preemption] = field(default_factory=list)
    constraints: List[OrderConstraint] = field(default_factory=list)
    #: Free-form origin note ("lifs round 2", "flip A6=>B12"), for reports.
    note: str = ""

    def key(self) -> Tuple:
        """Canonical identity of this schedule: start order, preemption
        points and constraint order — everything that affects execution,
        nothing that doesn't (notes and display labels are excluded).
        Two schedules with equal keys enforce the same interleaving, so
        this is what the LIFS tried-set keys on."""
        return (
            tuple(self.start_order),
            tuple((p.thread, p.instr_addr, p.occurrence, p.switch_to)
                  for p in self.preemptions),
            tuple(c.key for c in self.constraints),
        )

    def describe(self) -> str:
        parts = [f"start={'>'.join(self.start_order)}"]
        parts.extend(str(p) for p in self.preemptions)
        if self.constraints:
            parts.append("order: " + " => ".join(str(c) for c in self.constraints))
        if self.note:
            parts.append(f"({self.note})")
        return "; ".join(parts)

    @property
    def preemption_count(self) -> int:
        return len(self.preemptions)
