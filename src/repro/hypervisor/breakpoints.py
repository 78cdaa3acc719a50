"""Breakpoints and watchpoints.

The AITIA hypervisor installs a *breakpoint* at a memory-accessing
instruction to trap the running thread, disassembles the instruction to
find the address it refers to, and installs a *watchpoint* there so that a
conflicting access from any other context traps too — that is how data
races are detected during LIFS (paper section 4.3, Figure 8).

Here a breakpoint is keyed by thread and code address (optionally per
occurrence) and a watchpoint by data address.  Hits are recorded; the
controller decides what to do with them.  The installed breakpoints are
the controller's trap gate: its run loop probes ``(thread, instr_addr)``
once per instruction and does enforcement work only on a hit, the way the
real guest runs freely between hardware traps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.kernel.access import MemoryAccess


@dataclass(frozen=True)
class Breakpoint:
    """A code breakpoint on one thread; ``occurrence=None`` traps every
    dynamic execution."""

    instr_addr: int
    thread: str
    occurrence: Optional[int] = None

    def matches(self, thread: str, instr_addr: int, occurrence: int) -> bool:
        if self.instr_addr != instr_addr or self.thread != thread:
            return False
        return self.occurrence is None or self.occurrence == occurrence


@dataclass(frozen=True)
class Watchpoint:
    """A data watchpoint on one memory address, installed on behalf of the
    instruction (and thread) whose access address was disassembled."""

    data_addr: int
    owner_thread: str
    owner_instr_addr: int
    owner_label: str = ""


@dataclass(frozen=True)
class WatchpointHit:
    """A conflicting access trapped by a watchpoint: the racing pair the
    hypervisor reports to the user agent."""

    watchpoint: Watchpoint
    access: MemoryAccess


class BreakpointManager:
    """Installed code breakpoints of one VM, keyed by ``(thread,
    instr_addr)``.

    :attr:`armed` is the live key map: ``(thread, instr_addr) in armed``
    is the one-probe trap check, true exactly when some installed
    breakpoint could match that execution; only then is the occurrence
    worth computing."""

    def __init__(self) -> None:
        self.armed: Dict[Tuple[str, int], List[Breakpoint]] = {}

    def install(self, bp: Breakpoint) -> None:
        self.armed.setdefault((bp.thread, bp.instr_addr), []).append(bp)

    def remove(self, bp: Breakpoint) -> None:
        key = (bp.thread, bp.instr_addr)
        bucket = self.armed.get(key)
        if bucket is None or bp not in bucket:
            return
        bucket.remove(bp)
        if not bucket:
            del self.armed[key]

    def clear(self) -> None:
        self.armed.clear()

    def hit(self, thread: str, instr_addr: int,
            occurrence: int) -> Optional[Breakpoint]:
        """The first installed breakpoint matching this execution, if any."""
        for bp in self.armed.get((thread, instr_addr), ()):
            if bp.matches(thread, instr_addr, occurrence):
                return bp
        return None

    def __len__(self) -> int:
        return sum(len(v) for v in self.armed.values())


class WatchpointManager:
    """Installed data watchpoints of one VM."""

    def __init__(self) -> None:
        self._by_addr: Dict[int, List[Watchpoint]] = {}
        self.hits: List[WatchpointHit] = []

    def install(self, wp: Watchpoint) -> None:
        self._by_addr.setdefault(wp.data_addr, []).append(wp)

    def remove_owned_by(self, thread: str, instr_addr: int) -> None:
        for addr in list(self._by_addr):
            self._by_addr[addr] = [
                wp for wp in self._by_addr[addr]
                if not (wp.owner_thread == thread
                        and wp.owner_instr_addr == instr_addr)
            ]

    def clear(self) -> None:
        self._by_addr.clear()

    def snapshot(self) -> dict:
        """Plain-data capture for run checkpoints; watchpoints and hits are
        frozen, so the lists share them structurally."""
        return {
            "by_addr": {addr: list(wps)
                        for addr, wps in self._by_addr.items() if wps},
            "hits": list(self.hits),
        }

    def restore(self, snap: dict) -> None:
        self._by_addr = {addr: list(wps)
                         for addr, wps in snap["by_addr"].items()}
        self.hits = list(snap["hits"])

    def observe(self, access: MemoryAccess) -> List[WatchpointHit]:
        """Check one executed access against installed watchpoints; a hit is
        recorded when another context touches the watched address and the
        pair conflicts (at least one write)."""
        new_hits: List[WatchpointHit] = []
        for wp in self._by_addr.get(access.data_addr, ()):
            if wp.owner_thread == access.thread:
                continue
            hit = WatchpointHit(watchpoint=wp, access=access)
            self.hits.append(hit)
            new_hits.append(hit)
        return new_hits

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_addr.values())
