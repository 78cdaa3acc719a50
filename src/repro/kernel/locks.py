"""Lock table of the simulated kernel.

Locks are named and non-recursive.  A ``LOCK`` on a held lock blocks the
thread; ``UNLOCK`` wakes every waiter (they re-contend, and the external
scheduler decides who runs).  The lockset a thread holds at each memory
access is recorded so lock-ordered conflicting accesses are not reported
as data races, and so Causality Analysis can treat whole critical sections
as single flip units for liveness (paper section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


@dataclass
class LockInfo:
    owner: Optional[int] = None  # tid
    waiters: List[int] = field(default_factory=list)


class LockTable:
    """All named locks of one machine instance.

    Mutations bump a generation counter; the checkpoint snapshot is cached
    against it, so captures on lock-quiet stretches never rebuild it.
    """

    def __init__(self) -> None:
        self._locks: Dict[str, LockInfo] = {}
        self.gen = 0
        self._snap: dict = {}
        self._snap_gen = -1

    def _info(self, name: str) -> LockInfo:
        if name not in self._locks:
            self._locks[name] = LockInfo()
        return self._locks[name]

    def try_acquire(self, name: str, tid: int) -> bool:
        """Acquire ``name`` for ``tid`` if free; otherwise register ``tid``
        as a waiter and return ``False``."""
        info = self._info(name)
        if info.owner is None:
            info.owner = tid
            self.gen += 1
            return True
        if info.owner == tid:
            raise RuntimeError(
                f"thread {tid} recursively acquires lock {name!r}")
        if tid not in info.waiters:
            info.waiters.append(tid)
            self.gen += 1
        return False

    def release(self, name: str, tid: int) -> List[int]:
        """Release ``name``; returns the tids to wake."""
        info = self._info(name)
        if info.owner != tid:
            raise RuntimeError(
                f"thread {tid} releases lock {name!r} owned by {info.owner}")
        info.owner = None
        woken, info.waiters = info.waiters, []
        self.gen += 1
        return woken

    def owner(self, name: str) -> Optional[int]:
        return self._locks.get(name, LockInfo()).owner

    def held_by(self, tid: int) -> Set[str]:
        return {name for name, info in self._locks.items() if info.owner == tid}

    def snapshot(self) -> dict:
        # Idle locks (no owner, no waiters) are indistinguishable from
        # never-touched ones — ``_info`` recreates them lazily — so
        # checkpoints skip them.  The dict is cached per generation; callers
        # must treat it as immutable.
        if self._snap_gen != self.gen:
            self._snap = {
                name: (info.owner, tuple(info.waiters))
                for name, info in self._locks.items()
                if info.owner is not None or info.waiters
            }
            self._snap_gen = self.gen
        return self._snap

    def restore(self, snap: dict) -> None:
        self._locks = {
            name: LockInfo(owner=owner, waiters=list(waiters))
            for name, (owner, waiters) in snap.items()
        }
        self.gen += 1
