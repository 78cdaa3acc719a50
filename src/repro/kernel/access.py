"""Memory-access records emitted by the simulated kernel.

Every executed ``LOAD``/``STORE``/``INC``/``LIST_*`` instruction produces one
:class:`MemoryAccess`.  These records are the raw material for everything
above the machine: the hypervisor's watchpoints trap on them, LIFS derives
conflicting instructions from them, and Causality Analysis replays races
expressed in terms of them.

The interpreter builds one record per executed access, so the record is a
:class:`~typing.NamedTuple`: immutable and hashed and compared by value,
yet cheap enough to construct on the hot path (the machine bypasses the
generated ``__new__`` via ``tuple.__new__``).
"""

from __future__ import annotations

import enum
from typing import FrozenSet, NamedTuple


class AccessKind(enum.Enum):
    READ = "R"
    WRITE = "W"
    READ_WRITE = "RW"

    @property
    def is_read(self) -> bool:
        return self is not AccessKind.WRITE

    @property
    def is_write(self) -> bool:
        return self is not AccessKind.READ


_READ = AccessKind.READ
_WRITE = AccessKind.WRITE

#: The lockset of every access made while holding no lock (shared).
EMPTY_LOCKSET: FrozenSet[str] = frozenset()


class MemoryAccess(NamedTuple):
    """One dynamic memory access.

    ``seq`` is the global execution index (the position in the totally
    ordered instruction sequence of the run), ``occurrence`` counts how many
    times this thread has executed this particular instruction so far
    (needed to address an access inside a loop), and ``lockset`` is the set
    of locks the thread held while performing the access — used to exclude
    lock-ordered pairs from the data-race definition, per the Linux kernel
    memory model the paper adopts (section 2).
    """

    seq: int
    thread: str
    instr_addr: int
    instr_label: str
    func: str
    data_addr: int
    kind: AccessKind
    occurrence: int
    lockset: FrozenSet[str] = EMPTY_LOCKSET

    @property
    def is_read(self) -> bool:
        return self.kind is not _WRITE

    @property
    def is_write(self) -> bool:
        return self.kind is not _READ

    def conflicts_with(self, other: "MemoryAccess") -> bool:
        """Conflicting accesses: same location, different threads, at least
        one write (the Linux-kernel memory-model definition used throughout
        the paper)."""
        return (
            self.data_addr == other.data_addr
            and self.thread != other.thread
            and (self.is_write or other.is_write)
        )

    def races_with(self, other: "MemoryAccess") -> bool:
        """A conflicting pair not ordered by a common lock."""
        return self.conflicts_with(other) and not (self.lockset & other.lockset)

    def __str__(self) -> str:
        return (
            f"{self.instr_label}({self.thread},{self.kind.value},"
            f"0x{self.data_addr:x})"
        )
