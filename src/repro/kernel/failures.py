"""Failure taxonomy of the simulated kernel.

The kinds mirror the crash classes appearing in the paper's evaluation
(Tables 2 and 3): KASAN use-after-free and slab-out-of-bounds reports,
general protection faults (NULL/wild dereference), assertion violations
(``BUG_ON``), memory leaks, and deadlocks (watchdog/hung-task reports).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class FailureKind(enum.Enum):
    """Classes of kernel failures detectable by the simulated kernel."""

    KASAN_UAF = "KASAN: use-after-free"
    KASAN_OOB = "KASAN: slab-out-of-bounds"
    GPF = "general protection fault"
    ASSERTION = "kernel BUG (assertion violation)"
    MEMORY_LEAK = "memory leak"
    DEADLOCK = "INFO: task hung (deadlock)"
    DOUBLE_FREE = "KASAN: double-free"


@dataclass(frozen=True)
class Failure:
    """A manifested kernel failure.

    ``instr_label`` is the display name of the faulting instruction and
    ``thread`` the name of the context that executed it.  Together with
    ``kind`` they make up the *failure information* AITIA consumes from a
    crash report (paper section 4.2); two failures are considered the same
    symptom when their ``signature`` values match.
    """

    kind: FailureKind
    thread: str = ""
    instr_label: str = ""
    message: str = ""
    data_addr: Optional[int] = None
    object_tag: Optional[str] = None

    @property
    def signature(self) -> str:
        """A stable identifier for "is this the same crash?" comparisons."""
        return f"{self.kind.name}@{self.instr_label}"

    def __str__(self) -> str:
        # An end-of-run leak has a label but no thread; a deadlock whose
        # blocked thread has no pending instruction has a thread but no
        # label.  Either still renders its location.
        where = (f" in {self.thread} at {self.instr_label}"
                 if self.thread or self.instr_label else "")
        msg = f": {self.message}" if self.message else ""
        return f"{self.kind.value}{where}{msg}"


class KernelFault(Exception):
    """Raised internally by the memory subsystem or the interpreter when an
    instruction faults; the machine converts it into a :class:`Failure` and
    halts, the way KASAN panics the kernel."""

    def __init__(self, kind: FailureKind, message: str = "",
                 data_addr: Optional[int] = None,
                 object_tag: Optional[str] = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.data_addr = data_addr
        self.object_tag = object_tag


@dataclass
class CrashReport:
    """What a bug-finding system hands to AITIA: the symptom plus the
    location of the failure, extracted from a coredump."""

    failure: Failure
    kernel_log: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def symptom(self) -> FailureKind:
        return self.failure.kind

    @property
    def location(self) -> str:
        return self.failure.instr_label
