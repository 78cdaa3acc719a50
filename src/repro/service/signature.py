"""Crash signatures: "is this the same crash?" for the triage service.

syzbot groups incoming kernel crashes by a *crash signature* so that the
same bug reported a thousand times is diagnosed once.  Ours is built
from the three stable parts of a crash report (the pieces AITIA consumes
from a coredump, section 4.2):

* the failure kind (``KASAN: use-after-free``, GPF, ...);
* the faulting-instruction location (``instr_label``);
* a digest of the normalized call-trace frames.

Frames are normalized to ``func+label`` — the reporting process name is
dropped, so the same race crashing under different pids still dedupes,
exactly like syzbot's frame-based titles.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List

from repro.kernel.failures import CrashReport

#: Length of the hex digests (64 bits — plenty for a corpus of crashes,
#: short enough to read in a table).
DIGEST_HEX_CHARS = 16


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_HEX_CHARS]


def call_trace_frames(kernel_log: str) -> List[str]:
    """Extract normalized ``func+label`` frames from kernel-log text.

    Frames are the indented lines following ``Call trace:``; each is
    ``PROC: func+label`` as rendered by the synthetic bug finder.  The
    process name is stripped.  A log without a ``Call trace:`` section
    yields no frames — the signature then rests on kind + location.
    """
    frames: List[str] = []
    in_trace = False
    for line in (kernel_log or "").splitlines():
        stripped = line.strip()
        if stripped == "Call trace:":
            in_trace = True
            continue
        if not in_trace:
            continue
        if not stripped or not line.startswith((" ", "\t")):
            break  # end of the indented trace block
        _, sep, frame = stripped.partition(": ")
        frames.append(frame if sep else stripped)
    return frames


@dataclass(frozen=True)
class CrashSignature:
    """A stable fingerprint of one crash symptom."""

    kind: str  #: :class:`~repro.kernel.failures.FailureKind` name
    location: str  #: faulting-instruction label (may be empty)
    trace_digest: str  #: digest of the normalized call-trace frames

    @property
    def digest(self) -> str:
        """The content-address used as the result-store key."""
        return _sha(f"{self.kind}|{self.location}|{self.trace_digest}")

    def describe(self) -> str:
        where = self.location or "?"
        return f"{self.kind}@{where}#{self.digest}"


def signature_of(report: CrashReport) -> CrashSignature:
    """Fingerprint a structured crash report."""
    frames = call_trace_frames(report.kernel_log)
    return CrashSignature(
        kind=report.failure.kind.name,
        location=report.failure.instr_label,
        trace_digest=_sha("\n".join(frames)))


def signature_of_text(crash_text: str) -> CrashSignature:
    """Fingerprint serialized crash-report text (parses it first)."""
    from repro.trace.crash import parse_crash_report

    return signature_of(parse_crash_report(crash_text))

