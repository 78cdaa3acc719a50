"""Crash-report text format: the coredump side of the archival story.

Together with :mod:`repro.trace.ftrace` this makes a bug finder's output
fully serializable: the history as an ftrace log, the crash as the
kernel-log text below.  ``parse_crash_report`` recovers the structured
:class:`~repro.kernel.failures.CrashReport` AITIA consumes, so an
archived report can be re-diagnosed later.

Format (the first line is exactly ``str(failure)`` behind a ``BUG:``
prefix, like a real kernel oops header)::

    BUG: KASAN: use-after-free in A at A3: use-after-free write ...
    Call trace:
      A: irqfd_assign+A2
      ...
"""

from __future__ import annotations

import re

from repro.kernel.failures import CrashReport, Failure, FailureKind


class CrashParseError(ValueError):
    """Malformed crash-report text."""


#: ``" in THREAD at LABEL"`` location suffix of a failure line; either
#: part may be empty (see ``Failure.__str__``).
_LOCATION = re.compile(r"^ in (?P<thread>\S*) at (?P<label>[^:\s]*)")


def render_crash_report(report: CrashReport) -> str:
    """Serialize a crash report as kernel-log text."""
    lines = [f"BUG: {report.failure}"]
    for line in (report.kernel_log or "").splitlines():
        if line.startswith("BUG:"):
            continue  # avoid duplicating the header
        lines.append(line)
    return "\n".join(lines)


#: ``(value, kind)`` of every failure kind, longest value first, so the
#: first value prefixing a header is the longest one that does (kind
#: values themselves contain colons, e.g. "KASAN: use-after-free").
_KINDS_LONGEST_FIRST = tuple(sorted(
    ((kind.value, kind) for kind in FailureKind),
    key=lambda entry: -len(entry[0])))


def _split_kind(header: str) -> tuple:
    """Split the longest failure-kind value off the front of a header."""
    for value, kind in _KINDS_LONGEST_FIRST:
        if header.startswith(value):
            return kind, header[len(value):]
    raise CrashParseError(f"unknown failure kind in {header!r}")


def parse_crash_report(text: str) -> CrashReport:
    """Parse kernel-log text back into a structured crash report."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("BUG: "):
        raise CrashParseError("missing 'BUG:' header")
    header = lines[0][len("BUG: "):]
    kind, rest = _split_kind(header)

    thread = label = ""
    match = _LOCATION.match(rest)
    if match is not None:
        thread = match.group("thread")
        label = match.group("label")
        rest = rest[match.end():]
    message = rest[2:] if rest.startswith(": ") else ""

    failure = Failure(kind=kind, thread=thread, instr_label=label,
                      message=message)
    return CrashReport(failure=failure, kernel_log="\n".join(lines[1:]))
