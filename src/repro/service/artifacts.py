"""The serialized intake format of the triage service.

A *crash artifact* is what a fuzzing fleet drops into the intake
directory when a kernel crashes: one text file bundling the two archival
formats that already exist — the crash report
(:mod:`repro.trace.crash`) and the ftrace-style execution history
(:mod:`repro.trace.ftrace`) — plus the workload id naming which corpus
image the history executes against (standing in for the kernel
build/commit a real report would carry)::

    # aitia-crash-artifact v1
    # bug: SYZ-04
    # == crash ==
    BUG: KASAN: use-after-free in kworker at K1: ...
    Call trace:
      ...
    # == ftrace ==
    # tracer: aitia
    ...

``CrashArtifact`` round-trips through :meth:`render` / :meth:`parse`,
and :meth:`to_report` rebuilds the
:class:`~repro.trace.syzkaller.SyzkallerReport` AITIA consumes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List

HEADER = "# aitia-crash-artifact v1"
_BUG_PREFIX = "# bug: "
_CRASH_MARK = "# == crash =="
_FTRACE_MARK = "# == ftrace =="

#: File extension the intake scanner looks for.
EXTENSION = ".crash"


class ArtifactParseError(ValueError):
    """Malformed crash-artifact text."""


@dataclass(frozen=True)
class CrashArtifact:
    """One serialized crash: workload id + crash text + history text."""

    bug_id: str
    crash_text: str
    ftrace_text: str

    # -- construction ---------------------------------------------------
    @classmethod
    def from_report(cls, report) -> "CrashArtifact":
        """Serialize a :class:`~repro.trace.syzkaller.SyzkallerReport`."""
        from repro.trace.crash import render_crash_report
        from repro.trace.ftrace import render_ftrace

        return cls(bug_id=report.bug_id,
                   crash_text=render_crash_report(report.crash),
                   ftrace_text=render_ftrace(report.history))

    @classmethod
    def parse(cls, text: str) -> "CrashArtifact":
        lines = text.splitlines()
        if not lines or lines[0].strip() != HEADER:
            raise ArtifactParseError("missing artifact header")
        if len(lines) < 2 or not lines[1].startswith(_BUG_PREFIX):
            raise ArtifactParseError("missing '# bug:' line")
        bug_id = lines[1][len(_BUG_PREFIX):].strip()
        if not bug_id:
            raise ArtifactParseError("empty bug id")
        try:
            crash_at = lines.index(_CRASH_MARK)
            ftrace_at = lines.index(_FTRACE_MARK)
        except ValueError as exc:
            raise ArtifactParseError(
                "missing crash/ftrace section marker") from exc
        if ftrace_at < crash_at:
            raise ArtifactParseError("sections out of order")
        crash_text = "\n".join(lines[crash_at + 1:ftrace_at]).strip("\n")
        ftrace_text = "\n".join(lines[ftrace_at + 1:]).strip("\n")
        if not crash_text:
            raise ArtifactParseError("empty crash section")
        return cls(bug_id=bug_id, crash_text=crash_text,
                   ftrace_text=ftrace_text)

    # -- serialization --------------------------------------------------
    def render(self) -> str:
        return "\n".join([HEADER, f"{_BUG_PREFIX}{self.bug_id}",
                          _CRASH_MARK, self.crash_text,
                          _FTRACE_MARK, self.ftrace_text])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render() + "\n")

    @classmethod
    def read(cls, path: str) -> "CrashArtifact":
        # Bytes that are not UTF-8 are read as U+FFFD, as the daemon
        # reads an HTTP body: the text then parses or raises a parse
        # error, never a UnicodeDecodeError.
        with open(path, encoding="utf-8", errors="replace") as fh:
            return cls.parse(fh.read())

    # -- reconstruction -------------------------------------------------
    def to_report(self):
        """Rebuild the bug-finder report AITIA's pipeline consumes."""
        from repro.trace.crash import parse_crash_report
        from repro.trace.ftrace import parse_ftrace
        from repro.trace.syzkaller import SyzkallerReport

        return SyzkallerReport(bug_id=self.bug_id,
                               history=parse_ftrace(self.ftrace_text),
                               crash=parse_crash_report(self.crash_text))


def scan_directory(path: str) -> List[str]:
    """Paths of all ``*.crash`` files under ``path`` (sorted; symlinks
    are followed, as :func:`os.path.isfile` does)."""
    with os.scandir(path) as entries:
        return sorted(entry.path for entry in entries
                      if entry.name.endswith(EXTENSION) and entry.is_file())


def emit_artifact(bug, directory: str) -> str:
    """Run the synthetic bug finder on ``bug`` and drop its artifact into
    ``directory`` — how demo/test intake directories are populated."""
    from repro.trace.syzkaller import run_bug_finder

    artifact = CrashArtifact.from_report(run_bug_finder(bug))
    path = os.path.join(directory, f"{bug.bug_id}{EXTENSION}")
    artifact.write(path)
    return path
