"""A textual ftrace-style event-log format for execution histories.

AITIA's real input is an ftrace event log collected while Syzkaller was
fuzzing (paper section 4.2).  This module gives histories a concrete
on-disk form so reports can be archived and re-diagnosed later:

    # tracer: aitia
    #   TIMESTAMP  PROC        EVENT
       12.000000   A           sys_enter: setsockopt(fd=3) dur=3.000
       12.100000   B           sys_enter: bind(fd=3) dur=3.000
       13.000000   kworker     invoke: kworker func=irqfd_shutdown src=B/ioctl dur=2.000
       15.500000   -           panic

``render_ftrace`` and ``parse_ftrace`` round-trip exactly (verified by
the property suite).
"""

from __future__ import annotations


from repro.kernel.threads import ThreadKind
from repro.trace.events import KthreadInvocation, SyscallEvent
from repro.trace.history import ExecutionHistory

HEADER = "# tracer: aitia"


class FtraceParseError(ValueError):
    """Malformed ftrace log."""


def render_ftrace(history: ExecutionHistory) -> str:
    """Serialize a history to the textual log format."""
    lines = [HEADER, "#   TIMESTAMP  PROC  EVENT"]
    for event in history.events:
        if isinstance(event, SyscallEvent):
            fd = f"fd={event.fd}" if event.fd is not None else "fd=-"
            setup = " setup" if event.is_setup else ""
            lines.append(
                f"{event.timestamp:12.6f} {event.proc} "
                f"sys_enter: {event.name}({fd}) entry={event.entry} "
                f"dur={event.duration:.3f}{setup}")
        elif isinstance(event, KthreadInvocation):
            src = f"{event.source_proc}/{event.source_syscall or '-'}"
            lines.append(
                f"{event.timestamp:12.6f} {event.source_proc} "
                f"invoke: {event.kind.value} func={event.func} "
                f"src={src} dur={event.duration:.3f}")
        else:  # pragma: no cover — the history only holds the two kinds
            raise TypeError(f"unknown event type {type(event)!r}")
    if history.failure_time is not None:
        lines.append(f"{history.failure_time:12.6f} - panic")
    return "\n".join(lines)


def _parse_kv(token: str, key: str) -> str:
    if not token.startswith(key + "="):
        raise FtraceParseError(f"expected {key}=..., got {token!r}")
    return token[len(key) + 1:]


def parse_ftrace(text: str) -> ExecutionHistory:
    """Parse the textual log format back into a history.

    Any malformed line — including one a truncated log cut short —
    raises :class:`FtraceParseError` naming the line."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0].strip() != HEADER:
        raise FtraceParseError("missing ftrace header")
    history = ExecutionHistory()
    for line in lines[1:]:
        if line.lstrip().startswith("#"):
            continue
        try:
            _parse_event(line, history)
        except FtraceParseError:
            raise
        except (IndexError, ValueError) as exc:
            # Missing fields, half a number or an unknown thread kind.
            raise FtraceParseError(f"malformed event in {line!r}") from exc
    return history


def _parse_event(line: str, history: ExecutionHistory) -> None:
    """Parse one event line into ``history``."""
    parts = line.split()
    try:
        timestamp = float(parts[0])
    except (IndexError, ValueError) as exc:
        raise FtraceParseError(f"bad timestamp in {line!r}") from exc
    if len(parts) >= 3 and parts[2] == "panic" or (
            len(parts) >= 2 and parts[1] == "-"):
        history.failure_time = timestamp
        return
    proc, kind = parts[1], parts[2]
    if kind == "sys_enter:":
        call, _, fd_part = parts[3].partition("(")
        fd_token = fd_part.rstrip(")")
        fd_value = _parse_kv(fd_token, "fd")
        fd = None if fd_value == "-" else int(fd_value)
        entry = _parse_kv(parts[4], "entry")
        duration = float(_parse_kv(parts[5], "dur"))
        is_setup = len(parts) > 6 and parts[6] == "setup"
        history.add(SyscallEvent(
            timestamp=timestamp, proc=proc, name=call, entry=entry,
            fd=fd, duration=duration, is_setup=is_setup))
    elif kind == "invoke:":
        thread_kind = ThreadKind(parts[3])
        func = _parse_kv(parts[4], "func")
        src = _parse_kv(parts[5], "src")
        source_proc, _, source_syscall = src.partition("/")
        duration = float(_parse_kv(parts[6], "dur"))
        history.add(KthreadInvocation(
            timestamp=timestamp, kind=thread_kind, func=func,
            source_proc=source_proc,
            source_syscall="" if source_syscall == "-"
            else source_syscall,
            duration=duration))
    else:
        raise FtraceParseError(f"unknown event kind in {line!r}")
