"""Tests for the crash-report text format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.registry import get_bug
from repro.kernel.failures import CrashReport, Failure, FailureKind
from repro.kernel.threads import ThreadKind
from repro.service.artifacts import CrashArtifact
from repro.service.signature import signature_of
from repro.trace.crash import (
    CrashParseError,
    _split_kind,
    parse_crash_report,
    render_crash_report,
)
from repro.trace.events import KthreadInvocation, SyscallEvent
from repro.trace.ftrace import render_ftrace
from repro.trace.history import ExecutionHistory
from repro.trace.syzkaller import run_bug_finder


class TestRoundTrip:
    def _report(self, kind=FailureKind.KASAN_UAF):
        failure = Failure(kind=kind, thread="A", instr_label="A3",
                          message="use-after-free write in irqfd")
        return CrashReport(failure=failure,
                           kernel_log="Call trace:\n  A: irqfd_assign+A2")

    def test_simple_round_trip(self):
        original = self._report()
        parsed = parse_crash_report(render_crash_report(original))
        assert parsed.symptom is original.symptom
        assert parsed.location == original.location
        assert parsed.failure.thread == "A"
        assert parsed.failure.message == original.failure.message
        assert "Call trace:" in parsed.kernel_log

    @pytest.mark.parametrize("kind", list(FailureKind))
    def test_every_failure_kind_round_trips(self, kind):
        parsed = parse_crash_report(render_crash_report(self._report(kind)))
        assert parsed.symptom is kind

    def test_failure_without_location(self):
        failure = Failure(kind=FailureKind.MEMORY_LEAK,
                          message="object filter was never freed")
        parsed = parse_crash_report(
            render_crash_report(CrashReport(failure=failure)))
        assert parsed.symptom is FailureKind.MEMORY_LEAK
        assert parsed.location == ""
        assert "never freed" in parsed.failure.message

    def test_syzkaller_report_round_trips(self):
        bug = get_bug("SYZ-04")
        report = run_bug_finder(bug).crash
        parsed = parse_crash_report(render_crash_report(report))
        assert parsed.symptom is report.symptom
        assert parsed.location == report.location

    def test_parsed_report_drives_diagnosis(self):
        """An archived crash report must still target the diagnosis."""
        from repro.core.diagnose import Aitia

        bug = get_bug("SYZ-04")
        syz = run_bug_finder(bug)
        syz.crash = parse_crash_report(render_crash_report(syz.crash))
        diagnosis = Aitia(bug, report=syz).diagnose()
        assert diagnosis.reproduced
        assert diagnosis.chain.contains_race_between("K1", "A2")

    def test_header_not_duplicated(self):
        bug = get_bug("SYZ-04")
        report = run_bug_finder(bug).crash  # kernel_log starts with BUG:
        text = render_crash_report(report)
        assert text.count("BUG:") == 1


class TestParseErrors:
    def test_missing_header(self):
        with pytest.raises(CrashParseError, match="BUG"):
            parse_crash_report("KASAN: use-after-free in A at A3")

    def test_unknown_kind(self):
        with pytest.raises(CrashParseError, match="unknown failure kind"):
            parse_crash_report("BUG: exploded spectacularly in A at A3")

    def test_empty_text(self):
        with pytest.raises(CrashParseError):
            parse_crash_report("")

    @pytest.mark.parametrize("header", [
        "BUG:KASAN: use-after-free in A at A3",  # missing space
        " BUG: KASAN: use-after-free in A at A3",  # leading whitespace
        "bug: KASAN: use-after-free in A at A3",  # wrong case
        "OOPS: KASAN: use-after-free in A at A3",  # wrong tag
    ])
    def test_malformed_headers(self, header):
        with pytest.raises(CrashParseError, match="BUG"):
            parse_crash_report(header)

    def test_empty_header_body(self):
        with pytest.raises(CrashParseError, match="unknown failure kind"):
            parse_crash_report("BUG: ")

    def test_header_only_whitespace_after_tag(self):
        with pytest.raises(CrashParseError):
            parse_crash_report("BUG:    \nCall trace:\n  A: f+A1")


class TestMissingCallTrace:
    """A report whose log lacks the ``Call trace:`` section still parses;
    downstream consumers (the triage signature) fall back to
    kind + location."""

    def test_parses_without_call_trace(self):
        parsed = parse_crash_report(
            "BUG: KASAN: use-after-free in A at A3: boom\nsome other log")
        assert parsed.symptom is FailureKind.KASAN_UAF
        assert parsed.location == "A3"
        assert "Call trace:" not in parsed.kernel_log

    def test_signature_survives_missing_call_trace(self):
        from repro.service.signature import signature_of

        with_trace = parse_crash_report(
            "BUG: KASAN: use-after-free in A at A3: boom\n"
            "Call trace:\n  A: f+A3")
        without = parse_crash_report(
            "BUG: KASAN: use-after-free in A at A3: boom")
        assert signature_of(without).kind == signature_of(with_trace).kind
        assert signature_of(without).location == "A3"
        # frames differ, so the digests must too — a trace-less report
        # is not silently merged with a traced one
        assert signature_of(without).digest != signature_of(with_trace).digest


# -- property: render -> parse -> render is a fixed point ---------------
_NAME = st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu"),
                                       max_codepoint=0x7F),
                min_size=1, max_size=8)
_LABEL = _NAME.map(lambda s: s + "1")
_MESSAGE = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd", "Zs"),
                           max_codepoint=0x7F),
    max_size=40).map(str.strip)


@st.composite
def _failures(draw):
    kind = draw(st.sampled_from(list(FailureKind)))
    # Thread and label are drawn independently: an end-of-run leak has a
    # label and no thread, a deadlock may have a thread and no label.
    thread = draw(st.one_of(st.just(""), _NAME))
    label = draw(st.one_of(st.just(""), _LABEL))
    return Failure(kind=kind, thread=thread, instr_label=label,
                   message=draw(_MESSAGE))


@st.composite
def _kernel_logs(draw):
    frames = draw(st.lists(
        st.tuples(_NAME, _NAME, _LABEL), max_size=4))
    if not frames:
        return ""
    lines = ["Call trace:"]
    lines.extend(f"  {proc}: {func}+{label}"
                 for proc, func, label in frames)
    return "\n".join(lines)


class TestRenderParseProperty:
    @settings(max_examples=200, deadline=None)
    @given(failure=_failures(), log=_kernel_logs())
    def test_render_parse_render_fixed_point(self, failure, log):
        report = CrashReport(failure=failure, kernel_log=log)
        text = render_crash_report(report)
        parsed = parse_crash_report(text)
        assert render_crash_report(parsed) == text
        assert parsed.symptom is failure.kind
        assert parsed.failure.thread == failure.thread
        assert parsed.location == failure.instr_label
        assert parsed.failure.message == failure.message
        assert parsed.kernel_log == log


# -- property: the kind table finds what a scan of FailureKind finds ----
def _scan_kind(header):
    """The parser's former lookup, kept as the oracle: scan every kind
    and keep the longest value that prefixes the header."""
    best = None
    for kind in FailureKind:
        if header.startswith(kind.value):
            if best is None or len(kind.value) > len(best.value):
                best = kind
    if best is None:
        raise CrashParseError(f"unknown failure kind in {header!r}")
    return best, header[len(best.value):]


def _split_or_error(split, header):
    try:
        return split(header)
    except CrashParseError as exc:
        return str(exc)


class TestKindTableProperty:
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(list(FailureKind)), rest=st.text(max_size=30))
    def test_every_kind_followed_by_any_text(self, kind, rest):
        header = kind.value + rest
        assert _split_kind(header) == _scan_kind(header)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(list(FailureKind)), cut=st.integers(0, 40),
           rest=st.text(max_size=30))
    def test_cut_kinds_and_other_headers(self, kind, cut, rest):
        header = kind.value[:cut] + rest
        assert (_split_or_error(_split_kind, header)
                == _split_or_error(_scan_kind, header))


# -- property: a .crash bundle round-trips, and its crash alone signs it -
_BUG_ID = st.from_regex(r"[A-Z][A-Z0-9-]{0,15}", fullmatch=True)
_TIME = st.floats(min_value=0, max_value=1e4, allow_nan=False)


@st.composite
def _histories(draw):
    history = ExecutionHistory()
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            history.add(SyscallEvent(
                timestamp=draw(_TIME), proc=draw(_NAME), name=draw(_NAME),
                entry=draw(_NAME),
                fd=draw(st.one_of(st.none(), st.integers(0, 64))),
                duration=draw(_TIME), is_setup=draw(st.booleans())))
        else:
            history.add(KthreadInvocation(
                timestamp=draw(_TIME),
                kind=draw(st.sampled_from(list(ThreadKind))),
                func=draw(_NAME), source_proc=draw(_NAME),
                source_syscall=draw(st.one_of(st.just(""), _NAME)),
                duration=draw(_TIME)))
    history.failure_time = draw(st.one_of(st.none(), _TIME))
    return history


class TestBundleRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(bug_id=_BUG_ID, failure=_failures(), log=_kernel_logs(),
           history=_histories())
    def test_parse_render_and_crash_only_signature(self, bug_id, failure,
                                                   log, history):
        artifact = CrashArtifact(
            bug_id=bug_id,
            crash_text=render_crash_report(
                CrashReport(failure=failure, kernel_log=log)),
            ftrace_text=render_ftrace(history))
        assert CrashArtifact.parse(artifact.render()) == artifact
        report = artifact.to_report()
        assert render_ftrace(report.history) == artifact.ftrace_text
        # Intake fingerprints the crash section alone; the worker's full
        # parse must land on the same signature.
        assert (signature_of(parse_crash_report(artifact.crash_text))
                == signature_of(report.crash))
