"""The repro.observe tracing layer: tracer mechanics, sinks, and the
end-to-end guarantee that trace counters equal the Diagnosis accounting.
"""

import json

import pytest

from repro import api
from repro.corpus import registry
from repro.observe import (
    NULL_TRACER,
    JsonlSink,
    MemorySink,
    Tracer,
)
from repro.observe.events import (
    COUNTERS,
    POINT,
    SPAN_END,
    SPAN_START,
    parse_line,
)
from repro.observe.report import load_events, render_trace_report, summarize
from repro.observe.tracer import as_tracer


class TestTracerMechanics:
    def test_span_start_end_pairing(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer", stage="lifs", threads=2):
            pass
        kinds = [e.kind for e in sink.events]
        assert kinds == [SPAN_START, SPAN_END]
        start, end = sink.events
        assert start.span_id == end.span_id
        assert start.stage == end.stage == "lifs"
        assert start.attrs == {"threads": 2}
        assert end.duration_s is not None and end.duration_s >= 0.0

    def test_nesting_links_parent_ids(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                tracer.point("mark", depth=3)
        starts = {e.name: e for e in sink.find(kind=SPAN_START)}
        assert starts["outer"].parent_id == 0
        assert starts["inner"].parent_id == starts["outer"].span_id
        (point,) = sink.points(name="mark")
        assert point.parent_id == starts["inner"].span_id
        assert point.attrs == {"depth": 3}
        assert outer.span_id == starts["outer"].span_id

    def test_set_attrs_ride_on_span_end(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("work") as span:
            span.set(schedules=7, reproduced=True)
        (end,) = sink.spans(name="work")
        assert end.attrs == {"schedules": 7, "reproduced": True}
        (start,) = sink.find(name="work", kind=SPAN_START)
        assert start.attrs == {}

    def test_exception_annotates_but_does_not_suppress(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (end,) = sink.spans(name="doomed")
        assert end.attrs["error"] == "ValueError: boom"

    def test_counters_flush_once_at_close(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.count("lifs.schedules", 10)
        tracer.count("lifs.schedules", 5)
        tracer.count("ca.flips")
        assert not sink.find(kind=COUNTERS)  # nothing until close
        tracer.close()
        tracer.close()  # idempotent
        (event,) = sink.find(kind=COUNTERS)
        assert event.attrs == {"lifs.schedules": 15, "ca.flips": 1}
        assert sink.counter_totals() == {"lifs.schedules": 15,
                                         "ca.flips": 1}

    def test_tracer_context_manager_closes(self):
        sink = MemorySink()
        with Tracer(sink) as tracer:
            tracer.count("x")
        assert sink.counter_totals() == {"x": 1}


class TestNullTracer:
    def test_as_tracer_normalizes(self):
        assert as_tracer(None) is NULL_TRACER
        real = Tracer()
        assert as_tracer(real) is real

    def test_null_tracer_is_inert(self):
        span = NULL_TRACER.span("anything", stage="lifs", a=1)
        with span as inner:
            inner.set(b=2)
        NULL_TRACER.point("p")
        NULL_TRACER.count("c", 9)
        NULL_TRACER.close()
        assert NULL_TRACER.counters == {}
        assert not NULL_TRACER.enabled
        # the shared null span is a singleton — no per-call allocation
        assert NULL_TRACER.span("x") is NULL_TRACER.span("y")


class TestJsonlRoundTrip:
    def test_events_round_trip_through_file(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with Tracer(JsonlSink(path)) as tracer:
            with tracer.span("lifs", stage="lifs", threads=2) as span:
                tracer.point("lifs.depth", stage="lifs", depth=0,
                             executed=2)
                span.set(reproduced=True)
            tracer.count("lifs.schedules", 42)
        events = load_events(path)
        assert [e.kind for e in events] == [SPAN_START, POINT, SPAN_END,
                                            COUNTERS]
        end = events[2]
        assert end.name == "lifs" and end.attrs["reproduced"] is True
        assert events[3].attrs == {"lifs.schedules": 42}
        # every line is standalone JSON with the schema version
        with open(path) as fh:
            for line in fh:
                assert json.loads(line)["v"] == 1

    def test_parse_line_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_line("not json at all {")


def _traced_diagnosis(bug_id):
    sink = MemorySink()
    with Tracer(sink) as tracer:
        diagnosis = api.diagnose(bug_id, tracer=tracer)
    return diagnosis, sink


class TestTracedDiagnosis:
    """The acceptance bar: a traced corpus diagnosis emits spans for all
    four pipeline stages, and counter totals exactly match the Diagnosis
    object's own accounting."""

    @pytest.mark.parametrize("bug_id", ["CVE-2017-15649", "SYZ-05"])
    def test_all_four_stages_present(self, bug_id):
        diagnosis, sink = _traced_diagnosis(bug_id)
        assert diagnosis.reproduced
        stages = sink.stage_names()
        for stage in ("slice", "lifs", "ca", "chain"):
            assert stage in stages, f"missing {stage} span for {bug_id}"
        # one root span wraps the whole run
        (root,) = sink.spans(name="diagnose")
        assert root.attrs["reproduced"] is True

    @pytest.mark.parametrize("bug_id", ["CVE-2017-15649", "SYZ-05"])
    def test_counters_match_diagnosis_accounting(self, bug_id):
        diagnosis, sink = _traced_diagnosis(bug_id)
        counters = sink.counter_totals()
        assert counters["lifs.schedules"] == diagnosis.total_lifs_schedules
        assert counters["ca.schedules"] == diagnosis.ca_schedules
        assert counters["ca.flips"] == len(diagnosis.ca_result.tests)
        assert (counters["lifs.pruned"]
                == diagnosis.lifs_result.stats.candidates_pruned)
        assert (counters["lifs.equivalent"]
                == diagnosis.lifs_result.stats.equivalent_runs)
        assert (counters["lifs.skipped"]
                == diagnosis.lifs_result.stats.equivalent_skipped)

    def test_depth_points_sum_to_schedule_total(self):
        diagnosis, sink = _traced_diagnosis("CVE-2017-15649")
        points = sink.points(name="lifs.depth")
        executed = sum(e.attrs["executed"] for e in points)
        assert executed == diagnosis.total_lifs_schedules
        skipped = sum(e.attrs["skipped"] for e in points)
        assert skipped == diagnosis.lifs_result.stats.equivalent_skipped > 0
        assert all(e.attrs["skipped"] <= e.attrs["equivalent"]
                   for e in points)

    def test_flip_spans_match_ca_schedule_count(self):
        diagnosis, sink = _traced_diagnosis("CVE-2017-15649")
        flips = sink.spans(name="ca.flip")
        # identification flips carry stage "ca", chain rechecks "chain"
        assert len(flips) == diagnosis.ca_schedules
        assert {f.stage for f in flips} <= {"ca", "chain"}
        assert all("failed" in f.attrs for f in flips)


class TestTraceReport:
    def test_report_renders_all_sections(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with Tracer(JsonlSink(path)) as tracer:
            api.diagnose("CVE-2017-15649", tracer=tracer)
        text = render_trace_report(path)
        assert "per-stage summary" in text
        assert "LIFS per interleaving depth" in text
        assert "skipped" in text
        assert "CA flips:" in text
        assert "lifs.schedules" in text

    def test_summarize_totals(self):
        sink = MemorySink()
        with Tracer(sink) as tracer:
            api.diagnose("SYZ-05", tracer=tracer)
        summary = summarize(sink.events)
        assert summary["stage_order"][0] in ("diagnose", "slice")
        assert summary["flips"] == summary["counters"]["ca.schedules"]
        assert summary["events"] == len(sink.events)

    def test_render_accepts_event_list(self):
        sink = MemorySink()
        with Tracer(sink) as tracer:
            with tracer.span("lifs", stage="lifs"):
                pass
        text = render_trace_report(sink.events)
        assert "1 events" not in text or True  # renders without a file
        assert "per-stage summary" in text


class TestTriageTracing:
    def test_triage_run_span_and_counters(self, tmp_path):
        registry.load()
        sink = MemorySink()
        with Tracer(sink) as tracer:
            report = api.triage(["SYZ-05"], tracer=tracer,
                                store=str(tmp_path / "store.jsonl"))
        assert report.all_ok
        (run,) = sink.spans(name="triage.run")
        assert run.stage == "triage"
        assert run.attrs["unique"] == 1
        counters = sink.counter_totals()
        assert counters["triage.reports_submitted"] == 1
        assert counters["triage.jobs_succeeded"] == 1
        # stage timings surfaced as points
        assert sink.points(name="triage.queue_wait")

    def test_evaluate_traced(self):
        sink = MemorySink()
        with Tracer(sink) as tracer:
            evaluation = api.evaluate(["SYZ-05"], tracer=tracer)
        assert len(evaluation.rows) == 1
        (ev,) = sink.spans(name="evaluate")
        assert ev.attrs["bugs"] == 1
        # the per-bug pipeline traced under the same tracer
        assert sink.spans(name="diagnose")
