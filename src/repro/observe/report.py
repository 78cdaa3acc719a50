"""Offline trace analysis: ``repro trace-report <trace.jsonl>``.

Reads the JSONL event stream a traced run wrote (:class:`JsonlSink`) and
renders the per-stage summary: span counts and durations per pipeline
stage, the LIFS per-depth schedule/prune/equivalence breakdown (with the
equivalent schedules skipped before they ran), the
Causality Analysis flip ledger, and the aggregated counter totals.
Counters from several ``counters`` events (e.g. a merged multi-run
trace file) are summed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Union

from repro.observe.events import (
    COUNTERS,
    POINT,
    SPAN_END,
    TraceEvent,
    parse_line,
)


def load_events(path: str) -> List[TraceEvent]:
    """Parse a JSONL trace file; blank lines are skipped.

    A line that is not a trace event — a run killed mid-write leaves a
    torn last line — raises ``ValueError`` naming the file and line.
    """
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(parse_line(line))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{number}: not a trace event ({exc})") from exc
    return events


def summarize(events: Sequence[TraceEvent]) -> dict:
    """Aggregate an event stream into the report's raw numbers."""
    stages: Dict[str, dict] = {}
    order: List[str] = []
    for event in events:
        if event.kind != SPAN_END or not event.stage:
            continue
        if event.stage not in stages:
            stages[event.stage] = {"spans": 0, "seconds": 0.0}
            order.append(event.stage)
        bucket = stages[event.stage]
        bucket["spans"] += 1
        bucket["seconds"] += event.duration_s or 0.0

    depths: Dict[int, dict] = {}
    for event in events:
        if event.name == "lifs.depth":
            depth = int(event.attrs.get("depth", 0))
            bucket = depths.setdefault(
                depth, {"executed": 0, "pruned": 0, "equivalent": 0,
                        "skipped": 0})
            for key in bucket:
                bucket[key] += int(event.attrs.get(key, 0))

    flips = [e for e in events
             if e.kind == SPAN_END and e.name == "ca.flip"]
    flips_failed = sum(1 for e in flips if e.attrs.get("failed"))

    plans: Dict[str, dict] = {}
    plan_order: List[str] = []
    for event in events:
        if event.kind != POINT or event.name != "engine.plan":
            continue
        phase = str(event.attrs.get("phase", "")) or "?"
        if phase not in plans:
            plans[phase] = {"plans": 0, "requests": 0, "backends": {}}
            plan_order.append(phase)
        bucket = plans[phase]
        bucket["plans"] += 1
        bucket["requests"] += int(event.attrs.get("requests", 0))
        backend = str(event.attrs.get("backend", "?"))
        bucket["backends"][backend] = bucket["backends"].get(backend, 0) + 1

    counters: Dict[str, int] = {}
    for event in events:
        if event.kind == COUNTERS:
            for name, value in event.attrs.items():
                counters[name] = counters.get(name, 0) + int(value)

    wall = max((e.ts for e in events), default=0.0)
    return {
        "events": len(events),
        "wall_s": wall,
        "stage_order": order,
        "stages": stages,
        "lifs_depths": depths,
        "flips": len(flips),
        "flips_failed": flips_failed,
        "engine_plans": plans,
        "engine_plan_order": plan_order,
        "counters": counters,
    }


def render_trace_report(
        source: Union[str, Iterable[TraceEvent]]) -> str:
    """Render the human-readable summary of a trace file or event list."""
    from repro.analysis.tables import Table

    if isinstance(source, str):
        title = source
        events: Sequence[TraceEvent] = load_events(source)
    else:
        title = "<events>"
        events = list(source)
    summary = summarize(events)

    lines = [f"=== trace report: {title} ===",
             f"{summary['events']} events over "
             f"{summary['wall_s']:.3f}s"]

    if summary["stages"]:
        table = Table("per-stage summary", ["stage", "spans", "total_s"])
        for stage in summary["stage_order"]:
            bucket = summary["stages"][stage]
            table.add_row(stage, bucket["spans"],
                          f"{bucket['seconds']:.4f}")
        lines += ["", table.render()]

    if summary["lifs_depths"]:
        table = Table("LIFS per interleaving depth",
                      ["depth", "executed", "pruned", "equivalent",
                       "skipped"])
        for depth in sorted(summary["lifs_depths"]):
            bucket = summary["lifs_depths"][depth]
            table.add_row(depth, bucket["executed"], bucket["pruned"],
                          bucket["equivalent"], bucket["skipped"])
        lines += ["", table.render()]

    counters = summary["counters"]
    if counters.get("engine.requests"):
        lines += ["", "execution engine: "
                      f"{counters.get('engine.requests', 0)} requests over "
                      f"{counters.get('engine.plans', 0)} plans"]
        for phase in summary["engine_plan_order"]:
            bucket = summary["engine_plans"][phase]
            served = ", ".join(f"{backend} x{count}" for backend, count
                               in sorted(bucket["backends"].items()))
            lines += [f"  {phase}: {bucket['requests']} requests in "
                      f"{bucket['plans']} plan(s) via {served}"]

    if counters.get("snapshot.hits") or counters.get("snapshot.misses"):
        hits = counters.get("snapshot.hits", 0)
        misses = counters.get("snapshot.misses", 0)
        lines += ["", "LIFS snapshot engine: "
                      f"{hits} resumed / {misses} fresh boots, "
                      f"{counters.get('snapshot.captured', 0)} checkpoints "
                      f"captured",
                  f"  steps: {counters.get('lifs.interpreted_steps', 0)} "
                  f"interpreted, {counters.get('snapshot.saved_steps', 0)} "
                  f"saved ({counters.get('snapshot.resumed_steps', 0)} "
                  f"resumed suffix)"]

    if counters.get("policy.ranked") or counters.get("policy.pruned"):
        lines += ["", "search policy: "
                      f"{counters.get('policy.ranked', 0)} candidate(s) "
                      f"ranked, {counters.get('policy.pruned', 0)} pruned "
                      f"by error invariants, "
                      f"{counters.get('policy.experience_hits', 0)} "
                      f"experience hit(s)"]

    if summary["flips"]:
        averted = summary["flips"] - summary["flips_failed"]
        lines += ["", f"CA flips: {summary['flips']} executed, "
                      f"{averted} averted the failure, "
                      f"{summary['flips_failed']} still failed"]
        if counters.get("ca.snapshot_hits") or \
                counters.get("ca.snapshot_misses"):
            lines += [f"CA snapshot engine: "
                      f"{counters.get('ca.snapshot_hits', 0)} resumed / "
                      f"{counters.get('ca.snapshot_misses', 0)} fresh boots; "
                      f"{counters.get('ca.interpreted_steps', 0)} steps "
                      f"interpreted, "
                      f"{counters.get('ca.snapshot_saved_steps', 0)} saved"]

    if summary["counters"]:
        width = max(len(name) for name in summary["counters"])
        lines += ["", "counters:"]
        for name in sorted(summary["counters"]):
            lines.append(f"  {name:<{width}}  {summary['counters'][name]}")

    return "\n".join(lines)
