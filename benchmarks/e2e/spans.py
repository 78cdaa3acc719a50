"""Benchmark-side span recorder, layer wrappers and self-time reduction.

The traced run of the e2e benchmark (``run.py --trace 1``) measures where
a diagnosis spends its time without adding a timer to the program: the
benchmark wraps the public entry points of each layer (:data:`TARGETS`),
keeps every span in memory, writes the spans out when the run (or a
forked worker's job) ends, and reduces them to per-layer *self* times —
a span's duration minus the part of it that its child spans cover.

The untraced run never installs a wrapper: :class:`Instrumentation`
patches attributes only inside its ``with`` block and restores the
original objects on exit.

Counts come from the program's own :class:`repro.observe.Tracer`
counters: the wrapper around ``Aitia.diagnose`` hands every diagnosis
that runs without a tracer (corpus loops, triage workers, the daemon's
drain thread) one sink-less per-process tracer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: ``(module, attribute path, span name)``: one wrapped entry point per
#: row.  Several rows may share a span name (the engine's two entry
#: points, the two import sites of ``snapshot_machine``).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.diagnose", "Aitia.diagnose", "core.diagnose"),
    ("repro.core.lifs", "LeastInterleavingFirstSearch.search", "core.lifs"),
    ("repro.core.causality", "CausalityAnalysis.analyze", "core.ca"),
    ("repro.core.lifs", "find_data_races", "core.races"),
    ("repro.core.happens_before", "find_data_races_hb", "core.hb"),
    ("repro.core.causality", "build_chain", "core.chain"),
    ("repro.engine.engine", "ScheduleExecutionEngine.shape_plan",
     "policy.shape"),
    ("repro.engine.engine", "ScheduleExecutionEngine.run", "engine"),
    ("repro.engine.engine", "ScheduleExecutionEngine.run_plan", "engine"),
    ("repro.hypervisor.controller", "ScheduleController.run",
     "hypervisor.run"),
    ("repro.hypervisor.controller", "snapshot_machine", "snapshot.capture"),
    ("repro.hypervisor.snapshot", "snapshot_machine", "snapshot.capture"),
    ("repro.hypervisor.controller", "restore_machine", "snapshot.restore"),
    ("repro.service.artifacts", "CrashArtifact.to_report", "trace.parse"),
    ("repro.trace.slicer", "Slicer.slices", "trace.slice"),
    ("repro.service.triage", "TriageService.submit_artifact",
     "service.intake"),
    ("repro.service.triage", "signature_of", "service.signature"),
    ("repro.service.store", "ResultStore.get", "service.store_get"),
    ("repro.service.store", "ResultStore.put", "service.store_put"),
    ("repro.service.triage", "diagnose_job", "service.job"),
)

#: Span (name, start_ns, end_ns) plus identity: ``(id, parent, name,
#: start, end)``; ids are unique per process.
Span = Tuple[int, int, str, int, int]


class SpanRecorder:
    """In-memory spans with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> Tuple[int, int, str, int]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent, name, time.perf_counter_ns()

    def exit(self, token: Tuple[int, int, str, int]) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] == token[0]:
            stack.pop()
        elif token[0] in stack:
            stack.remove(token[0])
        self.spans.append((*token, end))

    @contextmanager
    def span(self, name: str):
        token = self.enter(name)
        try:
            yield
        finally:
            self.exit(token)

    def drain(self) -> List[Span]:
        """Hand over the recorded spans and start an empty buffer."""
        spans, self.spans = self.spans, []
        return spans

    def forget(self) -> None:
        """Drop every span and open stack (a forked child's inheritance)."""
        self.spans = []
        self._local = threading.local()


def union_ns(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, Tuple[str, int]]:
    """``span id -> (name, self ns)`` for one process's spans."""
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        if parent:
            children[parent].append((start, end))
    return {span_id: (name, end - start
                      - union_ns(children.get(span_id, ()), start, end))
            for span_id, _, name, start, end in spans}


def wrap(recorder: SpanRecorder, name: str, fn: Callable,
         before: Optional[Callable] = None,
         after: Optional[Callable] = None) -> Callable:
    """``fn`` inside a span; ``before(args)`` / ``after(result)`` hooks."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        token = recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(token)
        if after is not None:
            after(result)
        return result
    return wrapper


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Instrumentation:
    """Install span wrappers on :data:`TARGETS`; restore them on exit.

    ``hooks`` maps a span name to ``(before, after)`` callables passed to
    :func:`wrap`.
    """

    def __init__(self, recorder: SpanRecorder,
                 hooks: Optional[Dict[str, Tuple]] = None) -> None:
        self.recorder = recorder
        self.hooks = hooks or {}
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        for module, path, name in TARGETS:
            owner, attr = _owner(module, path)
            original = (vars(owner)[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            before, after = self.hooks.get(name, (None, None))
            self._saved.append((owner, attr, original))
            setattr(owner, attr,
                    wrap(self.recorder, name, original, before, after))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracing:
    """One process's traced-run state: spans, counters, diagnosis facts.

    :meth:`flush` appends everything recorded since the last flush to
    ``<directory>/spans-<pid>.jsonl``; :func:`collect` merges the files
    of every process of a run.
    """

    def __init__(self, directory: str) -> None:
        from repro.observe.tracer import Tracer

        self.directory = directory
        self.recorder = SpanRecorder()
        self.tracer = Tracer()  # sink-less: aggregates the counters
        self.diag: Dict[str, float] = defaultdict(float)
        os.makedirs(directory, exist_ok=True)
        os.register_at_fork(after_in_child=self.forget)

    def forget(self) -> None:
        self.recorder.forget()
        self.tracer.counters.clear()
        self.diag.clear()

    def _give_tracer(self, args) -> None:
        aitia = args[0]
        if not aitia.tracer.enabled:
            aitia.tracer = self.tracer

    def _note_diagnosis(self, diagnosis) -> None:
        self.diag["slices_tried"] += diagnosis.slices_tried
        self.diag["rejected_schedules"] += diagnosis.rejected_slice_schedules
        if diagnosis.reproduced:
            self.diag["sim_lifs_s"] += diagnosis.lifs_cost.seconds
            self.diag["sim_ca_s"] += diagnosis.ca_cost.seconds

    def instrument(self) -> Instrumentation:
        return Instrumentation(self.recorder, hooks={
            "core.diagnose": (self._give_tracer, self._note_diagnosis),
            # Forked triage workers leave through os._exit: hand the
            # spans over after every job.
            "service.job": (None, lambda _result: self.flush()),
        })

    def flush(self) -> None:
        counters = dict(self.tracer.counters)
        self.tracer.counters.clear()
        diag = dict(self.diag)
        self.diag.clear()
        record = {"pid": os.getpid(), "spans": self.recorder.drain(),
                  "counters": counters, "diag": diag}
        path = os.path.join(self.directory, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(record) + "\n")


def collect(directory: str) -> dict:
    """Merge every flushed record under ``directory``.

    Returns ``{"self_ns": {name: ns}, "calls": {name: n}, "counters":
    {...}, "diag": {...}, "spans": n, "busy_ns": ns}`` where ``busy_ns``
    sums the root spans' durations.
    """
    by_pid: Dict[int, List[Span]] = defaultdict(list)
    counters: Dict[str, int] = defaultdict(int)
    diag: Dict[str, float] = defaultdict(float)
    for entry in sorted(os.listdir(directory)):
        if not entry.startswith("spans-"):
            continue
        with open(os.path.join(directory, entry)) as fh:
            for line in fh:
                record = json.loads(line)
                by_pid[record["pid"]].extend(
                    tuple(span) for span in record["spans"])
                for key, value in record["counters"].items():
                    counters[key] += value
                for key, value in record["diag"].items():
                    diag[key] += value
    self_ns: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    busy_ns = spans = 0
    for pid_spans in by_pid.values():
        for name, own in self_times(pid_spans).values():
            self_ns[name] += own
            calls[name] += 1
        ids = {span[0] for span in pid_spans}
        busy_ns += sum(end - start for _, parent, _, start, end in pid_spans
                       if parent not in ids)
        spans += len(pid_spans)
    return {"self_ns": dict(self_ns), "calls": dict(calls),
            "counters": dict(counters), "diag": dict(diag),
            "spans": spans, "busy_ns": busy_ns}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(directory: str):
    """Reduce a traced run's records to ``(metrics, extra)``.

    ``metrics`` holds the per-layer metrics every workload reports (see
    README.md); ``extra`` (``name -> [value, unit]``) holds the layer
    times that only some workloads exercise — trace parsing and
    slicing, service intake and store — and bookkeeping.
    """
    run = collect(directory)

    def own(name: str) -> float:
        return run["self_ns"].get(name, 0) / 1e9

    def count(name: str) -> float:
        return run["counters"].get(name, 0)

    steps = count("lifs.interpreted_steps") + count("ca.interpreted_steps")
    hits = count("snapshot.hits") + count("ca.snapshot_hits")
    misses = count("snapshot.misses") + count("ca.snapshot_misses")
    pruned, ca_schedules = count("policy.pruned"), count("ca.schedules")
    cost = span_cost_ns()
    metrics = {
        "core.lifs.self_s": own("core.lifs"),
        "core.ca.self_s": own("core.ca"),
        "core.races_s": own("core.races"),
        "core.chain_s": own("core.chain"),
        "core.lifs.schedules": count("lifs.schedules"),
        "core.ca.schedules": ca_schedules,
        "core.ca.useful_ratio": _ratio(count("ca.root_cause_units"),
                                       count("ca.flips")),
        "policy.shape_s": own("policy.shape"),
        "policy.pruned": pruned,
        "policy.ranked": count("policy.ranked"),
        "policy.experience_hits": count("policy.experience_hits"),
        "policy.prune_ratio": _ratio(pruned, pruned + ca_schedules),
        "engine.self_s": own("engine"),
        "engine.requests": count("engine.requests"),
        "engine.plans": count("engine.plans"),
        "hypervisor.run_s": own("hypervisor.run"),
        "hypervisor.runs": count("hv.runs"),
        "kernel.steps": steps,
        "kernel.steps_per_s": _ratio(steps, own("hypervisor.run")),
        "snapshot.capture_s": own("snapshot.capture"),
        "snapshot.captures": run["calls"].get("snapshot.capture", 0),
        "snapshot.restore_s": own("snapshot.restore"),
        "snapshot.restores": run["calls"].get("snapshot.restore", 0),
        "snapshot.hit_ratio": _ratio(hits, hits + misses),
        "snapshot.saved_steps": (count("snapshot.saved_steps")
                                 + count("ca.snapshot_saved_steps")),
        "trace.slices_tried": run["diag"].get("slices_tried", 0),
        "trace.rejected_schedules": run["diag"].get("rejected_schedules", 0),
        # The recorder's own share of the traced busy time, from its
        # calibrated per-span cost; the full tracing overhead (wrappers
        # plus the program's enabled Tracer) is the traced run's e2e
        # numbers against the untraced run's.
        "observe.recorder_pct": 100 * _ratio(run["spans"] * cost,
                                             run["busy_ns"]),
    }
    extra = {f"{name}_s": [own(name), "s"] for name in (
        "core.hb", "trace.parse", "trace.slice", "service.intake",
        "service.signature", "service.store_get", "service.store_put")}
    extra.update({
        "core.diagnose.self_s": [own("core.diagnose"), "s"],
        "service.job.self_s": [own("service.job"), "s"],
        "harness.op.self_s": [own("harness.op"), "s"],
        "analysis.sim_lifs_s": [run["diag"].get("sim_lifs_s", 0.0), "s"],
        "analysis.sim_ca_s": [run["diag"].get("sim_ca_s", 0.0), "s"],
        "observe.spans": [run["spans"], "count"],
        "observe.span_cost_ns": [cost, "ns"],
    })
    return metrics, extra


def span_cost_ns(rounds: int = 20000) -> float:
    """Measured cost of one recorded span (wrapper call minus bare call)."""
    recorder = SpanRecorder()

    def bare():
        return None

    wrapped = wrap(recorder, "calibrate", bare)
    start = time.perf_counter_ns()
    for _ in range(rounds):
        bare()
    mid = time.perf_counter_ns()
    for _ in range(rounds):
        wrapped()
    end = time.perf_counter_ns()
    return max(0.0, ((end - mid) - (mid - start)) / rounds)
