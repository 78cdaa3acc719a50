"""Span recorder and self-time reducer of the e2e benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import pytest

import spans
import workloads


def test_union_merges_overlaps_and_clips_to_the_parent():
    assert spans.union_ns([(10, 40), (30, 60), (70, 80)], 0, 100) == 60
    assert spans.union_ns([(0, 50), (10, 20)], 0, 100) == 50
    assert spans.union_ns([(-10, 20), (90, 120)], 0, 100) == 30
    assert spans.union_ns([(5, 5), (200, 300)], 0, 100) == 0
    assert spans.union_ns([], 0, 100) == 0


def test_self_time_is_duration_minus_union_of_children():
    recorded = [
        (1, 0, "root", 0, 100),
        (2, 1, "a", 10, 40),
        (3, 1, "b", 30, 60),   # overlaps a: counted once
        (4, 1, "c", 70, 80),
        (5, 2, "a.inner", 15, 25),
    ]
    own = spans.self_times(recorded)
    assert own[1] == ("root", 100 - 60)
    assert own[2] == ("a", 30 - 10)
    assert own[3] == ("b", 30)
    assert own[5] == ("a.inner", 10)


def _resolve(module, path):
    owner, attr = spans._owner(module, path)
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner,
                                                                     attr)


def _originals():
    return {(module, path): _resolve(module, path)
            for module, path, _ in spans.TARGETS}


def test_every_target_resolves_to_a_function():
    for (module, path), original in _originals().items():
        assert callable(original), f"{module}.{path}"


def test_wrappers_restore_the_originals_on_exit():
    before = _originals()
    recorder = spans.SpanRecorder()
    with spans.Instrumentation(recorder):
        for key, original in before.items():
            assert _resolve(*key) is not original, key
    for key, original in before.items():
        assert _resolve(*key) is original, key


def test_wrappers_restore_the_originals_when_the_body_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.Instrumentation(spans.SpanRecorder()):
            raise RuntimeError("boom")
    assert _originals() == before
    assert all(_resolve(*key) is original for key, original in before.items())


def test_operation_self_times_sum_to_the_root_wall_time(tmp_path):
    from repro import api
    from repro.corpus import registry

    registry.load()
    tracing = spans.Tracing(str(tmp_path))
    with tracing.instrument():
        with tracing.recorder.span("harness.op"):
            api.diagnose(registry.get_bug("CVE-2017-2636"))
    recorded = tracing.recorder.drain()
    (root,) = [s for s in recorded if s[2] == "harness.op"]
    wall = root[4] - root[3]
    total = sum(own for _, own in spans.self_times(recorded).values())
    assert abs(total - wall) <= 0.01 * wall
    names = {s[2] for s in recorded}
    assert {"core.lifs", "core.ca", "engine", "hypervisor.run"} <= names
    assert tracing.tracer.counters["lifs.schedules"] > 0


def test_untraced_run_leaves_every_wrapped_attribute_untouched(
        tmp_path, capsys):
    before = _originals()
    workloads.main(["run", "--workload", "corpus-static", "--seed", "3",
                    "--seconds", "0.05", "--dir", str(tmp_path), "--smoke"])
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "READY"
    assert '"failed": 0' in out
    for key, original in before.items():
        assert _resolve(*key) is original, key
