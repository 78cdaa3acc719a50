"""``run.py --smoke``: every workload, untraced and traced, end to end.

Each smoke run takes about a second plus start-up; the whole module a
few tens of seconds.  Run with
``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def smoke(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke", "--workload", workload,
         "--seed", "7", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split(" ")
        if len(parts) == 3 and not line.startswith("#"):
            printed[parts[0]] = (float(parts[1]), parts[2])
    return printed, json.loads(lines[-1])


def check(spec, printed, final):
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    assert isinstance(final["attempted"], int) and final["attempted"] >= 1
    assert list(final["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        value, unit = printed[metric["name"]]
        assert unit == metric["unit"]
        assert final["metrics"][metric["name"]] == {"value": value,
                                                    "unit": unit}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_prints_every_end_to_end_metric(workload):
    printed, final = smoke(workload, 0)
    check(BENCHMARK["end_to_end"], printed, final)
    for metric in BENCHMARK["end_to_end"]:
        assert final["metrics"][metric["name"]]["value"] > 0, metric


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_prints_every_per_layer_metric(workload):
    printed, final = smoke(workload, 1)
    check(BENCHMARK["per_layer"], printed, final)
    # Spans arrive from every process that diagnoses: the workload
    # process, forked triage workers, the daemon's drain thread.
    for metric in ("core.lifs.self_s", "hypervisor.run_s",
                   "snapshot.restore_s", "kernel.steps"):
        assert final["metrics"][metric]["value"] > 0, metric


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_is_well_formed():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 2 <= len(WORKLOADS) <= 8 and 1 <= BENCHMARK["run_seconds"] <= 60
    names = WORKLOADS + [m["name"] for m in BENCHMARK["end_to_end"]
                         + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in BENCHMARK["end_to_end"])}]
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"])
