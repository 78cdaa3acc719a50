"""End-to-end diagnosis benchmark: wall time of whole diagnoses, by layer.

One command runs a workload in fresh subprocesses and prints every
metric as ``name value unit``; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``::

    python3 benchmarks/e2e/run.py --workload corpus-static --seed 1
    python3 benchmarks/e2e/run.py --workload triage-reports --trace 1
    python3 benchmarks/e2e/run.py --smoke            # ~1 s per workload
    python3 benchmarks/e2e/run.py --runs 10 --record set-1
    python3 benchmarks/e2e/run.py --regen-expected   # rebuild the oracle

Workloads, metrics and bounds are listed in the repository's
``BENCHMARK.json`` and explained in ``README.md`` beside this file.
Untraced runs (the default) report the end-to-end metrics and leave the
program unmodified; ``--trace 1`` wraps each layer's entry points
(``spans.py``) and reports the per-layer metrics instead.

Set-up time is measured from spawning the workload process to its
``READY`` line, ``SETUP_PROBES`` extra times in probe processes that
exit there, and reported as the median.  Inputs are generated from
``--seed`` before any of that (``gen_s``, not gated).  Scratch data goes
to ``out/`` (git-ignored); only ``--record`` writes ``results/``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 2
#: Workloads whose inputs (crash artifacts) are generated up front.
GENERATED = ("triage-reports", "serve-mixed")
RUN_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def workloads_cmd(*args: str) -> list:
    return [sys.executable, os.path.join(HERE, "workloads.py"), *args]


def _spawn_until_ready(cmd: list, env: dict):
    """Start a workload process; return (seconds to READY, process)."""
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    while True:
        line = proc.stdout.readline()
        if not line:
            proc.wait()
            raise BenchError(f"{' '.join(cmd[2:5])}: exited "
                             f"{proc.returncode} before READY")
        if line.strip() == "READY":
            return time.monotonic() - started, proc


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process timed out")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """One full run: generate, probe set-up, measure.  Returns the
    workload process's result plus ``setup_s`` samples and ``gen_s``."""
    env = child_env()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = os.path.join(OUT, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", name, "--seed", str(seed), "--dir", work]
    common += ["--smoke"] if smoke else []
    try:
        gen_s = 0.0
        if name in GENERATED:
            started = time.monotonic()
            subprocess.run(workloads_cmd("gen", *common), env=env,
                           check=True, timeout=RUN_TIMEOUT_S)
            gen_s = time.monotonic() - started
        run = ["run", *common, "--seconds", repr(seconds)]
        run += ["--trace"] if trace else []
        setups = []
        for _ in range(0 if smoke or trace else SETUP_PROBES):
            setup, proc = _spawn_until_ready(workloads_cmd(*run, "--probe"),
                                             env)
            _finish(proc, deadline)
            setups.append(setup)
        setup, proc = _spawn_until_ready(workloads_cmd(*run), env)
        setups.append(setup)
        lines = [line for line in _finish(proc, deadline).splitlines()
                 if line.startswith("RESULT ")]
        if not lines:
            raise BenchError("workload process printed no RESULT")
        result = json.loads(lines[-1][len("RESULT "):])
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as exc:
        raise BenchError(f"input generation failed: {exc}") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_samples"] = setups
    result["extra"]["gen_s"] = [gen_s, "s"]
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def report(result: dict, trace: bool) -> dict:
    """The result line's object: every metric BENCHMARK.json lists for
    this kind of run, with its unit."""
    spec = load_benchmark()["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in spec if m["name"] not in result["metrics"]]
    if missing:
        raise BenchError(f"metrics not produced: {', '.join(missing)}")
    return {"correct": result["failed"] == 0 and result["attempted"] > 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {m["name"]: {"value": result["metrics"][m["name"]],
                                    "unit": m["unit"]} for m in spec}}


def print_result(name: str, seed: int, result: dict, final: dict) -> None:
    units = {m["name"]: m["unit"] for m in load_benchmark()["end_to_end"]}
    print(f"# {name} seed={seed} attempted={final['attempted']} "
          f"failed={final['failed']}")
    for metric, entry in final["metrics"].items():
        print(f"{metric} {entry['value']!r} {entry['unit']}")
    for metric, (value, unit) in sorted(result["extra"].items()):
        unit = unit or units.get(metric.partition("traced.")[2], "-")
        print(f"{metric} {value!r} {unit}")
    print(json.dumps(final), flush=True)


def spread(values: list) -> dict:
    """Median, quartiles and the quartile distance as a share of the
    median: the steadiness each bound in BENCHMARK.json is set against."""
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
            "values": values}


def program_identity() -> dict:
    """The commit (when run from a git checkout) and a digest of the
    program sources measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def repeat(names, args) -> bool:
    """``--runs N``: N seeds per workload; print each metric's spread."""
    bench = load_benchmark()
    spec = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in spec}
    record = {"label": args.record, **program_identity(),
              "date": datetime.datetime.now().isoformat(timespec="seconds"),
              "seconds": args.seconds, "trace": bool(args.trace),
              "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for i in range(args.runs):
            started = time.monotonic()
            result = run_workload(name, args.seed + i, args.seconds,
                                  args.trace, args.smoke)
            wall = time.monotonic() - started
            final = report(result, args.trace)
            ok &= final["correct"]
            runs.append({"seed": args.seed + i, **final, "wall_s": wall,
                         "setup_samples": result["setup_samples"],
                         "extra": result["extra"]})
            print(f"# {name} seed={args.seed + i}: {wall:.1f} s",
                  file=sys.stderr, flush=True)
        summary = {metric: spread([r["metrics"][metric]["value"]
                                   for r in runs])
                   for metric in bounds}
        for metric, stats in summary.items():
            bound = bounds[metric]
            note = "" if bound is None else (
                f" bound={bound:.0%} " + ("ok" if metric == "setup_s"
                                          or stats["spread"] < bound / 3
                                          else "WIDE"))
            print(f"{name} {metric} median={stats['median']!r} "
                  f"spread={stats['spread']:.1%}{note}")
        record["workloads"][name] = {"summary": summary, "runs": runs}
    if args.record:
        os.makedirs(RESULTS, exist_ok=True)
        with open(os.path.join(RESULTS, f"{args.record}.json"), "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        line = {key: record[key] for key in ("label", "commit",
                                             "src_sha256", "date", "trace")}
        line["medians"] = {name: {metric: stats["median"] for metric, stats
                                  in entry["summary"].items()}
                           for name, entry in record["workloads"].items()}
        with open(os.path.join(RESULTS, "trajectory.jsonl"), "a") as fh:
            fh.write(json.dumps(line) + "\n")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end diagnosis benchmark (see README.md).")
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: "
                             "run_seconds of BENCHMARK.json; 1 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, 1 s, no set-up probes")
    parser.add_argument("--runs", type=int, default=0, metavar="N",
                        help="N runs per workload on seeds SEED..SEED+N-1, "
                             "with each metric's spread")
    parser.add_argument("--record", metavar="LABEL",
                        help="with --runs: write results/LABEL.json and "
                             "append results/trajectory.jsonl")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rebuild expected.json (reference config)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"run.py: program sources not found under {ROOT}/src",
              file=sys.stderr)
        return 2
    if args.record and (args.smoke or not args.runs):
        parser.error("--record needs --runs and a full (non-smoke) run")
    if args.regen_expected:
        return subprocess.run(workloads_cmd("regen"), env=child_env()).returncode
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(names)}")
        names = [args.workload]
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(bench["run_seconds"])
    try:
        if args.runs:
            return 0 if repeat(names, args) else 1
        ok = True
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  args.smoke)
            final = report(result, args.trace)
            ok &= final["correct"]
            print_result(name, args.seed, result, final)
        return 0 if ok else 1
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
