"""Prefix-checkpoint engine speedup: snapshots on vs off over the corpus.

Runs the full diagnosis (LIFS + Causality Analysis) for every corpus bug
twice — once with the prefix-checkpoint engine (boot-checkpoint resume
and per-base prefix checkpoints) and once with the ``--no-snapshot``
ablation — and compares what the interpreter actually executed
(``interpreted_steps``).  Results land in
``benchmarks/output/bench_snapshot.json`` plus a rendered table.

Unlike the sibling benchmarks this one deliberately avoids the
pytest-benchmark fixture so CI (which installs only pytest + hypothesis)
can run it directly.  Its floors rest on deterministic step counts, not
timings, so CI runs it on the full corpus: the engine never interprets
more than the ablation, saves at least 31% of the steps (a 1.45x
ratio), and stays within 5% of its measured corpus step count.
"""

import json
import os
import time

from conftest import OUTPUT_DIR, emit

from repro.analysis.tables import Table
from repro.core.causality import CaConfig
from repro.core.diagnose import Aitia
from repro.core.lifs import LifsConfig
from repro.corpus import registry

#: Snapshot-on corpus interpreted steps: the measured 76,014 plus 5%.
STEPS_ON_CEILING = 79_814


def _diagnose(bug, snapshots):
    started = time.perf_counter()
    diagnosis = Aitia(bug,
                      lifs_config=LifsConfig(use_snapshots=snapshots),
                      ca_config=CaConfig(use_snapshots=snapshots)
                      ).diagnose()
    elapsed = time.perf_counter() - started
    lifs, ca = diagnosis.lifs_result.stats, diagnosis.ca_result.stats
    return diagnosis, {
        "schedules": lifs.schedules_executed + ca.schedules_executed,
        "steps_executed": lifs.interpreted_steps + ca.interpreted_steps,
        "saved_steps": lifs.saved_steps + ca.saved_steps,
        "elapsed_s": elapsed,
    }


def test_snapshot_speedup():
    registry.load()
    bugs = list(registry.all_bugs())

    rows = []
    table = Table(
        "Prefix-checkpoint engine: interpreted steps, snapshots on vs off",
        ["bug", "schedules", "steps on", "steps off", "ratio"])
    for bug in bugs:
        on_diag, on = _diagnose(bug, True)
        off_diag, off = _diagnose(bug, False)
        # The engine is a pure perf optimisation: identical diagnoses.
        assert on_diag.chain.render() == off_diag.chain.render(), bug.bug_id
        assert on["schedules"] == off["schedules"], bug.bug_id
        ratio = off["steps_executed"] / max(1, on["steps_executed"])
        table.add_row(bug.bug_id, on["schedules"], on["steps_executed"],
                      off["steps_executed"], f"{ratio:.2f}x")
        rows.append({"bug": bug.bug_id, "on": on, "off": off,
                     "ratio": round(ratio, 3)})

    total_on = sum(r["on"]["steps_executed"] for r in rows)
    total_off = sum(r["off"]["steps_executed"] for r in rows)
    elapsed_on = sum(r["on"]["elapsed_s"] for r in rows)
    elapsed_off = sum(r["off"]["elapsed_s"] for r in rows)
    schedules = sum(r["on"]["schedules"] for r in rows)
    ratio = total_off / max(1, total_on)
    table.add_row("TOTAL", schedules, total_on, total_off, f"{ratio:.2f}x")
    emit("bench_snapshot", table.render())

    payload = {
        "bugs": len(rows),
        "totals": {
            "schedules": schedules,
            "steps_executed_on": total_on,
            "steps_executed_off": total_off,
            "steps_ratio": round(ratio, 3),
            "schedules_per_sec_on": round(schedules / max(1e-9, elapsed_on),
                                          1),
            "schedules_per_sec_off": round(
                schedules / max(1e-9, elapsed_off), 1),
        },
        "per_bug": rows,
    }
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    with open(os.path.join(OUTPUT_DIR, "bench_snapshot.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    # The engine must never interpret *more* than a fresh-boot run...
    assert total_on <= total_off
    # ...and prefix resume measured 1.46x on the corpus (76,014 vs
    # 110,712 steps; 1.57x before LIFS skipped equivalent candidates,
    # whose resumed runs were cheaper than the average)...
    assert ratio >= 1.45, f"corpus steps ratio {ratio:.2f}x < 1.45x"
    # ...while a regression in the skip or the engine that interprets
    # more in both modes still trips this ceiling (76,014 steps + 5%).
    assert total_on <= STEPS_ON_CEILING, \
        f"corpus interpreted {total_on} steps > {STEPS_ON_CEILING}"
