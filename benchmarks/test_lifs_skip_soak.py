"""Soak for the LIFS skip of equivalent candidates: 300 random programs.

LIFS skips a candidate that undoes its base's last preemption, charging
it as the base's parent run.  This runs the checking mode of
``tests/lifs_skip_check.py`` over 300 seeded random programs, each
searched to depth 4 with snapshots on and off: every skipped candidate
is also executed on a fresh boot and must have its parent run's
signature, steps and outcome.  Totals land in
``benchmarks/output/lifs_skip_soak.txt``.  Tier-1 runs the same check
over the first 20 seeds.  Like ``test_snapshot_speedup.py`` it needs
only pytest, so CI runs it directly (under a minute).
"""

import os
import sys

from conftest import emit

from repro.analysis.tables import Table

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "tests"))
from lifs_skip_check import check_skips, search_random_program  # noqa: E402

SEEDS = 300


def test_lifs_skip_soak(monkeypatch):
    checked = check_skips(monkeypatch)
    table = Table(f"LIFS skip soak — {SEEDS} random programs, checking mode",
                  ["snapshots", "searches", "executed", "equivalent",
                   "skipped"])
    skipped = 0
    for snapshots in (True, False):
        executed = equivalent = skipped_here = 0
        for seed in range(SEEDS):
            stats = search_random_program(seed,
                                          use_snapshots=snapshots).stats
            executed += stats.schedules_executed
            equivalent += stats.equivalent_runs
            skipped_here += stats.equivalent_skipped
        table.add_row("on" if snapshots else "off", SEEDS, executed,
                      equivalent, skipped_here)
        skipped += skipped_here
    emit("lifs_skip_soak", table.render())
    assert len(checked) == skipped > 0
