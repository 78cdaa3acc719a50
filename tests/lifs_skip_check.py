"""Soundness harness for the LIFS skip of equivalent candidates.

* :func:`check_skips` is a test-only checking mode.  Every candidate
  LIFS skips is also executed on a fresh boot, and that run must have
  the signature, the steps and the outcome (no failure) of the parent run
  the skip charges it as — a run the search has already executed.
* :func:`random_program` generates small racy programs on
  :mod:`repro.kernel.builder` from a seed: two or three threads over
  shared cells with INC, loads and stores, a lock, race-steered
  branches, a published heap object with pointer loads and frees, and
  ``queue_work`` deferred work.  :func:`search_random_program` runs LIFS
  over one of them with a target no run can match, so the search
  explores every depth up to its bounds.

``tests/test_lifs_skip.py`` runs a bounded seed count in tier-1;
``benchmarks/test_lifs_skip_soak.py`` runs the wider soak.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, List, Tuple

from repro.core.lifs import (FailureMatcher, LeastInterleavingFirstSearch,
                             LifsConfig, LifsResult)
from repro.hypervisor.controller import ScheduleController
from repro.kernel.builder import FunctionBuilder, ProgramBuilder
from repro.kernel.machine import KernelMachine, ThreadSpec

#: Shared cells the random programs race on.
CELLS = ("x", "y", "z")

#: No failure has this location, so a search never stops early.
NO_MATCH = FailureMatcher(location="(no instruction)")


def check_skips(monkeypatch) -> List:
    """Install the checking mode; returns the list that collects every
    schedule skipped (and checked) from then on."""
    checked: List = []
    parents = {}
    parent_replay = LeastInterleavingFirstSearch._parent_replay
    skip = LeastInterleavingFirstSearch._skip

    def recording(self, parent, run):
        replay = parent_replay(self, parent, run)
        if replay is not None:
            parents[id(replay)] = (replay, hash(parent.signature()))
        return replay

    def checking(self, schedule, replay, round_index):
        kept, parent_key = parents[id(replay)]
        assert kept is replay
        run = ScheduleController(self.machine_factory(), schedule).run()
        what = schedule.describe()
        assert hash(run.signature()) == parent_key, what
        assert parent_key in self._signatures, what
        assert run.steps == replay.parent_steps, what
        assert run.failure is None, what
        skipped = skip(self, schedule, replay, round_index)
        if skipped:
            checked.append(schedule)
        return skipped

    monkeypatch.setattr(LeastInterleavingFirstSearch, "_parent_replay",
                        recording)
    monkeypatch.setattr(LeastInterleavingFirstSearch, "_skip", checking)
    return checked


def _statement(f: FunctionBuilder, rng: random.Random, label, spawn: bool):
    """Emit one random statement into ``f``."""
    cell = rng.choice(CELLS)
    kinds = ["inc", "load", "store", "locked", "branch", "publish", "deref",
             "free", "assert"] + (["spawn"] if spawn else [])
    kind = rng.choice(kinds)
    if kind == "inc":
        f.inc(f.g(cell), 1, label=label())
    elif kind == "load":
        f.load("r0", f.g(cell), label=label())
    elif kind == "store":
        f.store(f.g(cell), rng.randint(0, 2), label=label())
    elif kind == "locked":
        f.lock("L", label=label())
        f.inc(f.g(cell), 1, label=label())
        f.load("r0", f.g(rng.choice(CELLS)), label=label())
        f.unlock("L", label=label())
    elif kind == "branch":
        skip = label()
        f.load("r0", f.g(cell), label=label())
        f.brz("r0", skip, label=label())
        f.store(f.g(rng.choice(CELLS)), 1, label=label())
        f.nop(label=skip)
    elif kind == "publish":
        f.alloc("r1", 16, tag="obj", label=label())
        f.store(f.at("r1", 0), 1, label=label())
        f.store(f.g("ptr"), "r1", label=label())
    elif kind == "deref":
        skip = label()
        f.load("r2", f.g("ptr"), label=label())
        f.brz("r2", skip, label=label())
        if rng.random() < 0.5:
            f.load("r3", f.at("r2", 0), label=label())
        else:
            f.store(f.at("r2", 8), 1, label=label())
        f.nop(label=skip)
    elif kind == "free":
        skip = label()
        f.load("r2", f.g("ptr"), label=label())
        f.brz("r2", skip, label=label())
        f.store(f.g("ptr"), 0, label=label())
        f.free("r2", label=label())
        f.nop(label=skip)
    elif kind == "assert":
        f.load("r4", f.g(cell), label=label())
        f.binop("r5", "eq", "r4", rng.randint(1, 3))
        f.bug_on("r5", f"{cell} reached a bad value", label=label())
    else:
        f.queue_work("worker", label=label())


def random_program(seed: int) -> Tuple[Callable[[], KernelMachine],
                                       List[str]]:
    """A seeded random racy program: ``(machine_factory, thread names)``."""
    rng = random.Random(seed)
    counter = itertools.count()

    def label() -> str:
        return f"L{next(counter)}"

    b = ProgramBuilder()
    with b.function("worker") as f:
        for _ in range(rng.randint(1, 2)):
            _statement(f, rng, label, spawn=False)
    specs = []
    for name in "ABC"[:rng.choice((2, 3))]:
        with b.function(f"sys_{name}") as f:
            for _ in range(rng.randint(2, 4)):
                _statement(f, rng, label, spawn=True)
        specs.append(ThreadSpec(name, f"sys_{name}"))
    image = b.build()
    cells = {cell: rng.randint(0, 1) for cell in CELLS}

    def factory() -> KernelMachine:
        return KernelMachine(image, specs, globals_init=cells)

    return factory, [spec.name for spec in specs]


def search_random_program(seed: int, use_snapshots: bool = True,
                          policy: str = "static") -> LifsResult:
    """LIFS over :func:`random_program` ``(seed)``, bounded to keep one
    search well under a second."""
    factory, names = random_program(seed)
    config = LifsConfig(max_interleavings=4, max_schedules=400,
                        use_snapshots=use_snapshots, policy=policy)
    return LeastInterleavingFirstSearch(factory, names, target=NO_MATCH,
                                        config=config).search()
