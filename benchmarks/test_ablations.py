"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not a paper table — these quantify the mechanisms the paper asserts
qualitatively:

* how much search the DPOR-style candidate pruning saves LIFS (§3.3);
* what the equivalence-dedup subtree skip saves on top;
* what the 32-VM pool buys (the paper "fully parallelizes" both stages);
* what critical-section collapsing saves Causality Analysis (§3.4).
"""

from conftest import emit

from repro.analysis.metrics import CostModel
from repro.analysis.tables import Table
from repro.core.causality import CaConfig, CausalityAnalysis
from repro.core.lifs import (
    FailureMatcher,
    LeastInterleavingFirstSearch,
    LifsConfig,
)
from repro.corpus.registry import get_bug
from repro.kernel.failures import FailureKind


def _search(bug, **config):
    lifs = LeastInterleavingFirstSearch(
        bug.machine_factory,
        [t.proc for t in bug.threads],
        FailureMatcher(kind=bug.bug_type,
                       location=bug.failure_location),
        config=LifsConfig(**config))
    return lifs.search()


def _private_heavy_factory():
    """A workload shaped like real kernel paths: most instructions touch
    thread-private state (no conflicts), and one flag pair races.  This
    is where the DPOR-style pruning pays off (section 5.2: "many
    instructions do not access global memory objects")."""
    from repro.kernel.builder import ProgramBuilder
    from repro.kernel.machine import KernelMachine, ThreadSpec

    b = ProgramBuilder()
    with b.function("path_a") as f:
        for i in range(12):
            f.inc(f.g(f"a_private{i}"), 1, label=f"APriv{i}")
        f.store(f.g("shared_flag"), 1, label="A1")
    with b.function("path_b") as f:
        for i in range(12):
            f.inc(f.g(f"b_private{i}"), 1, label=f"BPriv{i}")
        # The failure needs A's store to land between B's two samples, so
        # no serial order crashes and LIFS must search.
        f.load("v1", f.g("shared_flag"), label="B0")
        f.load("v2", f.g("shared_flag"), label="B1")
        f.binop("notv1", "eq", f.r("v1"), f.i(0))
        f.binop("flipped", "and", f.r("v2"), f.r("notv1"))
        f.bug_on("flipped", "flag flipped mid-read", label="B2")
    image = b.build()

    def factory():
        return KernelMachine(image, [ThreadSpec("A", "path_a"),
                                     ThreadSpec("B", "path_b")])
    return factory


def test_lifs_pruning_ablation(benchmark):
    factory = _private_heavy_factory()

    def run_one(**config):
        lifs = LeastInterleavingFirstSearch(
            factory, ["A", "B"],
            FailureMatcher(kind=FailureKind.ASSERTION),
            config=LifsConfig(**config))
        return lifs.search()

    def run_all():
        return {
            "full": run_one(),
            "no conflict pruning": run_one(conflict_pruning=False),
            "no equivalence dedup": run_one(equivalence_dedup=False),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "Ablation — LIFS search reduction "
        "(12 private accesses per thread + 1 racing flag)",
        ["configuration", "schedules", "pruned candidates",
         "equivalent runs", "reproduced"])
    for name, result in results.items():
        table.add_row(name, result.stats.schedules_executed,
                      result.stats.candidates_pruned,
                      result.stats.equivalent_runs,
                      "yes" if result.reproduced else "NO")
    emit("ablation_lifs", table.render())

    full = results["full"]
    assert all(r.reproduced for r in results.values())
    # Pruning removes every private-access candidate.
    assert full.stats.candidates_pruned >= 12
    assert (results["no conflict pruning"].stats.schedules_executed
            > 2 * full.stats.schedules_executed)


def test_ca_critical_section_ablation(benchmark):
    bug = get_bug("CVE-2017-15649")
    lifs_result = _search(bug)

    def run_both():
        return (
            CausalityAnalysis(bug.machine_factory, lifs_result).analyze(),
            CausalityAnalysis(
                bug.machine_factory, lifs_result,
                config=CaConfig(collapse_critical_sections=False,
                                recheck_edges=False)).analyze(),
            CausalityAnalysis(
                bug.machine_factory, lifs_result,
                config=CaConfig(recheck_edges=False)).analyze(),
        )

    with_sections, without_sections, no_recheck = benchmark.pedantic(
        run_both, rounds=1, iterations=1)

    table = Table("Ablation — Causality Analysis configuration",
                  ["configuration", "schedules", "reboots",
                   "chain races"])
    table.add_row("full (sections + edge recheck)",
                  with_sections.stats.schedules_executed,
                  with_sections.stats.reboots,
                  with_sections.chain.race_count)
    table.add_row("no edge recheck",
                  no_recheck.stats.schedules_executed,
                  no_recheck.stats.reboots,
                  no_recheck.chain.race_count)
    table.add_row("no critical-section collapsing",
                  without_sections.stats.schedules_executed,
                  without_sections.stats.reboots,
                  without_sections.chain.race_count)
    emit("ablation_ca", table.render())

    # Same chain regardless; fewer schedules without the recheck pass.
    assert (with_sections.chain.render() == no_recheck.chain.render())
    assert (no_recheck.stats.schedules_executed
            < with_sections.stats.schedules_executed)


def test_vm_pool_parallelism(benchmark):
    """Idealized wall time across the paper's 32-VM pool vs one VM."""
    bug = get_bug("CVE-2017-15649")
    result = benchmark.pedantic(lambda: _search(bug), rounds=1,
                                iterations=1)
    model = CostModel()
    cost = result.stats.stage_cost(model)
    table = Table("Ablation — reproducing-stage wall time vs VM count",
                  ["VMs", "simulated wall time (s)"])
    for vms in (1, 2, 8, 32):
        table.add_row(vms, cost.parallel_seconds(vms))
    emit("ablation_vms", table.render())
    assert cost.parallel_seconds(32) < cost.parallel_seconds(1)
