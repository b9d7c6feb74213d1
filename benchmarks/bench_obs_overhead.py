"""Observability overhead: instrumentation must be no-op-cheap.

With an :class:`~repro.obs.instrument.Instrumentation` constructed but
*disabled*, every hook degenerates to an attribute load plus an
``enabled`` check, so the wall-clock slowdown over an uninstrumented run
stays under 3%.  The assertion uses a loose multiple of that target
because CI wall clocks are noisy at millisecond scales (same convention
as ``bench_resilience.py``).

Disabled or enabled, instrumentation must never change the answer: the
clustering and the simulated cost are asserted bit-identical.
"""

import numpy as np

from repro.bench.harness import ExperimentTable, time_callable
from repro.core.api import cluster
from repro.core.config import ClusteringConfig
from repro.core.options import RunOptions
from repro.generators.planted import planted_partition_graph
from repro.obs.instrument import Instrumentation

#: Design target for the constructed-but-disabled configuration.
DISABLED_TARGET = 0.03
#: CI wall clocks are noisy at millisecond scales; assert a loose multiple.
WALL_TOLERANCE = 10.0

CONFIGURATIONS = {
    "baseline": lambda: None,
    "disabled": lambda: Instrumentation(enabled=False),
    "enabled": Instrumentation,
}


def run_overhead(repeats=5):
    """Best wall time and result per instrumentation configuration."""
    graph = planted_partition_graph(
        num_vertices=2000, intra_degree=8.0, inter_degree=1.0, seed=0
    ).graph
    config = ClusteringConfig(resolution=0.05, seed=7)
    runs = {}
    for key, factory in CONFIGURATIONS.items():
        result, timing = time_callable(
            lambda: cluster(
                graph, config, RunOptions(instrumentation=factory())
            ),
            repeats=repeats,
            warmup=1,
        )
        runs[key] = (timing.best, result)
    return runs


def test_obs_overhead(benchmark):
    runs = benchmark.pedantic(run_overhead, rounds=1, iterations=1)

    base_wall, base = runs["baseline"]
    table = ExperimentTable(
        "Instrumentation overhead vs uninstrumented run",
        ["configuration", "wall (s)", "slowdown", "identical"],
    )
    table.add_row("baseline", f"{base_wall:.4f}", "-", "-")
    for key in ("disabled", "enabled"):
        wall, result = runs[key]
        table.add_row(
            key, f"{wall:.4f}", f"{wall / base_wall - 1.0:+.1%}",
            bool(np.array_equal(result.assignments, base.assignments)),
        )
    table.emit()

    for key in ("disabled", "enabled"):
        # Instrumentation observes; it must never change the clustering or
        # the modeled parallel cost.
        result = runs[key][1]
        assert np.array_equal(result.assignments, base.assignments), (
            f"{key}: clustering diverged"
        )
        assert result.sim_time() == base.sim_time(), (
            f"{key}: simulated cost changed"
        )
    disabled_overhead = runs["disabled"][0] / base_wall - 1.0
    assert disabled_overhead < DISABLED_TARGET * WALL_TOLERANCE, (
        f"disabled instrumentation costs {disabled_overhead:.1%}, far above "
        f"the {DISABLED_TARGET:.0%} target"
    )
