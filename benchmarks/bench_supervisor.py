"""Supervisor overhead: supervision must be ~free when nothing fails.

Wrapping a fault-free run in a :class:`~repro.supervisor.RunSupervisor`
costs <3% wall clock over the same run unsupervised — the checkpoint
throttle (``checkpoint_budget_fraction``) plus a bookkeeping-only
no-fault path make that hold.  The assertion uses a loose multiple of
the target because CI wall clocks are noisy at millisecond scales (same
convention as ``bench_obs_overhead.py``).

Supervision must never change the answer when nothing fails: the
clustering, objective, and simulated cost are asserted bit-identical,
and the supervised run must finish on the first rung in one attempt
with no degradation.
"""

import numpy as np

from repro.bench.harness import ExperimentTable, time_callable
from repro.core.api import cluster
from repro.core.config import ClusteringConfig
from repro.core.options import RunOptions
from repro.generators.planted import planted_partition_graph
from repro.supervisor import RunSupervisor

#: Design target for no-fault supervised overhead.
SUPERVISED_TARGET = 0.03
#: CI wall clocks are noisy at millisecond scales; assert a loose multiple.
WALL_TOLERANCE = 10.0


def run_overhead(repeats=5):
    """(bare, supervised) pairs of (best wall time, result)."""
    graph = planted_partition_graph(
        num_vertices=2000, intra_degree=8.0, inter_degree=1.0, seed=0
    ).graph
    config = ClusteringConfig(resolution=0.05, seed=7)
    bare_result, bare_timing = time_callable(
        lambda: cluster(graph, config), repeats=repeats, warmup=1
    )
    supervised_result, supervised_timing = time_callable(
        lambda: cluster(graph, config, RunOptions(supervisor=RunSupervisor())),
        repeats=repeats,
        warmup=1,
    )
    return (
        (bare_timing.best, bare_result),
        (supervised_timing.best, supervised_result),
    )


def test_supervisor_overhead(benchmark):
    (base_wall, base), (wall, supervised) = benchmark.pedantic(
        run_overhead, rounds=1, iterations=1
    )
    identical = bool(
        np.array_equal(supervised.assignments, base.assignments)
        and supervised.objective == base.objective
    )
    overhead = wall / base_wall - 1.0
    table = ExperimentTable(
        "Supervisor overhead vs unsupervised run (no faults)",
        ["configuration", "wall (s)", "slowdown", "identical"],
    )
    table.add_row("baseline", f"{base_wall:.4f}", "-", "-")
    table.add_row("supervised", f"{wall:.4f}", f"{overhead:+.1%}", identical)
    table.emit()

    # Supervision observes and retries; with no faults it must be invisible.
    meta = supervised.extras.get("supervisor", {})
    assert identical, "supervised clustering diverged"
    assert supervised.sim_time() == base.sim_time(), (
        "supervised simulated cost changed"
    )
    assert meta.get("attempts") == 1, (
        f"no-fault run took {meta.get('attempts')} attempts"
    )
    assert meta.get("rung") == "as-configured"
    assert not supervised.degraded
    assert overhead < SUPERVISED_TARGET * WALL_TOLERANCE, (
        f"no-fault supervision costs {overhead:.1%}, far above the "
        f"{SUPERVISED_TARGET:.0%} target"
    )
