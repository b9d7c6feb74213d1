"""Localized refinement vs full recompute on LFR churn batches.

The dynamic subsystem's cost claim: applying a churn batch (at most 1%
of the edges) through :class:`~repro.dynamic.clusterer.DynamicClusterer`
— frontier seeded from just the touched endpoints — evaluates >= 5x
fewer candidate moves than a full single-level recompute from the same
warm partition on the same updated graph, and lands on the same
partition (|delta F| <= 1e-9, identical assignments).

Candidate-move evaluations are the sum of per-round frontier sizes: the
full baseline pays ``n`` in its first round by construction, the
incremental path pays ``|touched endpoints|`` plus whatever the cascade
reaches.  Both paths run the deterministic sequential engine with
``rng=None`` (id-order sweeps), so equal objectives are a hard equality
of refinement outcomes, not a tolerance hiding divergent local optima.
The counts are deterministic; nothing here is wall-clock.
"""

import numpy as np
import pytest

from repro.core.config import ClusteringConfig, Frontier
from repro.core.engines import run_engine_restricted
from repro.core.objective import lambdacc_objective
from repro.core.state import ClusterState
from repro.dynamic.clusterer import DriftGuard, DynamicClusterer
from repro.dynamic.updates import EdgeUpdate, UpdateBatch
from repro.generators.lfr import lfr_like_graph

pytestmark = pytest.mark.dynamic

RESOLUTION = 0.05
TARGET_EVAL_RATIO = 5.0
OBJECTIVE_TOLERANCE = 1e-9


def churn_batch(graph, fraction, rng):
    """Half deletes of existing edges, half inserts of absent unit edges,
    touching at most ``fraction`` of the graph's edges."""
    u, v, _ = graph.edge_list()
    k = max(2, int(fraction * u.size))
    num_delete = k // 2
    num_insert = k - num_delete
    picks = rng.choice(u.size, size=num_delete, replace=False)
    updates = [
        EdgeUpdate("delete", int(u[i]), int(v[i])) for i in sorted(picks)
    ]
    present = set(zip(u.tolist(), v.tolist()))
    for i in picks:
        present.discard((int(u[i]), int(v[i])))
    n = graph.num_vertices
    while num_insert > 0:
        a, b = int(rng.integers(n)), int(rng.integers(n))
        key = (min(a, b), max(a, b))
        if a == b or key in present:
            continue
        present.add(key)
        updates.append(EdgeUpdate("insert", key[0], key[1], 1.0))
        num_insert -= 1
    return UpdateBatch(updates)


def full_recompute(graph, assignments, config):
    """Full single-level sequential sweep from ``assignments``; returns
    (assignments, candidate evaluations)."""
    state = ClusterState.from_assignments(graph, assignments)
    stats = run_engine_restricted(
        graph, state, RESOLUTION, config,
        engine="sequential", frontier=None, rng=None,
    )
    return state.assignments, int(sum(stats.frontier_sizes))


def test_localized_refinement_beats_full_recompute():
    seed = 7
    graph = lfr_like_graph(2000, mixing=0.2, seed=seed).graph
    config = ClusteringConfig(
        resolution=RESOLUTION,
        parallel=False,
        num_iter=None,  # converge: the warm partition is a fixed point
        # Cluster-neighbors maintenance chases every landscape change a
        # move causes, so restricted and full runs reach one fixed point.
        frontier=Frontier.CLUSTER_NEIGHBORS,
        seed=seed,
    )
    # Warm partition at a single-level fixed point, so the first full
    # recompute does not bundle leftover multilevel refinement moves.
    boot = DynamicClusterer.bootstrap(graph, config, engine="sequential")
    warm, _ = full_recompute(graph, boot.assignments(), config)
    boot.close()
    clusterer = DynamicClusterer(
        graph, warm, config, engine="sequential",
        guard=DriftGuard(recompute_every=0, max_frontier_fraction=1.0),
    )
    clusterer.rng = None

    churn_rng = np.random.default_rng(seed)
    inc_evals = full_evals = 0
    try:
        for _ in range(4):
            batch = churn_batch(clusterer.graph, 0.005, churn_rng)
            pre = clusterer.state.assignments.copy()
            inc_evals += clusterer.apply(batch).candidate_evaluations
            updated = clusterer.graph
            full_assignments, evals = full_recompute(updated, pre, config)
            full_evals += evals

            f_full = lambdacc_objective(updated, full_assignments, RESOLUTION)
            assert abs(clusterer.exact_objective() - f_full) <= (
                OBJECTIVE_TOLERANCE
            )
            np.testing.assert_array_equal(
                full_assignments, clusterer.state.assignments
            )
    finally:
        clusterer.close()

    ratio = full_evals / max(1, inc_evals)
    assert ratio >= TARGET_EVAL_RATIO, (
        f"incremental path evaluated {inc_evals} candidates vs {full_evals} "
        f"for full recompute: {ratio:.2f}x (need >= {TARGET_EVAL_RATIO}x)"
    )
