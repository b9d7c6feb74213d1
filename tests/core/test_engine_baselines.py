"""Pinned objective and simulated-time baselines for every engine.

Each engine runs the multilevel pipeline on a fixed RMAT graph (no
refinement, config seed 1, lambda = 0.05; 60 simulated workers, 1 for
the sequential engine).  The final LambdaCC objective F and the
cost-model time are deterministic functions of the seed, so they are
pinned here: neither may get more than 10% worse.  A change that moves
them on purpose updates the table in the same commit.

The reference-kernel rows pin the same figures as the default kernel:
the cost model never sees which kernel evaluated the moves.
"""

import pytest

from repro.core.api import cluster
from repro.core.config import ClusteringConfig
from repro.core.engines import ENGINES, multilevel_with_engine
from repro.core.objective import lambdacc_objective
from repro.generators.planted import planted_partition_graph
from repro.generators.rmat import rmat_graph
from repro.parallel.scheduler import SimulatedScheduler
from repro.utils.rng import make_rng

RESOLUTION = 0.05
SEED = 1
TOLERANCE = 0.10

#: (engine, kernel, RMAT scale) -> (f_objective, sim_time_seconds).
BASELINES = {
    ("colored", "vectorized", 8): (684.2, 1.1435019182724184e-05),
    ("event", "vectorized", 8): (597.95, 4.032488301649064e-06),
    ("prefix", "vectorized", 8): (675.45, 1.1048264390988467e-05),
    ("relaxed", "vectorized", 8): (692.1, 4.723540624081896e-06),
    ("sequential", "vectorized", 8): (694.9, 1.79395e-05),
    ("prefix", "reference", 8): (675.45, 1.1048264390988467e-05),
    ("relaxed", "reference", 8): (692.1, 4.723540624081896e-06),
    ("relaxed", "vectorized", 12): (5813.55, 6.318470567702563e-05),
}


def test_every_engine_is_pinned():
    assert {key[0] for key in BASELINES} == set(ENGINES)


@pytest.mark.parametrize("engine,kernel,scale", sorted(BASELINES))
def test_engine_objective_and_sim_time(engine, kernel, scale):
    graph = rmat_graph(scale, 8 * 2**scale, seed=0)
    workers = 1 if engine == "sequential" else 60
    config = ClusteringConfig(
        resolution=RESOLUTION, refine=False, seed=SEED,
        num_workers=workers, kernel=kernel,
    )
    sched = SimulatedScheduler(num_workers=workers)
    assignments, _ = multilevel_with_engine(
        graph, RESOLUTION, config, engine=engine, sched=sched,
        rng=make_rng(SEED),
    )
    f_objective = lambdacc_objective(graph, assignments, RESOLUTION)
    sim_time = sched.simulated_time(workers)

    base_f, base_sim = BASELINES[(engine, kernel, scale)]
    assert f_objective >= base_f - TOLERANCE * abs(base_f), (
        f"{engine}: objective {f_objective:g} vs pinned {base_f:g}"
    )
    assert sim_time <= base_sim * (1 + TOLERANCE), (
        f"{engine}: simulated time {sim_time:g} vs pinned {base_sim:g}"
    )


def test_default_cluster_sim_time_on_planted():
    """The default ``cluster()`` pipeline, refinement on, is pinned too."""
    graph = planted_partition_graph(
        num_vertices=2000, intra_degree=8.0, inter_degree=1.0, seed=0
    ).graph
    result = cluster(graph, ClusteringConfig(resolution=RESOLUTION, seed=7))
    base_sim = 2.2473642167247976e-05
    assert result.sim_time() <= base_sim * (1 + TOLERANCE)
