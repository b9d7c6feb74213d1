"""Gateway vs the serial read discipline on the simulated clock.

Snapshot-isolated reads (dedicated read lanes, commits on their own
lane) must give >= 1.5x the read throughput of the old serial
``ClusterServer`` discipline (``serial_baseline=True``: reads queue
behind every commit) on the same workload and policy cost model.  Both
sides run :class:`~repro.serving.drivers.SimulatedDriver`, so the ratio
is a deterministic virtual-clock figure, a property of the lane
discipline and the ``GatewayPolicy`` costs rather than of wall time.
Replay identity, request accounting and committed epochs are gated in
``test_equivalence.py`` and ``test_drivers.py``.
"""

import pytest

from repro.core.config import ClusteringConfig
from repro.dynamic.clusterer import DriftGuard, DynamicClusterer
from repro.generators.lfr import lfr_like_graph
from repro.generators.planted import planted_partition_graph
from repro.serving import GatewayPolicy, ServingGateway, SimulatedDriver
from repro.serving.workload import WorkloadSpec

pytestmark = pytest.mark.serving

SEED = 7
RESOLUTION = 0.05
TARGET_READ_SPEEDUP = 1.5

POLICY = GatewayPolicy(
    read_queue_limit=64,
    write_queue_limit=512,
    commit_interval_seconds=0.05,
    read_service_seconds=0.001,
    commit_base_seconds=0.05,
    commit_per_update_seconds=0.001,
    read_concurrency=4,
    read_deadline_seconds=0.0,
)
WORKLOAD = WorkloadSpec(
    num_requests=600, read_fraction=0.85, arrival="open", rate=3000.0,
    seed=SEED,
)


def family(name):
    if name == "lfr":
        return lfr_like_graph(600, mixing=0.2, seed=SEED).graph
    return planted_partition_graph(
        num_vertices=500, intra_degree=8.0, inter_degree=1.0, seed=SEED
    ).graph


@pytest.mark.parametrize("family_name", ["lfr", "planted"])
def test_gateway_read_throughput_beats_serial(family_name):
    graph = family(family_name)
    config = ClusteringConfig(resolution=RESOLUTION, parallel=False, seed=SEED)
    boot = DynamicClusterer.bootstrap(graph, config, engine="sequential")
    labels0 = boot.state.assignments.copy()
    boot.close()
    requests = WORKLOAD.generate(graph.num_vertices)

    def run(serial):
        clusterer = DynamicClusterer(
            graph, labels0.copy(), config, engine="sequential",
            guard=DriftGuard(recompute_every=0, max_frontier_fraction=1.0),
        )
        gateway = ServingGateway(clusterer, POLICY)
        try:
            result = SimulatedDriver(serial_baseline=serial).run(
                gateway, requests
            )
        finally:
            clusterer.close()
        return result.summary()["read_throughput_rps"]

    gateway_rps = run(False)
    serial_rps = run(True)
    assert serial_rps > 0, "the serial discipline served no reads"
    assert gateway_rps >= TARGET_READ_SPEEDUP * serial_rps, (
        f"gateway read throughput {gateway_rps:.0f} rps is only "
        f"{gateway_rps / serial_rps:.2f}x the serial discipline's "
        f"{serial_rps:.0f} rps (need >= {TARGET_READ_SPEEDUP}x)"
    )
