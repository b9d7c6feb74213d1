"""Execution backend: real-core move-evaluation speedup where cores exist.

The process backend's batch move evaluation — one full-graph batch per
call on scale-12 RMAT, pool warm — must reach **>= 2x** wall-clock
speedup at 4 workers vs 1, *on a host that has >= 4 CPUs*.  Four
processes time-slicing fewer cores can only add IPC overhead, so below
4 CPUs the numbers are measured and printed but the gate is skipped.

Bit-identity with the simulated runtime, fault-free dispatch and
shared-memory hygiene are gated in
``tests/parallel/test_process_backend.py``; end-to-end wall time is
measured by ``perfbench/`` (see perfbench/README.md).
"""

import os

import numpy as np
import pytest

from repro.bench.harness import ExperimentTable, time_callable
from repro.core.state import ClusterState
from repro.generators.rmat import rmat_graph
from repro.parallel.backend.process import ProcessBackend

#: Worker counts swept (1 is the IPC-overhead control).
WORKER_SWEEP = (1, 2, 4)
TARGET_SPEEDUP = 2.0
GATE_MIN_CPUS = 4
RESOLUTION = 0.05


def moveeval_walls(repeats=3, seed=3):
    """Best wall time of one full-graph batch_moves call per worker count."""
    graph = rmat_graph(12, 8 * 2**12, seed=seed)
    batch = np.arange(graph.num_vertices, dtype=np.int64)
    walls = {}
    for workers in WORKER_SWEEP:
        with ProcessBackend(workers=workers, min_dispatch=64) as backend:
            state = ClusterState.singletons(graph)
            _, timing = time_callable(
                lambda: backend.batch_moves(
                    graph, state, batch, RESOLUTION,
                    allow_escape=True, swap_avoidance=False,
                    kernel="vectorized",
                ),
                repeats=repeats,
                warmup=1,
            )
        walls[workers] = timing.best
    return walls


def test_backend_moveeval_speedup(benchmark):
    walls = benchmark.pedantic(moveeval_walls, rounds=1, iterations=1)

    table = ExperimentTable(
        "Execution backend: full-graph move eval, scale-12 RMAT",
        ["workers", "move-eval (s)", "speedup vs 1"],
    )
    for workers, wall in walls.items():
        table.add_row(
            workers, f"{wall:.4f}", f"{walls[WORKER_SWEEP[0]] / wall:.2f}x"
        )
    table.emit()

    cpu_count = os.cpu_count() or 1
    top = WORKER_SWEEP[-1]
    ratio = walls[WORKER_SWEEP[0]] / walls[top]
    if cpu_count < GATE_MIN_CPUS:
        pytest.skip(
            f"host has {cpu_count} CPU(s) < {GATE_MIN_CPUS}: {top}-worker "
            f"move-eval measured {ratio:.2f}x vs 1 worker (recorded, not "
            f"gated — real-core speedup requires real cores)"
        )
    assert ratio >= TARGET_SPEEDUP, (
        f"move-eval speedup at {top} workers is {ratio:.2f}x "
        f"(need >= {TARGET_SPEEDUP}x on a {cpu_count}-CPU host)"
    )
