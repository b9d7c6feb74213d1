"""Registry of BEST-MOVES scheduling engines.

Five engines implement the same contract
``engine(graph, state, resolution, config, sched=, rng=, initial_frontier=)``:

* ``"relaxed"``  — the paper's engine: batched windows, synchronous or
  asynchronous per ``config.mode`` (:mod:`repro.core.best_moves`);
* ``"prefix"``   — the conflict-free-prefix alternative §3.2 rejects
  (:mod:`repro.core.prefix`);
* ``"colored"``  — Grappolo-style color-class scheduling, reference [27]
  (:mod:`repro.core.coloring`);
* ``"event"``    — the fine-grained event-driven asynchrony oracle
  (:mod:`repro.core.event_async`);
* ``"sequential"`` — Algorithm 2's per-vertex sweeps
  (:mod:`repro.core.louvain_seq`).

:func:`multilevel_with_engine` runs the full multilevel pipeline with any
of them, which is how ``benchmarks/bench_engines.py`` produces one table
over all scheduling disciplines and ``tests/core/test_engine_baselines.py``
pins each engine's objective and simulated time.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.best_moves import run_best_moves
from repro.core.coloring import run_colored_best_moves
from repro.core.config import ClusteringConfig
from repro.core.event_async import run_event_driven_best_moves
from repro.core.louvain_par import MultiLevelStats, multilevel_louvain
from repro.core.louvain_seq import sequential_best_moves
from repro.core.prefix import run_prefix_best_moves
from repro.graphs.csr import CSRGraph
from repro.graphs.stats import MemoryTracker

ENGINES: Dict[str, Callable] = {
    "relaxed": run_best_moves,
    "prefix": run_prefix_best_moves,
    "colored": run_colored_best_moves,
    "event": run_event_driven_best_moves,
    "sequential": sequential_best_moves,
}

#: The supervisor's last-resort engine: Algorithm 2's sequential sweeps
#: have no windows, no atomics, and no speculative conflicts to go wrong.
FALLBACK_ENGINE = "sequential"


def fallback_engine(name: Optional[str]) -> Optional[str]:
    """The engine to fall back to, or ``None`` if already at the bottom."""
    if name == FALLBACK_ENGINE:
        return None
    return FALLBACK_ENGINE


def get_engine(name: str) -> Callable:
    """Look up an engine by name."""
    try:
        return ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; available: {sorted(ENGINES)}"
        ) from None


def run_engine_restricted(
    graph: CSRGraph,
    state,
    resolution: float,
    config: ClusteringConfig,
    engine: Optional[str] = None,
    frontier: Optional[np.ndarray] = None,
    sched=None,
    rng: Optional[np.random.Generator] = None,
):
    """One single-level BEST-MOVES run restricted to a seed ``frontier``.

    The dynamic subsystem's localized-refinement entry point: no
    coarsening, no singleton reset — the named engine runs *in place* on
    the provided :class:`~repro.core.state.ClusterState`, with its first
    iteration limited to ``frontier`` (subsequent iterations cascade via
    the engine's own frontier maintenance).  ``frontier=None`` falls back
    to the engine default (all vertices), which is exactly a full
    single-level recompute from the current partition — the comparison
    baseline of ``tests/dynamic/test_churn_gate.py``.

    Returns the engine's :class:`~repro.core.best_moves.BestMovesStats`.
    """
    name = engine if engine is not None else (
        "relaxed" if config.parallel else "sequential"
    )
    fn = get_engine(name)
    return fn(
        graph,
        state,
        resolution,
        config,
        sched=sched,
        rng=rng,
        initial_frontier=frontier,
    )


def multilevel_with_engine(
    graph: CSRGraph,
    resolution: float,
    config: ClusteringConfig,
    engine: str = "relaxed",
    sched=None,
    rng: Optional[np.random.Generator] = None,
    memory: Optional[MemoryTracker] = None,
    resilience=None,
) -> Tuple[np.ndarray, MultiLevelStats]:
    """Run the full multilevel Louvain pipeline under the named engine.

    ``resilience`` accepts a
    :class:`~repro.resilience.context.ResilienceContext`, making every
    engine in the registry runnable under fault injection, auditing,
    budget guards, and checkpointing — the fault-matrix suite's entry
    point.
    """
    return multilevel_louvain(
        graph,
        resolution,
        config,
        get_engine(engine),
        sched=sched,
        rng=rng,
        memory=memory,
        resilience=resilience,
    )
