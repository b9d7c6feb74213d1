"""Per-layer timers installed from outside ``src/`` for the traced run.

Each timer wraps one public function of a layer (``kernels``, ``core``,
``graphs``, ``parallel``, ``dynamic``, ``serving``) by rebinding every
name the program calls it through: a module attribute, a name bound by
``from ... import`` in a caller's module, a class attribute, or a default
argument captured at definition time (``multilevel_louvain``'s
``compress_fn=compress_graph``).  Patching only the defining module would
silently miss the calls that go through the other bindings; the
self-check in ``workloads.py`` catches such a miss as a zero call count.

Self time is busy time minus the part covered by nested timers, so the
self times of all layers plus the untimed remainder add up to the wall
time of the traced phase.  Accumulators are per thread and merged on
read, so the client and commit threads of ``serve-open`` never race on a
shared counter.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List

import numpy as np

from repro.core import best_moves, coloring, event_async, louvain_par, louvain_seq, moves, prefix
from repro.core.state import ClusterState
from repro.dynamic import clusterer as dyn_clusterer
from repro.graphs import quotient
from repro.graphs.delta import DeltaOverlayGraph
from repro.kernels import sweep as kernel_sweep
from repro.kernels import vectorized
from repro.parallel.backend.process import ProcessBackend
from repro.parallel.scheduler import SimulatedScheduler
from repro.serving.epoch import LabelEpoch
from repro.serving.gateway import ServingGateway

#: Every timed layer, in report order.  The per-layer metric names in
#: BENCHMARK.json are ``<layer>.s`` / ``<layer>.calls`` plus the work
#: counters below.
LAYERS = (
    "kernels.batch_moves",
    "kernels.sweep",
    "kernels.single_move",
    "core.apply_moves",
    "core.frontier",
    "core.flatten",
    "graphs.compress",
    "parallel.charge",
    "parallel.backend.batch_moves",
    "parallel.backend.gather",
    "parallel.backend.map_to_super",
    "serving.read",
    "serving.epoch_serve",
    "serving.stage_write",
    "serving.commit",
    "serving.epoch_build",
    "dynamic.apply",
    "dynamic.refine",
    "graphs.compact",
)


def _batch_work(tracer, out, args, kwargs) -> None:
    graph, batch = args[0], np.asarray(args[2])
    tracer.add("kernels.batch_moves.vertices", batch.size)
    degrees = graph.offsets[batch + 1] - graph.offsets[batch]
    tracer.add("kernels.batch_moves.edges", int(degrees.sum()))


def _moved(tracer, out, args, kwargs) -> None:
    tracer.add("core.apply_moves.moved", int(out))


def _frontier_size(tracer, out, args, kwargs) -> None:
    tracer.add("core.frontier.vertices", int(np.asarray(out).size))


def _refine_evals(tracer, out, args, kwargs) -> None:
    tracer.add("dynamic.refine.evals", int(sum(out.frontier_sizes)))


def _commit_outcome(tracer, out, args, kwargs) -> None:
    tracer.add("serving.commit.updates", sum(r.status == "ok" for r in out))
    tracer.add("serving.commit.rejected", sum(r.status == "rejected" for r in out))


class _Stats:
    __slots__ = ("busy", "self_", "calls", "counts", "stack")

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Child seconds accumulated by each open timer on this thread.
        self.stack: List[float] = []


class LayerTracer:
    """Rebinds layer entry points to timing wrappers; undone by ``uninstall``."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._all: List[_Stats] = []
        self._undo: List[Callable[[], None]] = []

    # -- accumulation ---------------------------------------------------- #

    def _stats(self) -> _Stats:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = self._local.stats = _Stats()
            self._all.append(stats)
        return stats

    def add(self, counter: str, value: int) -> None:
        self._stats().counts[counter] += int(value)

    def _wrap(self, layer: str, fn, on_return=None):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stats = self._stats()
            stats.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = stats.stack.pop()
                stats.busy[layer] += elapsed
                stats.self_[layer] += elapsed - child
                stats.calls[layer] += 1
                if stats.stack:
                    stats.stack[-1] += elapsed
            if on_return is not None:
                on_return(self, out, args, kwargs)
            return out

        return timed

    # -- installation ---------------------------------------------------- #

    def _rebind(self, owners, attr: str, wrapped) -> None:
        for owner in owners:
            original = owner.__dict__[attr]
            setattr(owner, attr, wrapped)
            self._undo.append(functools.partial(setattr, owner, attr, original))

    def _rebind_default(self, fn, original, wrapped) -> None:
        saved = fn.__defaults__
        fn.__defaults__ = tuple(wrapped if d is original else d for d in saved)
        self._undo.append(functools.partial(setattr, fn, "__defaults__", saved))

    def install(self) -> None:
        wrap = self._wrap
        self._rebind(
            [vectorized],
            "vectorized_batch_moves",
            wrap("kernels.batch_moves", vectorized.vectorized_batch_moves, _batch_work),
        )
        self._rebind(
            [vectorized], "speculative_sweep", wrap("kernels.sweep", vectorized.speculative_sweep)
        )
        self._rebind(
            [kernel_sweep, vectorized, moves],
            "reference_single_move",
            wrap("kernels.single_move", kernel_sweep.reference_single_move),
        )
        self._rebind(
            [ClusterState],
            "apply_moves",
            wrap("core.apply_moves", ClusterState.apply_moves, _moved),
        )
        self._rebind(
            [best_moves, louvain_seq, coloring, event_async, prefix],
            "next_frontier",
            wrap("core.frontier", best_moves.next_frontier, _frontier_size),
        )
        self._rebind(
            [louvain_par], "parallel_flatten", wrap("core.flatten", louvain_par.parallel_flatten)
        )
        compress = wrap("graphs.compress", quotient.compress_graph)
        self._rebind_default(louvain_par.multilevel_louvain, quotient.compress_graph, compress)
        self._rebind([quotient], "compress_graph", compress)
        self._rebind(
            [SimulatedScheduler], "charge", wrap("parallel.charge", SimulatedScheduler.charge)
        )
        self._rebind(
            [SimulatedScheduler],
            "charge_cas_contention",
            wrap("parallel.charge", SimulatedScheduler.charge_cas_contention),
        )
        for method, layer in (
            ("batch_moves", "parallel.backend.batch_moves"),
            ("gather_neighbors", "parallel.backend.gather"),
            ("map_to_super", "parallel.backend.map_to_super"),
        ):
            self._rebind(
                [ProcessBackend], method, wrap(layer, ProcessBackend.__dict__[method])
            )
        self._rebind(
            [ServingGateway], "serve_read", wrap("serving.read", ServingGateway.serve_read)
        )
        self._rebind([LabelEpoch], "serve", wrap("serving.epoch_serve", LabelEpoch.serve))
        self._rebind(
            [ServingGateway],
            "stage_write",
            wrap("serving.stage_write", ServingGateway.stage_write),
        )
        self._rebind(
            [ServingGateway],
            "commit",
            wrap("serving.commit", ServingGateway.commit, _commit_outcome),
        )
        self._rebind([LabelEpoch], "__init__", wrap("serving.epoch_build", LabelEpoch.__init__))
        self._rebind(
            [dyn_clusterer.DynamicClusterer],
            "apply",
            wrap("dynamic.apply", dyn_clusterer.DynamicClusterer.apply),
        )
        self._rebind(
            [dyn_clusterer],
            "run_engine_restricted",
            wrap("dynamic.refine", dyn_clusterer.run_engine_restricted, _refine_evals),
        )
        self._rebind(
            [DeltaOverlayGraph], "compact", wrap("graphs.compact", DeltaOverlayGraph.compact)
        )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- report ---------------------------------------------------------- #

    def totals(self) -> Dict[str, float]:
        """Merged ``<layer>.s`` (self), ``.busy``, ``.calls`` and counters."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.s"] = sum(s.self_[layer] for s in self._all)
            out[f"{layer}.busy"] = sum(s.busy[layer] for s in self._all)
            out[f"{layer}.calls"] = sum(s.calls[layer] for s in self._all)
        names = {name for s in self._all for name in s.counts}
        for name in sorted(names):
            out[name] = sum(s.counts[name] for s in self._all)
        return out

    def self_seconds(self) -> float:
        """Self time summed over every layer and thread."""
        return sum(sum(stats.self_.values()) for stats in self._all)
