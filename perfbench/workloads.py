"""The ledger's four workloads: set-up, timed phase and correctness checks.

Every workload is a pure function of its seed.  A run sets up several
times (input generation, bootstrap clustering or pool spawn, one untimed
warm-up call) and reports the median as ``setup_s``; the last set-up is
then measured for ``seconds``.  Timings of work on the CPU are reported
in reference seconds: divided by the host's slowness around them, as
measured by ``speed.SpeedGauge``.  With tracing on, the timed phase is split
into an untraced half and a traced half, so the per-layer numbers come
with the tracing overhead beside them.

Every end-to-end metric is reported on every workload (see README.md for
what each one means where the workload has no reads or writes).
"""

from __future__ import annotations

import resource
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.api import (
    ClusteringConfig,
    DriftGuard,
    DynamicClusterer,
    EdgeUpdate,
    GatewayPolicy,
    Request,
    RunOptions,
    ServingGateway,
    WorkloadSpec,
    cluster,
    replay_digests,
)
from repro.generators.lfr import lfr_like_graph
from repro.generators.rmat import rmat_graph
from repro.parallel.backend import create_backend
from repro.serving.epoch import label_digest
from repro.serving.requests import CLASSES, READ_KINDS, STATUSES

from layers import LAYERS, LayerTracer
from speed import SpeedGauge

#: Set-ups per run; setup_s is their median.  A serve-open set-up takes
#: ~0.5 s, so it repeats more often to cover a similar wall time.
CLUSTER_SETUPS = 3
SERVE_SETUPS = 5
#: Timed cluster() calls per measured phase, even when ``seconds`` is short.
MIN_CALLS = 2

#: Relative tolerance between a reported objective and its recomputation;
#: the two sum the same floats in different orders.
OBJECTIVE_RTOL = 1e-9

#: Latency metrics whose traced-minus-untraced difference is the overhead.
OVERHEAD_OF = (
    "cluster_edges_per_s",
    "read_p50_ms",
    "read_p99_ms",
    "write_visible_p50_ms",
    "write_visible_p99_ms",
)

BACKEND_LAYERS = {
    "parallel.backend.batch_moves",
    "parallel.backend.gather",
    "parallel.backend.map_to_super",
}
READ_SIDE = {"serving.read", "serving.epoch_serve", "serving.stage_write"}
SERVING_LAYERS = {
    "serving.read",
    "serving.epoch_serve",
    "serving.stage_write",
    "serving.commit",
    "serving.epoch_build",
    "dynamic.apply",
    "dynamic.refine",
    "graphs.compact",
}


@dataclass
class Outcome:
    """What one run measured and found."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    shares: Dict[str, float] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def objective_2f(graph, assignments, resolution: float) -> float:
    """The paper's ordered-pair objective ``2F``, from the CSR arrays.

    Written apart from ``repro.core.objective`` so that the check below
    does not reuse the code that produced the reported number: it sums
    ordered intra-cluster pairs directly and gets the cluster weights by
    sorting, not by ``bincount``.
    """
    labels = np.asarray(assignments)
    src = np.repeat(labels, np.diff(graph.offsets))
    intra = float(graph.weights[src == labels[graph.neighbors]].sum())
    intra += 2.0 * float(graph.self_loops.sum())
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.r_[True, labels[order][1:] != labels[order][:-1]])
    weights = np.asarray(graph.node_weights, dtype=np.float64)[order]
    squares = np.asarray(graph.node_weight_sq, dtype=np.float64)[order]
    big_k = np.add.reduceat(weights, starts)
    big_k2 = np.add.reduceat(squares, starts)
    return intra - resolution * float((big_k * big_k - big_k2).sum())


def objective_mismatch(reported: float, recomputed: float) -> bool:
    return abs(reported - recomputed) > OBJECTIVE_RTOL * max(1.0, abs(recomputed))


def ms_percentile(seconds, q: float) -> float:
    return float(np.percentile(np.asarray(seconds, dtype=np.float64), q)) * 1e3


def repeated_setup(
    setup: Callable[[], SimpleNamespace], close, repeats: int, gauge: SpeedGauge
) -> tuple:
    """Set up ``repeats`` times; keep the last.

    Returns the context and the median set-up time in reference seconds
    and in raw seconds.
    """
    raw, scaled = [], []
    ctx = None
    for _ in range(repeats):
        if ctx is not None:
            close(ctx)
        ctx, seconds, ref_seconds = gauge.timed(setup)
        raw.append(seconds)
        scaled.append(ref_seconds)
    return ctx, statistics.median(scaled), statistics.median(raw)


def self_check(tracer_totals, active, bypass, outcome: Outcome) -> None:
    """Every active layer was timed; every bypassed one was never called."""
    for layer in sorted(active):
        if tracer_totals[f"{layer}.calls"] == 0:
            outcome.fail(f"self-check: {layer} recorded no calls but should be active")
    for layer in sorted(bypass):
        if tracer_totals[f"{layer}.calls"] != 0:
            outcome.fail(
                f"self-check: {layer} recorded {tracer_totals[f'{layer}.calls']} "
                "calls but should be bypassed"
            )


def layer_report(totals, scale: float) -> Dict[str, float]:
    """Per-layer metrics scaled by ``1 / scale`` (calls per op, or totals)."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.s"] = totals[f"{layer}.s"] / scale
        out[f"{layer}.calls"] = totals[f"{layer}.calls"] / scale
    # serving.read and serving.commit report whole-call time; their self
    # time has its own name (read_wait, validate).
    out["serving.read.s"] = totals["serving.read.busy"] / scale
    out["serving.commit.s"] = totals["serving.commit.busy"] / scale
    out["serving.read_wait.s"] = totals["serving.read.s"] / scale
    out["serving.validate.s"] = totals["serving.commit.s"] / scale
    for name in (
        "kernels.batch_moves.vertices",
        "kernels.batch_moves.edges",
        "core.apply_moves.moved",
        "core.frontier.vertices",
        "dynamic.refine.evals",
        "serving.commit.updates",
        "serving.commit.rejected",
    ):
        out[name] = totals.get(name, 0) / scale
    return {k: (int(v) if float(v).is_integer() else v) for k, v in out.items()}


# ---------------------------------------------------------------------- #
# cluster-* workloads
# ---------------------------------------------------------------------- #


@dataclass
class ClusterWorkload:
    """Timed back-to-back ``repro.api.cluster()`` calls on one graph."""

    make_graph: Callable[[int], object]
    resolution: float
    parallel: bool = True
    #: Open a process pool of this many workers in set-up (0 = inline).
    pool_workers: int = 0
    active: frozenset = frozenset()
    bypass: frozenset = frozenset()

    def _setup(self, seed: int) -> SimpleNamespace:
        graph = self.make_graph(seed)
        config = ClusteringConfig(
            resolution=self.resolution, parallel=self.parallel, seed=seed
        )
        pool = None
        if self.pool_workers:
            pool = create_backend("process", workers=self.pool_workers)
            if pool.inline:
                raise RuntimeError("process backend unavailable on this host")
        options = RunOptions(backend=pool)
        warm = cluster(graph, config, options)
        return SimpleNamespace(
            graph=graph,
            config=config,
            pool=pool,
            options=options,
            digest=label_digest(warm.assignments),
        )

    @staticmethod
    def _close(ctx) -> None:
        if ctx.pool is not None:
            ctx.pool.close()

    def _check(self, ctx, result, outcome: Outcome) -> None:
        recomputed = objective_2f(ctx.graph, result.assignments, ctx.config.resolution)
        if objective_mismatch(result.objective, recomputed):
            outcome.fail(
                f"objective {result.objective!r} != recomputed {recomputed!r}"
            )
        if label_digest(result.assignments) != ctx.digest:
            outcome.fail("label digest differs from the warm-up call's")

    def _calls(self, ctx, seconds: float, gauge: SpeedGauge, outcome: Outcome):
        """Call ``cluster()`` back to back for about ``seconds``.

        Returns each call's raw seconds, its reference seconds and the last
        result.
        """
        times, ref_times, result = [], [], None
        start = time.perf_counter()
        # Start another call only while it would end near the deadline.
        while len(times) < MIN_CALLS or (
            time.perf_counter() - start + times[-1] / 2 < seconds
        ):
            result, raw, ref = gauge.timed(
                lambda: cluster(ctx.graph, ctx.config, ctx.options)
            )
            times.append(raw)
            ref_times.append(ref)
            outcome.attempted += 1
            self._check(ctx, result, outcome)
        return times, ref_times, result

    def _metrics(self, ctx, ref_times, result, setup_s: float) -> Dict[str, float]:
        # The median of calls timed in reference seconds: a call's raw time
        # follows the shared host's speed, which can halve within a minute
        # (speed.py, README.md "Noise").
        call = statistics.median(ref_times)
        # No reads or writes here: the one request is the cluster() call,
        # whose labels become readable when it returns.  A run holds too
        # few calls for a tail percentile (their p99 is their maximum), so
        # every latency slot carries the median call.
        call_ms = call * 1e3
        return {
            "setup_s": setup_s,
            "cluster_edges_per_s": ctx.graph.num_directed_edges / call,
            "objective": float(result.objective),
            "read_p50_ms": call_ms,
            "read_p99_ms": call_ms,
            "write_visible_p50_ms": call_ms,
            "write_visible_p99_ms": call_ms,
            "peak_rss_mb": peak_rss_mb(),
        }

    def run(self, seed: int, seconds: float, trace: bool) -> Outcome:
        outcome = Outcome()
        gauge = SpeedGauge()
        ctx, setup_s, setup_raw = repeated_setup(
            lambda: self._setup(seed), self._close, CLUSTER_SETUPS, gauge
        )
        outcome.attempted += CLUSTER_SETUPS
        try:
            if not trace:
                times, ref_times, result = self._calls(ctx, seconds, gauge, outcome)
            else:
                times, ref_times, result = self._calls(
                    ctx, seconds / 2, gauge, outcome
                )
                base = self._metrics(ctx, ref_times, result, setup_s)
                shared0 = ctx.pool.stats()["bytes_shared"] if ctx.pool else 0
                with LayerTracer() as tracer:
                    times, ref_times, result = self._calls(
                        ctx, seconds / 2, gauge, outcome
                    )
                shared = (ctx.pool.stats()["bytes_shared"] if ctx.pool else 0) - shared0
            outcome.metrics = self._metrics(ctx, ref_times, result, setup_s)
            if self.pool_workers:
                # The backend must not change labels: compare with the
                # inline run of the same graph, config and seed.
                inline = cluster(ctx.graph, ctx.config)
                outcome.attempted += 1
                if label_digest(inline.assignments) != ctx.digest:
                    outcome.fail("process-backend labels differ from inline labels")
        finally:
            self._close(ctx)
        stats = result.stats
        outcome.counters = {
            "edges": ctx.graph.num_directed_edges,
            "core.levels": stats.num_levels,
            "core.iterations": stats.total_iterations,
            "core.moves": stats.total_moves,
            "calls": len(times),
            "host.slowdown": gauge.median_factor(),
            "raw.setup_s": setup_raw,
            "raw.call_s": statistics.median(times),
        }
        if trace:
            self._trace_report(tracer, times, base, shared, outcome)
        return outcome

    def _trace_report(self, tracer, times, base, shared, outcome: Outcome) -> None:
        totals = tracer.totals()
        calls = len(times)
        layers = layer_report(totals, calls)
        layers["parallel.backend.bytes_shared"] = shared / calls
        layers.update(
            {
                "core.levels": outcome.counters["core.levels"],
                "core.iterations": outcome.counters["core.iterations"],
                "core.moves": outcome.counters["core.moves"],
                "host.slowdown": outcome.counters["host.slowdown"],
                "serving.commit_busy_frac": 0.0,
                "serving.gen_late_p99_ms": 0.0,
                "serving.read_p50_ms": 0.0,
                "remainder.s": (sum(times) - tracer.self_seconds()) / calls,
            }
        )
        for name in OVERHEAD_OF:
            layers[f"trace.overhead.{name}"] = outcome.metrics[name] - base[name]
        outcome.layers = layers
        wall = sum(times) / calls
        outcome.shares = {
            layer: layers[f"{layer}.s"] / wall for layer in LAYERS
        }
        outcome.shares["remainder"] = layers["remainder.s"] / wall
        outcome.counters.update(
            {
                k: layers[k]
                for k in (
                    "kernels.batch_moves.vertices",
                    "kernels.batch_moves.edges",
                    "kernels.batch_moves.calls",
                    "kernels.sweep.calls",
                    "kernels.single_move.calls",
                    "core.apply_moves.moved",
                    "parallel.backend.bytes_shared",
                )
            }
        )
        self_check(totals, self.active, self.bypass, outcome)


# ---------------------------------------------------------------------- #
# serve-open
# ---------------------------------------------------------------------- #


@dataclass
class Phase:
    """One open-loop phase of serve-open."""

    read_s: List[float] = field(default_factory=list)
    visible_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    staged_at_commit: List[int] = field(default_factory=list)
    commit_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    error: Optional[str] = None


class ServeOpen:
    """The ServingGateway under open-loop Poisson load on real threads.

    One client thread (the caller) sends each request at its scheduled
    time through the gateway's public ``note_submit`` / ``serve_read`` /
    ``stage_write``; one commit thread calls ``commit`` every
    ``COMMIT_INTERVAL`` seconds -- the structure of ``ThreadedDriver``,
    but every latency is measured from the request's *scheduled* send
    time, so a stall also counts against the requests queued behind it.
    """

    NUM_VERTICES = 20000
    MIXING = 0.2
    RESOLUTION = 0.05
    RATE = 1000.0
    READ_FRACTION = 0.9
    #: A commit takes ~45-80 ms, so at 0.1 s the commit thread was busy
    #: 34-40% of the time and, on a slowed host, late enough to trip the
    #: open-loop check below.  At 0.2 s it is busy ~25%: reads still stall
    #: behind every commit (read p99 ~ one commit), with margin.
    COMMIT_INTERVAL = 0.2
    active = frozenset(SERVING_LAYERS | {"kernels.batch_moves", "parallel.charge"})
    bypass = frozenset(
        BACKEND_LAYERS
        | {"kernels.sweep", "kernels.single_move", "graphs.compress", "core.flatten"}
    )

    def _setup(self, seed: int) -> SimpleNamespace:
        graph = lfr_like_graph(self.NUM_VERTICES, mixing=self.MIXING, seed=seed).graph
        config = ClusteringConfig(resolution=self.RESOLUTION, seed=seed)
        boot = cluster(graph, config)
        labels = boot.assignments.copy()
        clusterer = DynamicClusterer(graph, boot.assignments.copy(), config)
        gateway = ServingGateway(
            clusterer, GatewayPolicy(commit_interval_seconds=self.COMMIT_INTERVAL)
        )
        # Warm-up: one read of each kind and one committed write.
        responses = []
        for i, kind in enumerate(READ_KINDS):
            args = {"cluster_of": (1,), "same": (1, 2), "members": (1,)}.get(kind, ())
            req = Request.read(-1 - i, kind, *args)
            gateway.note_submit(req)
            responses.append(gateway.serve_read(req, 0.0))
        req = Request.write(-10, EdgeUpdate("insert", 0, 1, 1.0))
        gateway.note_submit(req)
        gateway.stage_write(req, 0.0)
        responses.extend(gateway.commit(0.0))
        return SimpleNamespace(
            graph=graph,
            config=config,
            labels=labels,
            gateway=gateway,
            responses=responses,
            next_id=0,
        )

    @staticmethod
    def _close(ctx) -> None:
        ctx.gateway.clusterer.close()

    def _requests(self, ctx, seconds: float, stream_seed: int) -> List[Request]:
        spec = WorkloadSpec(
            num_requests=int(self.RATE * seconds),
            read_fraction=self.READ_FRACTION,
            arrival="open",
            rate=self.RATE,
            seed=stream_seed,
        )
        requests = [
            replace(req, request_id=req.request_id + ctx.next_id)
            for req in spec.generate(ctx.graph.num_vertices)
        ]
        ctx.next_id += len(requests)
        return requests

    def _open_loop(self, ctx, requests: List[Request]) -> Phase:
        gateway = ctx.gateway
        phase = Phase()
        due: Dict[int, float] = {}
        stop = threading.Event()

        def commit_loop() -> None:
            try:
                while True:
                    stopped = stop.wait(self.COMMIT_INTERVAL)
                    staged = gateway.staged_count
                    if staged:
                        phase.staged_at_commit.append(staged)
                        t0 = time.perf_counter()
                        out = gateway.commit(t0)
                        t1 = time.perf_counter()
                        phase.commit_s.append(t1 - t0)
                        for resp in out:
                            if resp.status == "ok":
                                phase.visible_s.append(t1 - due[resp.request_id])
                        ctx.responses.extend(out)
                    if stopped and not gateway.staged_count:
                        return
            except Exception:
                phase.error = traceback.format_exc()
                stop.set()

        committer = threading.Thread(target=commit_loop, name="perfbench-commit")
        base = time.perf_counter() + 0.01
        committer.start()
        try:
            for req in requests:
                when = base + req.submitted_at
                delay = when - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                if stop.is_set():
                    break
                sent = time.perf_counter()
                phase.late_s.append(sent - when)
                req = replace(req, submitted_at=when)
                due[req.request_id] = when
                gateway.note_submit(req)
                if req.klass == "write":
                    shed = gateway.stage_write(req, sent)
                    if shed is not None:
                        ctx.responses.append(shed)
                    continue
                resp = gateway.serve_read(req, sent)
                phase.read_s.append(time.perf_counter() - when)
                ctx.responses.append(resp)
        finally:
            stop.set()
            committer.join()
        phase.wall_s = time.perf_counter() - base
        return phase

    def _metrics(self, ctx, phase: Phase, setup_s: float):
        return {
            "setup_s": setup_s,
            # Clustering on this workload is the commit's localized
            # refinement, which also re-compacts every edge.
            "cluster_edges_per_s": ctx.graph.num_directed_edges
            / statistics.median(phase.commit_s),
            "objective": 2.0 * ctx.gateway.epoch.f_objective,
            # The load phase is timed in raw wall seconds: its commits and
            # read stalls did not follow the speed probe (README.md,
            # "Noise"), and visibility is mostly the wait for a commit tick.
            "read_p50_ms": ms_percentile(phase.read_s, 50),
            "read_p99_ms": ms_percentile(phase.read_s, 99),
            "write_visible_p50_ms": ms_percentile(phase.visible_s, 50),
            "write_visible_p99_ms": ms_percentile(phase.visible_s, 99),
            "peak_rss_mb": peak_rss_mb(),
        }

    def _check_phase(self, phase: Phase, outcome: Outcome) -> None:
        if phase.error is not None:
            outcome.fail("commit thread raised:\n" + phase.error)
            return
        # Open-loop hygiene: a generator that fell behind, or a write queue
        # that keeps growing, means the offered load was not delivered.
        if phase.late_s[-1] > self.COMMIT_INTERVAL:
            outcome.fail(
                f"invalid run: generator {phase.late_s[-1] * 1e3:.1f} ms behind "
                "schedule at the end"
            )
        depths = phase.staged_at_commit
        quarter = max(1, len(depths) // 4)
        first = statistics.median(depths[:quarter])
        last = statistics.median(depths[-quarter:])
        if last > 2 * first + 5:
            outcome.fail(
                f"invalid run: write queue growing ({first} -> {last} staged per commit)"
            )

    def _check_gateway(self, ctx, outcome: Outcome) -> None:
        gateway = ctx.gateway
        tally = {k: {s: 0 for s in STATUSES} for k in CLASSES}
        for resp in ctx.responses:
            tally[resp.klass][resp.status] += 1
        for klass in CLASSES:
            resolved = sum(tally[klass].values())
            if gateway.submitted[klass] != resolved:
                outcome.fail(
                    f"{klass}: submitted {gateway.submitted[klass]} != resolved {resolved}"
                )
            for status in STATUSES:
                if gateway.counts[(klass, status)] != tally[klass][status]:
                    outcome.fail(f"{klass}/{status}: gateway and client disagree")
        for klass in CLASSES:
            for status in ("shed", "expired"):
                if tally[klass][status]:
                    outcome.fail(
                        f"{tally[klass][status]} {klass} requests {status}",
                        count=tally[klass][status],
                    )
        if gateway.staged_count:
            outcome.fail(f"{gateway.staged_count} writes left staged")
        replayed = replay_digests(
            ctx.graph,
            ctx.labels,
            ctx.config,
            gateway.committed_batches(),
            guard=DriftGuard(),
        )
        if replayed != gateway.epoch_log:
            outcome.fail("serial replay digests differ from the gateway's epoch log")
        reported = 2.0 * gateway.epoch.f_objective
        recomputed = objective_2f(
            gateway.clusterer.graph, gateway.epoch.assignments, self.RESOLUTION
        )
        if objective_mismatch(reported, recomputed):
            outcome.fail(
                f"last epoch's objective {reported!r} != recomputed {recomputed!r}"
            )
        outcome.attempted = sum(gateway.submitted.values())

    def run(self, seed: int, seconds: float, trace: bool) -> Outcome:
        outcome = Outcome()
        gauge = SpeedGauge()
        ctx, setup_s, setup_raw = repeated_setup(
            lambda: self._setup(seed), self._close, SERVE_SETUPS, gauge
        )
        try:
            if not trace:
                phase = self._open_loop(ctx, self._requests(ctx, seconds, seed))
                self._check_phase(phase, outcome)
            else:
                first = self._open_loop(ctx, self._requests(ctx, seconds / 2, seed))
                self._check_phase(first, outcome)
                base = self._metrics(ctx, first, setup_s)
                with LayerTracer() as tracer:
                    phase = self._open_loop(
                        ctx, self._requests(ctx, seconds / 2, seed + 1)
                    )
                self._check_phase(phase, outcome)
            # One probe after the load, so that host.slowdown covers it.
            gauge.factor()
            outcome.metrics = self._metrics(ctx, phase, setup_s)
            # Replay runs untraced: in a traced run it also proves the
            # wrappers left every published epoch bit-identical.
            self._check_gateway(ctx, outcome)
        finally:
            self._close(ctx)
        stats = ctx.gateway.stats()
        outcome.counters = {
            "edges": ctx.graph.num_directed_edges,
            "commits": stats["commits"],
            "updates_committed": stats["requests"]["write"]["ok"],
            "writes_rejected": stats["requests"]["write"]["rejected"],
            "reads": stats["requests"]["read"]["ok"],
            "commit_busy_frac": sum(phase.commit_s) / phase.wall_s,
            "gen_late_p99_ms": ms_percentile(phase.late_s, 99),
            "read_p50_ms": outcome.metrics["read_p50_ms"],
            "host.slowdown": gauge.median_factor(),
            "raw.setup_s": setup_raw,
        }
        if trace:
            self._trace_report(tracer, phase, base, outcome)
        return outcome

    def _trace_report(self, tracer, phase: Phase, base, outcome: Outcome) -> None:
        totals = tracer.totals()
        layers = layer_report(totals, 1.0)
        layers.update(
            {
                "parallel.backend.bytes_shared": 0,
                "core.levels": 0,
                "core.iterations": 0,
                "core.moves": 0,
                "host.slowdown": outcome.counters["host.slowdown"],
                "serving.commit_busy_frac": sum(phase.commit_s) / phase.wall_s,
                "serving.gen_late_p99_ms": ms_percentile(phase.late_s, 99),
                "serving.read_p50_ms": ms_percentile(phase.read_s, 50),
                "remainder.s": phase.wall_s - tracer.self_seconds(),
            }
        )
        for name in OVERHEAD_OF:
            layers[f"trace.overhead.{name}"] = outcome.metrics[name] - base[name]
        outcome.layers = layers
        # Commit-side layers as a share of commit time; read-side ones as
        # a share of read time.
        commit = max(layers["serving.commit.s"], 1e-12)
        read = max(layers["serving.read.s"], 1e-12)
        outcome.shares = {"serving.commit_busy (of wall)": layers["serving.commit_busy_frac"]}
        for layer in LAYERS:
            if layer in READ_SIDE or layer == "serving.commit":
                continue
            outcome.shares[f"{layer} (of commit)"] = layers[f"{layer}.s"] / commit
        outcome.shares["serving.validate (of commit)"] = layers["serving.validate.s"] / commit
        for name in ("serving.epoch_serve", "serving.read_wait"):
            outcome.shares[f"{name} (of read)"] = layers[f"{name}.s"] / read
        outcome.counters["dynamic.refine.evals"] = layers["dynamic.refine.evals"]
        self_check(totals, self.active, self.bypass, outcome)


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #


def _rmat(seed: int):
    # The paper's rMAT quadrants (.5, .1, .1, .3) are rmat_graph's defaults.
    # Scale 14 (not 15) fits ~11 calls into a 20 s run instead of ~5.
    return rmat_graph(14, 16 * 2**14, seed=seed)


def _lfr(seed: int):
    return lfr_like_graph(32768, mixing=0.2, seed=seed).graph


_CLUSTER_IDLE = frozenset(SERVING_LAYERS)
_PARALLEL_CORE = frozenset(
    {"core.apply_moves", "core.frontier", "core.flatten", "graphs.compress", "parallel.charge"}
)

WORKLOADS = {
    "cluster-rmat": ClusterWorkload(
        _rmat,
        resolution=0.01,
        active=_PARALLEL_CORE | {"kernels.batch_moves"},
        bypass=_CLUSTER_IDLE
        | BACKEND_LAYERS
        | {"kernels.sweep", "kernels.single_move"},
    ),
    "cluster-lfr-seq": ClusterWorkload(
        _lfr,
        resolution=0.05,
        parallel=False,
        active=frozenset(
            {
                "kernels.batch_moves",
                "kernels.sweep",
                "kernels.single_move",
                "core.frontier",
                "core.flatten",
                "graphs.compress",
                "parallel.charge",
            }
        ),
        bypass=_CLUSTER_IDLE | BACKEND_LAYERS,
    ),
    "serve-open": ServeOpen(),
    # Not in BENCHMARK.json: on a 2-vCPU host whole runs of it came out
    # up to 2.3x slower than the median, far outside any bound the ledger
    # may carry (README.md, "Noise").  Run it by hand, alternating with
    # cluster-rmat, to measure parallel.backend.
    "cluster-rmat-proc": ClusterWorkload(
        _rmat,
        resolution=0.01,
        pool_workers=2,
        active=_PARALLEL_CORE
        | {"parallel.backend.batch_moves", "parallel.backend.map_to_super"},
        bypass=_CLUSTER_IDLE | {"kernels.sweep", "kernels.single_move"},
    ),
}
