"""All scheduling engines, one table.

The paper's design-space argument in one view: for each BEST-MOVES
scheduling discipline — the relaxed asynchronous engine it chose, the
synchronous strawman, the conflict-free prefix alternative it rejected,
Grappolo-style coloring, and the event-driven asynchrony oracle — report
end-to-end multilevel objective and simulated time.  Expected shape: the
relaxed asynchronous engine sits on the quality/speed Pareto front, which
is the paper's Section 3.2/4.1 thesis.
"""

from repro.bench.datasets import benchmark_surrogate
from repro.bench.harness import ExperimentTable
from repro.core.config import ClusteringConfig, Mode
from repro.core.engines import multilevel_with_engine
from repro.core.objective import lambdacc_objective
from repro.parallel.scheduler import SimulatedScheduler
from repro.utils.rng import make_rng

ENGINE_SETUPS = [
    ("async (paper)", "relaxed", Mode.ASYNC),
    ("sync", "relaxed", Mode.SYNC),
    ("prefix", "prefix", Mode.ASYNC),
    ("colored", "colored", Mode.ASYNC),
    ("event oracle", "event", Mode.ASYNC),
    ("sequential", "sequential", Mode.ASYNC),
]


def run_engines():
    graph = benchmark_surrogate("amazon", seed=0, scale=0.5).graph
    rows = []
    for lam in (0.1, 0.85):
        for label, engine, mode in ENGINE_SETUPS:
            config = ClusteringConfig(
                resolution=lam, mode=mode, refine=False, seed=1, num_workers=60
            )
            sched = SimulatedScheduler(num_workers=60)
            assignments, stats = multilevel_with_engine(
                graph, lam, config, engine=engine, sched=sched,
                rng=make_rng(1),
            )
            workers = 1 if engine == "sequential" else 60
            rows.append(
                (
                    lam,
                    label,
                    lambdacc_objective(graph, assignments, lam),
                    sched.simulated_time(workers),
                    stats.total_iterations,
                )
            )
    return rows


def test_engine_comparison(benchmark):
    rows = benchmark.pedantic(run_engines, rounds=1, iterations=1)

    table = ExperimentTable(
        "Engine comparison (amazon surrogate, multilevel, no refinement)",
        ["lambda", "engine", "objective F", "sim_time", "rounds"],
    )
    for row in rows:
        table.add_row(*row)
    table.emit()

    by = {(lam, label): (f, t) for lam, label, f, t, _ in rows}
    for lam in (0.1, 0.85):
        async_f, async_t = by[(lam, "async (paper)")]
        # The paper's engine is never dominated: every alternative is
        # slower, lower-objective, or both.
        for label in ("sync", "prefix", "colored", "sequential"):
            f, t = by[(lam, label)]
            assert f <= async_f * 1.05 or t >= async_t * 0.95, (lam, label)
        # And it matches the fine-grained oracle's quality.
        event_f, _ = by[(lam, "event oracle")]
        assert async_f > 0.8 * event_f
