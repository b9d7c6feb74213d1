PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast test-dynamic test-backend test-serving api-check \
	smoke-obs bench perfbench chaos bench-supervisor bench-backend \
	doctor obs-report ci

## Full test suite (tier 1).
test:
	$(PYTHON) -m pytest -x -q

## Everything except the slow fault matrix.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not faults"

## Dynamic-clustering subsystem: incremental updates, snapshots, serving.
test-dynamic:
	$(PYTHON) -m pytest -x -q -m dynamic

## Process execution backend: bit-identical parity across all engines,
## worker sizing/fallback, shared-memory leak hygiene (normal exit and
## chaos-killed worker), dynamic pool reuse, chaos backend axis.
test-backend:
	$(PYTHON) -m pytest -x -q -m parallel_backend

## Serving gateway: snapshot-isolated reads, write coalescing, admission
## control, the cross-engine x cross-family replay equivalence gate, and
## the `repro serve` CLI.
test-serving:
	$(PYTHON) -m pytest -x -q -m serving

## Fail when the live public surface (repro.api) drifted from the
## committed benchmarks/api_surface.json snapshot.  Intentional surface
## growth: `python -m repro.api --write` and commit the diff.
api-check:
	$(PYTHON) -m repro.api --check

## Observability smoke: one traced clustering, schema-validated trace,
## parse-back metrics (the `obs` marker), then the CLI gate on a fresh run.
smoke-obs:
	$(PYTHON) -m pytest -q -m obs
	$(PYTHON) -m repro.cli cluster --karate --resolution 0.05 --seed 3 \
	    --trace /tmp/repro-smoke-trace.jsonl
	$(PYTHON) -m repro.cli obs validate-trace /tmp/repro-smoke-trace.jsonl

## Per-figure benchmark scripts (pytest-benchmark).
bench:
	$(PYTHON) -m pytest benchmarks -q

## The performance ledger: every BENCHMARK.json workload end to end, one
## process each (see perfbench/README.md).  Exits nonzero when any
## correctness check fails (objective recomputation, label-digest
## stability, replay digests, request accounting).
perfbench:
	$(PYTHON) perfbench/run.py --workload all

## Supervised chaos matrix: every fault site x every engine x both
## kernels on the karate workload, asserting the recovery invariants
## (terminate, objective within tolerance or explicitly degraded,
## checkpoints replay bit-identically).  Deterministic; exits nonzero on
## any unrecovered cell.
chaos:
	$(PYTHON) -m repro.cli chaos --karate --seed 1

## The <3% no-fault supervision overhead bench.
bench-supervisor:
	$(PYTHON) -m pytest -x -q benchmarks/bench_supervisor.py

## Execution-backend move-eval speedup: 1/2/4 warm workers on scale-12
## RMAT; the >=2x gate at 4 workers applies only on hosts with >=4 CPUs
## (parity with the simulated runtime is a tier-1 test).
bench-backend:
	$(PYTHON) -m pytest -x -q benchmarks/bench_backend.py

## Run doctor over fresh instrumented runs: a batch clustering (health
## rules over stats/trace/metrics + registry trend history) and a dynamic
## update session (serving SLOs: commit/save latency, staleness).  Both
## legs exit nonzero on any crit finding.
doctor:
	rm -rf /tmp/repro-doctor && mkdir -p /tmp/repro-doctor
	$(PYTHON) -m repro.cli cluster --karate --resolution 0.05 --seed 3 \
	    --trace /tmp/repro-doctor/trace.jsonl \
	    --metrics /tmp/repro-doctor/metrics.jsonl \
	    --register /tmp/repro-doctor/runs.jsonl --run-id doctor-check \
	    --health-rules benchmarks/health_rules.json
	$(PYTHON) -m repro.cli doctor doctor-check \
	    --runs /tmp/repro-doctor/runs.jsonl \
	    --trace /tmp/repro-doctor/trace.jsonl \
	    --metrics /tmp/repro-doctor/metrics.jsonl --iteration-cap 10 \
	    --rules benchmarks/health_rules.json
	$(PYTHON) -m repro.cli update --karate \
	    --updates benchmarks/updates_karate.jsonl --batch-size 4 --seed 3 \
	    --metrics /tmp/repro-doctor/update-metrics.jsonl \
	    --trace /tmp/repro-doctor/update-trace.jsonl \
	    --snapshot-dir /tmp/repro-doctor/snaps --doctor

## Self-contained HTML observability report (inline CSS/SVG, no scripts)
## rendered from the doctor target's artifacts.
obs-report: doctor
	$(PYTHON) -m repro.cli obs report /tmp/repro-doctor/runs.jsonl \
	    --html /tmp/repro-doctor/report.html \
	    --trace /tmp/repro-doctor/trace.jsonl \
	    --metrics /tmp/repro-doctor/metrics.jsonl --iteration-cap 10
	$(PYTHON) -m repro.cli obs report \
	    --html /tmp/repro-doctor/update-report.html \
	    --trace /tmp/repro-doctor/update-trace.jsonl \
	    --metrics /tmp/repro-doctor/update-metrics.jsonl

## The full gate a PR must pass: tier-1 tests (which include the
## parallel_backend parity/leak suite, the serving suite, the dynamic
## and serving cost gates and the pinned engine baselines), the
## API-surface drift check, the observability smoke, the supervised chaos
## matrix, the run doctor + HTML report, the execution-backend speedup
## bench, the <3% overhead benches (disabled instrumentation, no-fault
## supervision), and the perfbench ledger's correctness checks.
ci: test api-check smoke-obs chaos bench-backend obs-report perfbench
	$(PYTHON) -m pytest -x -q benchmarks/bench_obs_overhead.py \
	    benchmarks/bench_supervisor.py
