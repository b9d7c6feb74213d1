"""Performance ledger for repro: fixed workloads timed end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cluster-rmat --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with per-layer timers installed and prints the per-layer
metrics.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Human-readable counters, checks and layer shares go to the lines before
it.  ``--workload all`` runs each workload in a process of its own and
ends with one merged object whose metrics are named
``<workload>/<metric>``.  The exit code is 0 only when every correctness check passed.
See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

try:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise ImportError(f"no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import workloads
except ImportError as exc:
    print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
    sys.exit(2)

#: Metric names and units come from the ledger's own definition.
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _spec:
    SPEC = json.load(_spec)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    outcome = workloads.WORKLOADS[name].run(seed, seconds, trace)
    print(f"[{name}] seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"[{name}] counters: " + json.dumps(outcome.counters, sort_keys=True))
    if trace:
        print(f"[{name}] self-time shares:")
        for layer, share in outcome.shares.items():
            print(f"    {layer:<36} {share:8.2%}")
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    print(
        f"[{name}] attempted={outcome.attempted} failed={outcome.failed} "
        f"failed_frac={failed_frac:.6f}"
    )
    for problem in outcome.problems:
        print(f"[{name}] FAILED: {problem}")
    values = outcome.layers if trace else outcome.metrics
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in SPEC["per_layer" if trace else "end_to_end"]
    }
    if not trace:
        for k, m in metrics.items():
            print(f"[{name}] {k} = {m['value']:.6g} {m['unit']}")
    sys.stdout.flush()
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Run every ledger workload in a process of its own; merge the results.

    A separate process per workload keeps ``peak_rss_mb`` and every lazy
    cache of one workload out of the next one's figures.  The merged last
    line names each metric ``<workload>/<metric>``.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    ok = True
    for name in (w["name"] for w in SPEC["workloads"]):
        proc = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload",
                name,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"[{name}] FAILED: no result (exit code {proc.returncode})")
            merged["correct"] = False
            merged["attempted"] += 1
            merged["failed"] += 1
            ok = False
            continue
        ok = ok and proc.returncode == 0
        for key in ("attempted", "failed"):
            merged[key] += result[key]
        merged["correct"] = merged["correct"] and result["correct"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
        sys.stdout.flush()
    print(json.dumps(merged))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=sorted(workloads.WORKLOADS) + ["all"],
        help="workload to run ('all' runs each in a process of its own)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
