#!/usr/bin/env python3
"""Steadiness mode: run one workload N times and summarise each metric.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload campaign-small --runs 10

Each run is a separate ``perfbench/run.py`` process with its own seed
(``--first-seed``, ``--first-seed + 1``, ...).  For every metric the summary
gives the median, the first and third quartiles (``statistics.quantiles``
with ``n=4``) and the spread: the distance between the quartiles as a share
of the median, next to the metric's bound from ``BENCHMARK.json`` and a
third of it, the target for a steady benchmark.  It also prints the failed
share of the runs, which must be identical across runs.  The bounds in
``BENCHMARK.json`` were set from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(results: list[dict], bounds: dict[str, float]) -> list[str]:
    lines = [f"{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
             f"{'bound/3':>8}  steady"]
    names = list(results[0]["metrics"])
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else ("yes" if spread < bound / 3 else "NO")
        target = "" if bound is None else f"{bound / 3:8.4f}"
        lines.append(f"{name:<32} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                     f"{spread:>8.4f} {target:>8}  {verdict}")
    shares = sorted({(r["failed"], r["attempted"]) for r in results})
    lines.append(f"failed/attempted per run: {shares}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if not args.trace else {}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"run with seed {seed} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not results:
            print(next((line for line in proc.stderr.splitlines() if "environment" in line), ""))
        results.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    print("\n".join(summarise(results, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
