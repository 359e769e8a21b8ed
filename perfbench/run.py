#!/usr/bin/env python3
"""End-to-end benchmark of the repro library, in one process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload solve-n500 --seed 0 --seconds 20 --trace 0

``--trace 0`` runs whole rounds of the workload (a cold pass plus its warm
passes) until ``--seconds`` is used up, with nothing installed into the
program, and reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs one untimed round, then one round with a span around
every layer boundary (see :mod:`tracer`), and reports the per-layer metrics,
the tracing overhead, and writes a Chrome trace-event file under
``.bench_build/perfbench/``.

Every output is checked (:mod:`checks`); a unit failing a check counts as a
failed operation and the command exits 1 after printing its result.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Progress, the environment
record and the per-layer table go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as _platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
SPEC = ROOT / "BENCHMARK.json"

#: Fresh interpreters timed per run for ``setup_s`` (the median is reported).
SETUP_REPEATS = 5
#: Fresh interpreters run under ``-X importtime`` in a traced run.
IMPORT_PROBES = 3

#: Runs in a fresh interpreter: import the CLI, load the native kernels,
#: resolve the workload's backend.  argv: backend request, task count.
PROBE = r"""
import json, sys, time
t0 = time.perf_counter()
import repro.cli
t1 = time.perf_counter()
from repro.core.evaluator_native import native_available
native = native_available()
t2 = time.perf_counter()
from repro.core.backend import resolve_backend
backend = resolve_backend(sys.argv[1], n_tasks=int(sys.argv[2]))
print(json.dumps({"import_s": t1 - t0, "native_load_s": t2 - t1,
                  "native": native, "backend": backend}))
"""


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, wrong backend, ...)."""


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def program_env() -> dict[str, str]:
    """Environment of the program: this checkout's source, and every file it
    writes (compiled kernels, compiler scratch) kept under ``.bench_build``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_NATIVE_CACHE"] = str(BUILD / "native")
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def load_program() -> None:
    """Import the program from this checkout's ``src/``, nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program source at {SRC / 'repro'}; run from a checkout")
    if not SPEC.is_file():
        raise BenchmarkError(f"missing {SPEC.name} at the checkout root")
    env = program_env()
    os.environ.update({k: env[k] for k in ("REPRO_NATIVE_CACHE", "TMPDIR")})
    Path(env["TMPDIR"]).mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchmarkError(f"imported repro from {repro.__file__}, not from {SRC}")


def spec_metrics(section: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` lists them."""
    spec = json.loads(SPEC.read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def run_probe(workload: Any, *, importtime: bool = False) -> dict[str, Any]:
    """One fresh interpreter; adds its wall time and (optionally) networkx's
    cumulative import time from ``-X importtime``."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-c", PROBE, workload.backend, str(workload.probe_tasks)]
    begin = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=program_env(), capture_output=True, text=True, timeout=120
    )
    wall = time.perf_counter() - begin
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()[-800:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    if importtime:
        result["networkx_s"] = 0.0
        for line in proc.stderr.splitlines():
            # "import time: self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "networkx":
                result["networkx_s"] = int(parts[1].strip()) / 1e6
                break
    return result


def environment_record(workload: Any, backend: str) -> dict[str, Any]:
    import numpy

    from repro.core.evaluator_native import load_kernels, native_available

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "native_fill_threads": load_kernels().fill_threads if native_available() else None,
        "backend_request": workload.backend,
        "backend_resolved": backend,
        "python": _platform.python_version(),
        "numpy": numpy.__version__,
        "machine": _platform.machine(),
    }


def judge_rounds(workload: Any, rounds: list[tuple[Any, list[Any]]]) -> tuple[int, int, list[str]]:
    """Check the first cold pass; later passes must reproduce it exactly.

    Returns ``(attempted, failed, reasons)``: one operation per unit of
    every cold pass; a unit fails when it fails a check, differs from the
    first round, or a warm pass of its round does not reproduce it.
    """
    from checks import check_report_equal

    first = rounds[0][0]
    verdict = workload.check(first)
    attempted = failed = 0
    reasons: list[str] = []
    for number, (cold, warms) in enumerate(rounds, start=1):
        bad = dict(verdict)
        bad.update(
            {i: f"round {number}: {reason}"
             for i, reason in check_report_equal(first, cold).items()}
        )
        for warm in warms:
            bad.update(
                {i: f"round {number} warm: {reason}"
                 for i, reason in check_report_equal(cold, warm).items()}
            )
        attempted += len(first.unit_digests)
        failed += len(bad)
        reasons.extend(f"unit {i}: {bad[i]}" for i in sorted(bad))
    return attempted, failed, reasons


def timed_run(workload: Any, seconds: float) -> tuple[dict[str, float], int, int, list[str]]:
    """End-to-end metrics from whole rounds, with nothing installed."""
    setups = [run_probe(workload)["wall_s"] for _ in range(SETUP_REPEATS)]
    workload.warm_up()
    rounds: list[tuple[Any, list[Any]]] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        cold = workload.cold()
        warms = [workload.warm() for _ in range(workload.warm_repeats)]
        if rounds:
            cold.outputs = None  # only the first round's outputs are checked
        rounds.append((cold, warms))
        now = time.perf_counter()
        log(f"round {len(rounds)}: cold {cold.seconds:.3f}s, warm "
            f"{statistics.median(w.seconds for w in warms):.4f}s")
        if now - start + (now - began) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, reasons = judge_rounds(workload, rounds)

    units = [ms for cold, _ in rounds for ms in cold.unit_ms]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "cold_s": statistics.median(cold.seconds for cold, _ in rounds),
        "unit_p50_ms": statistics.median(units),
        "unit_p90_ms": statistics.quantiles(units, n=10)[8] if len(units) > 1 else units[0],
        "warm_s": statistics.median(w.seconds for _, warms in rounds for w in warms),
    }
    log(f"{len(rounds)} round(s), {len(units)} unit latencies")
    return metrics, attempted, failed, reasons


def traced_run(workload: Any, seed: int) -> tuple[dict[str, float], int, int, list[str]]:
    """Per-layer metrics from one traced round, next to one untraced round."""
    from tracer import LAYER_SPANS, Tracer, install_layer_spans

    probes = [run_probe(workload, importtime=True) for _ in range(IMPORT_PROBES)]
    workload.warm_up()
    cold = workload.cold()
    warm = workload.warm()
    untraced_s = cold.seconds + warm.seconds

    tracer = Tracer()
    with install_layer_spans(tracer):
        traced_cold = workload.cold(tracer)
        traced_warm = workload.warm(tracer)
    traced_cold.outputs = None
    attempted, failed, reasons = judge_rounds(
        workload, [(cold, [warm]), (traced_cold, [traced_warm])]
    )

    table = tracer.layer_table()
    roots = [(end - start) / 1e9 for _, start, end, parent in tracer.spans if parent < 0]
    metrics: dict[str, float] = {
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "cli.import_networkx_s": statistics.median(p["networkx_s"] for p in probes),
        "native.load_s": statistics.median(p["native_load_s"] for p in probes),
        "trace.pass_s": sum(roots),
        "trace.unattributed_s": table.get("pass", {}).get("self_s", 0.0),
        "trace.overhead_pct": 100.0 * (sum(roots) - untraced_s) / untraced_s,
        "cache.disk_bytes": float(traced_cold.files.get("cache", 0)),
        "journal.bytes": float(traced_cold.files.get("journal", 0)),
    }
    for span in LAYER_SPANS:
        entry = table.get(span, {"calls": 0, "self_s": 0.0})
        metrics[f"{span}.calls"] = entry["calls"]
        metrics[f"{span}.self_s"] = entry["self_s"]
    metrics.update(tracer.counters)

    attributed = sum(e["self_s"] for e in table.values())
    if abs(attributed - metrics["trace.pass_s"]) > 1e-6:
        raise BenchmarkError(
            f"layer self times {attributed} do not add up to the traced pass "
            f"{metrics['trace.pass_s']}"
        )
    path = tracer.write_chrome_trace(BUILD / f"trace-{workload.name}-{seed}.json")
    log(f"chrome trace: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    log(f"untraced round {untraced_s:.3f}s, traced {sum(roots):.3f}s "
        f"({metrics['trace.overhead_pct']:+.1f}%)")
    log(f"{'layer':<30} {'calls':>9} {'self_s':>10} {'share':>7}")
    for span in ("pass", *LAYER_SPANS):
        entry = table.get(span)
        if entry:
            log(f"{span:<30} {entry['calls']:>9} {entry['self_s']:>10.4f} "
                f"{100 * entry['self_s'] / metrics['trace.pass_s']:>6.1f}%")
    return metrics, attempted, failed, reasons


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Run one workload; returns the result object (raises BenchmarkError)."""
    load_program()
    from workloads import WORKLOADS, make_workload

    if workload_name not in WORKLOADS:
        raise BenchmarkError(
            f"unknown workload {workload_name!r}; expected one of {sorted(WORKLOADS)}"
        )
    wanted = spec_metrics("per_layer" if trace else "end_to_end")
    BUILD.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=BUILD))
    try:
        workload = make_workload(workload_name, seed, workdir)
        backend = workload.resolved_backend()
        if workload.requires_native and backend != "native":
            from repro.core.evaluator_native import native_unavailable_reason

            raise BenchmarkError(
                f"{workload_name} measures the native engine, but backend "
                f"{workload.backend!r} resolved to {backend!r} "
                f"({native_unavailable_reason() or 'native not preferred'})"
            )
        log("environment " + json.dumps(environment_record(workload, backend)))
        run_probe(workload)  # untimed: compiles the kernels and bytecode if needed
        if trace:
            metrics, attempted, failed, reasons = traced_run(workload, seed)
        else:
            metrics, attempted, failed, reasons = timed_run(workload, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in reasons[:20]:
        log(f"FAILED {reason}")
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise BenchmarkError(f"metrics not produced: {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in wanted.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        log(f"error: {exc}")
        return 2
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
