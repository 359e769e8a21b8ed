#!/usr/bin/env python3
"""Self-test of the benchmark: smoke runs and checks that can fail.

Usage (from the root of a checkout; about a minute on 2 CPUs)::

    python3 perfbench/selftest.py

* Runs every workload at smoke size, timed and traced, and asserts that
  every metric ``BENCHMARK.json`` names is printed with its unit, that the
  end-to-end values are positive, and that the traced layers carry work.
* Feeds each correctness check a perturbed output (a makespan off by 1e-6,
  a ratio below 1, a winner worse than its N = 0 candidate, a Monte-Carlo
  mean 10 standard errors away, a warm report one byte off) and asserts
  the check flags exactly the perturbed unit.
* Asserts that the layer self times of a traced pass add up to the pass.
* Runs the benchmark in a directory holding only ``BENCHMARK.json`` and
  ``perfbench/`` and asserts it exits non-zero without a result line.

Exits 0 when every test passes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sibling module; needs HERE on sys.path)

#: Class attributes that shrink each workload to a few seconds.
SMOKE_SIZES: dict[str, dict[str, Any]] = {
    "solve-n500": {"n_tasks": 60, "warm_repeats": 1},
    "campaign-small": {"sizes": (40,), "n_seeds": 2, "warm_repeats": 1},
    "robustness-numpy": {"sizes": (40,), "n_runs": 300, "warm_repeats": 1},
}

#: Per-layer counters that must be non-zero on each workload's traced run.
LAYERS_USED: dict[str, tuple[str, ...]] = {
    "solve-n500": ("checkpointing.select.calls", "sweep.evaluate.calls",
                   "search.distinct_sets", "sweep.kernel_positions"),
    "campaign-small": ("scenarios.build_workflow.calls", "journal.record.calls",
                       "cache.hits", "cache.put.calls", "keys.unit_key.calls"),
    "robustness-numpy": ("simulation.replicas", "simulation.run_monte_carlo.calls",
                         "sweep.evaluate.calls"),
}


@contextmanager
def smoke(name: str) -> Iterator[Any]:
    """The workload class of ``name``, shrunk to smoke size for the block."""
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    saved = {attr: getattr(cls, attr) for attr in SMOKE_SIZES[name]}
    for attr, value in SMOKE_SIZES[name].items():
        setattr(cls, attr, value)
    try:
        yield cls
    finally:
        for attr, value in saved.items():
            setattr(cls, attr, value)


def smoke_pass(name: str) -> tuple[Any, Any]:
    """One smoke-size cold pass: ``(workload, pass result)``."""
    with smoke(name) as cls:
        workdir = Path(tempfile.mkdtemp(dir=run.BUILD))
        try:
            workload = cls(0, workdir)
            for attr, value in SMOKE_SIZES[name].items():
                setattr(workload, attr, value)  # outlives the class override
            return workload, workload.cold()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def test_metrics_printed() -> None:
    spec = json.loads(run.SPEC.read_text())
    for name in SMOKE_SIZES:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            with smoke(name):
                result = run.run(name, seed=0, seconds=0.01, trace=trace)
            assert result["correct"] and result["failed"] == 0, (name, result)
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in spec[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == expected, (name, section, set(expected) ^ set(printed))
            for metric, entry in result["metrics"].items():
                assert math.isfinite(entry["value"]), (name, metric)
                if not trace:
                    assert entry["value"] > 0, (name, metric)
            if trace:
                for metric in LAYERS_USED[name]:
                    assert result["metrics"][metric]["value"] > 0, (name, metric)


def _perturb_result(result: Any, **fields: float) -> Any:
    evaluation = dataclasses.replace(result.evaluation, **fields)
    return dataclasses.replace(result, evaluation=evaluation)


def test_solve_checks_fail() -> None:
    from checks import check_solve_results

    workload, cold = smoke_pass("solve-n500")
    out = cold.outputs
    results = list(out["results"])
    assert check_solve_results(out["workflow"], out["platform"], results) == {}

    # Index 2 is DF-CkptW, a count-search heuristic.
    winner = results[2]
    cases = {
        "makespan off by 1e-6": (
            _perturb_result(winner, expected_makespan=winner.expected_makespan * (1 + 1e-6)),
            "python reference",
        ),
        "T/T_inf below 1": (
            _perturb_result(winner, expected_makespan=0.5 * winner.evaluation.failure_free_work),
            "T/T_inf",
        ),
        "winner worse than its N = 0 candidate": (
            _perturb_result(winner, expected_makespan=winner.expected_makespan * 1e6),
            "N = 0 / N = n",
        ),
    }
    for label, (bad, needle) in cases.items():
        failures = check_solve_results(
            out["workflow"], out["platform"], results[:2] + [bad] + results[3:]
        )
        assert list(failures) == [2] and needle in failures[2], (label, failures)


def test_campaign_checks_fail() -> None:
    from checks import check_campaign_rows

    workload, cold = smoke_pass("campaign-small")
    rows = list(cold.outputs.rows)
    check = lambda rs: check_campaign_rows(  # noqa: E731
        rs, workload.scenarios, max_candidates=workload.max_candidates
    )
    assert check(rows) == {}

    sampled = next(
        i for i, row in enumerate(rows)
        if (row.family, row.n_tasks, row.seed, row.heuristic)
        == (workload.scenarios[0].family, workload.scenarios[0].n_tasks,
            min(workload.seeds), "DF-CkptW")
    )
    row = rows[sampled]
    cases = {
        "makespan off by 1e-6": (
            dataclasses.replace(row, expected_makespan=row.expected_makespan * (1 + 1e-6)),
            "python reference",
        ),
        "T/T_inf below 1": (dataclasses.replace(row, overhead_ratio=0.99), "T/T_inf"),
        "DF winner worse than DF-CkptNvr": (
            dataclasses.replace(row, expected_makespan=row.expected_makespan * 1e6),
            "DF baselines",
        ),
    }
    for label, (bad, needle) in cases.items():
        failures = check(rows[:sampled] + [bad] + rows[sampled + 1:])
        assert list(failures) == [sampled] and needle in failures[sampled], (label, failures)


def test_robustness_checks_fail() -> None:
    from checks import check_robustness_rows

    workload, cold = smoke_pass("robustness-numpy")
    rows = list(cold.outputs.rows)
    check = lambda rs: check_robustness_rows(  # noqa: E731
        rs, families=("montage", "cybershake", "ligo", "genome"), sizes=workload.sizes,
        seed=workload.instance_seed, max_candidates=workload.max_candidates,
    )
    assert check(rows) == {}

    # Row 0: the first grid point (a python-sampled one), exponential law.
    row = rows[0]
    assert row.law == "exponential"
    far = row.analytical + 10 * row.mc_std / math.sqrt(row.n_runs)
    cases = {
        "Monte-Carlo mean 10 standard errors off": (
            dataclasses.replace(row, mc_mean=far), "exponential"
        ),
        "analytical off by 1e-6": (
            dataclasses.replace(row, analytical=row.analytical * (1 + 1e-6)),
            "python reference",
        ),
        "T/T_inf below 1": (dataclasses.replace(row, analytical=1e-3), "T/T_inf"),
    }
    for label, (bad, needle) in cases.items():
        failures = check([bad] + rows[1:])
        assert 0 in failures and needle in failures[0], (label, failures)
        assert set(failures) == {0}, (label, failures)


def test_warm_report_must_match() -> None:
    from checks import check_report_equal
    from workloads import PassResult

    cold = PassResult(1.0, [], ["a", "b", "c"], "a\nb\nc")
    assert check_report_equal(cold, dataclasses.replace(cold)) == {}
    assert list(check_report_equal(cold, dataclasses.replace(
        cold, unit_digests=["a", "B", "c"]))) == [1]
    assert sorted(check_report_equal(cold, dataclasses.replace(
        cold, report="a\nb\nc "))) == [0, 1, 2]


def test_layer_self_times_add_up() -> None:
    from tracer import Tracer

    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(20000)))
    middle = tracer.wrap("middle", lambda: [leaf() for _ in range(3)])
    with tracer.span("pass"):
        middle()
        leaf()
    table = tracer.layer_table()
    root = next(end - start for _, start, end, parent in tracer.spans if parent < 0) / 1e9
    assert table["leaf"]["calls"] == 4 and table["middle"]["calls"] == 1
    assert abs(sum(e["self_s"] for e in table.values()) - root) < 1e-9


def test_refuses_without_program() -> None:
    run.BUILD.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.BUILD))
    try:
        shutil.copy(run.SPEC, bare / run.SPEC.name)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "solve-n500",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc
    assert '"attempted"' not in proc.stdout, proc.stdout


TESTS: tuple[Callable[[], None], ...] = (
    test_layer_self_times_add_up,
    test_warm_report_must_match,
    test_refuses_without_program,
    test_solve_checks_fail,
    test_campaign_checks_fail,
    test_robustness_checks_fail,
    test_metrics_printed,
)


def main() -> int:
    run.load_program()
    run.BUILD.mkdir(parents=True, exist_ok=True)
    failed = 0
    for test in TESTS:
        try:
            test()
        except Exception:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {test.__name__}\n{traceback.format_exc()}", flush=True)
        else:
            print(f"ok   {test.__name__}", flush=True)
    print(f"{len(TESTS) - failed}/{len(TESTS)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
