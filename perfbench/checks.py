"""Correctness checks that do not copy the program's current output.

Each check recomputes what it compares against: the pure-Python Theorem-3
reference (``backend="python"``) instead of the numpy / native engines, the
CkptNvr and CkptAlws sets on the winner's own linearization, and the
Monte-Carlo z-test from a row's raw fields rather than the program's own
confidence-interval bounds.  Every check returns ``{unit index: reason}``
for the units that fail it; an empty dict means the pass is correct.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

__all__ = [
    "REL_TOL",
    "Z_LIMIT",
    "check_campaign_rows",
    "check_report_equal",
    "check_robustness_rows",
    "check_solve_results",
    "close",
]

#: Relative tolerance between an engine and the pure-Python reference.
REL_TOL = 1e-9
#: Standard errors the Monte-Carlo mean may sit from the exact expectation.
Z_LIMIT = 4.0

#: Heuristics re-solved with the python backend on the campaign sample, one
#: per (family, size) grid point in grid order; every linearization and
#: every checkpointing strategy appears at least once.
CAMPAIGN_SAMPLE_HEURISTICS: tuple[str, ...] = (
    "DF-CkptW", "BF-CkptC", "RF-CkptD", "DF-CkptPer",
    "RF-CkptW", "BF-CkptD", "RF-CkptPer", "DF-CkptAlws",
)

#: Robustness grid points (by index) re-solved with the python backend.
ROBUSTNESS_SAMPLE_POINTS: tuple[int, ...] = (0, -1)

SEARCH_FREE = ("CkptNvr", "CkptAlws")


def close(value: float, reference: float, rel: float = REL_TOL) -> bool:
    """``value`` agrees with ``reference`` within ``rel`` (relative)."""
    if value == reference:
        return True
    return abs(value - reference) <= rel * max(abs(value), abs(reference))


def _ratio_ok(ratio: float) -> bool:
    return math.isfinite(ratio) and ratio >= 1.0


def _merge(failures: dict[int, str], index: int, reason: str) -> None:
    failures[index] = f"{failures[index]}; {reason}" if index in failures else reason


def check_solve_results(workflow: Any, platform: Any, results: Sequence[Any]) -> dict[int, str]:
    """Checks of one solve per heuristic on a single instance.

    * the winner's makespan equals the python reference within 1e-9;
    * ``T / T_inf`` is finite and >= 1, from the program and from the
      reference value over the total weight;
    * a count-search winner is no worse than the sets the search evaluates
      at N = 0 (CkptNvr) and N = n on the same linearization.  For CkptW,
      CkptC and CkptD the N = n set is CkptAlws; CkptPer's N = n set keeps
      at most n - 1 checkpoints, so CkptAlws does not bound it.
    """
    from repro.core.evaluator import evaluate_schedule
    from repro.core.schedule import Schedule
    from repro.heuristics.checkpointing import get_selector

    failures: dict[int, str] = {}
    baselines: dict[tuple[str, tuple[int, ...]], float] = {}
    total_weight = workflow.total_weight
    for index, result in enumerate(results):
        reference = evaluate_schedule(result.schedule, platform, backend="python")
        value = result.expected_makespan
        if not close(value, reference.expected_makespan):
            _merge(failures, index, f"{result.heuristic}: makespan {value!r} != "
                   f"python reference {reference.expected_makespan!r}")
        for ratio in (result.overhead_ratio, reference.expected_makespan / total_weight):
            if not _ratio_ok(ratio):
                _merge(failures, index, f"{result.heuristic}: T/T_inf = {ratio!r}")
        if result.checkpoint_strategy in SEARCH_FREE:
            continue
        strategy = result.checkpoint_strategy
        order = tuple(result.schedule.order)
        if (strategy, order) not in baselines:
            top = get_selector(strategy)(workflow, order, workflow.n_tasks)
            baselines[strategy, order] = min(
                evaluate_schedule(
                    Schedule(workflow, order, selected), platform, backend="python"
                ).expected_makespan
                for selected in (frozenset(), frozenset(top))
            )
        bound = baselines[strategy, order]
        if value > bound * (1.0 + REL_TOL):
            _merge(failures, index, f"{result.heuristic}: search winner {value!r} worse "
                   f"than its N = 0 / N = n candidates ({bound!r})")
    return failures


def _python_solve(scenario: Any, heuristic: str, *, max_candidates: int) -> float:
    """Expected makespan of one heuristic, solved entirely on the python backend."""
    from repro.experiments.scenarios import build_workflow
    from repro.heuristics.registry import parse_heuristic_name, solve_heuristic
    from repro.heuristics.search import candidate_counts

    workflow = build_workflow(scenario)
    _, strategy = parse_heuristic_name(heuristic)
    counts = (
        None
        if strategy in SEARCH_FREE
        else candidate_counts(workflow.n_tasks, mode="geometric", max_candidates=max_candidates)
    )
    result = solve_heuristic(
        workflow, scenario.platform, heuristic, rng=scenario.seed, counts=counts,
        backend="python",
    )
    return result.expected_makespan


def check_campaign_rows(
    rows: Sequence[Any], scenarios: Sequence[Any], *, max_candidates: int
) -> dict[int, str]:
    """Checks of a campaign's rows (rows carry no schedule).

    * every ``T / T_inf`` is finite and >= 1 (as reported, and recomputed);
    * every DF count-search row is no worse than the DF-CkptNvr row of the
      same instance, and DF-CkptW/C/D rows no worse than DF-CkptAlws (DF is
      deterministic, so all DF heuristics share one linearization; the
      search evaluates N = 0, and N = n is CkptAlws except for CkptPer);
    * a fixed sample, one row per grid point, re-solved on the python
      backend, agrees within 1e-9.
    """
    failures: dict[int, str] = {}
    baseline: dict[tuple[Any, ...], float] = {}
    for row in rows:
        if row.heuristic in ("DF-CkptNvr", "DF-CkptAlws"):
            key = (row.family, row.n_tasks, row.seed, row.downtime, row.processors)
            baseline[key + (row.checkpoint_strategy,)] = row.expected_makespan
    for index, row in enumerate(rows):
        for ratio in (row.overhead_ratio, row.expected_makespan / row.failure_free_work):
            if not _ratio_ok(ratio):
                _merge(failures, index, f"{row.heuristic}: T/T_inf = {ratio!r}")
        if row.linearization == "DF" and row.checkpoint_strategy not in SEARCH_FREE:
            key = (row.family, row.n_tasks, row.seed, row.downtime, row.processors)
            bounds = ("CkptNvr",) if row.checkpoint_strategy == "CkptPer" else SEARCH_FREE
            bound = min(baseline.get(key + (b,), math.inf) for b in bounds)
            if row.expected_makespan > bound * (1.0 + REL_TOL):
                _merge(failures, index, f"{row.heuristic}: {row.expected_makespan!r} worse "
                       f"than the DF baselines {bound!r}")
    seeds = sorted({row.seed for row in rows})
    for point, scenario in enumerate(scenarios):
        heuristic = CAMPAIGN_SAMPLE_HEURISTICS[point % len(CAMPAIGN_SAMPLE_HEURISTICS)]
        seed = seeds[point % len(seeds)]
        match = [
            i for i, row in enumerate(rows)
            if (row.family, row.n_tasks, row.seed, row.heuristic)
            == (scenario.family, scenario.n_tasks, seed, heuristic)
        ]
        if len(match) != 1:
            for i in match:
                _merge(failures, i, f"{heuristic}: duplicated row")
            continue
        reference = _python_solve(
            scenario.with_updates(seed=seed), heuristic, max_candidates=max_candidates
        )
        value = rows[match[0]].expected_makespan
        if not close(value, reference):
            _merge(failures, match[0], f"{heuristic} seed {seed}: {value!r} != python "
                   f"reference {reference!r}")
    return failures


def check_robustness_rows(
    rows: Sequence[Any],
    *,
    families: Sequence[str],
    sizes: Sequence[int],
    seed: int,
    max_candidates: int,
) -> dict[int, str]:
    """Checks of a robustness campaign's rows.

    * exponential rows: ``|mc_mean - analytical| <= 4 * mc_std / sqrt(n_runs)``;
    * ``T / T_inf`` (analytical over the instance's total weight) is finite
      and >= 1;
    * the rows of a fixed sample of grid points re-solved on the python
      backend agree within 1e-9.
    """
    from repro.experiments.scenarios import build_workflow, scenario_grid

    heuristics = {row.heuristic for row in rows}
    heuristic = heuristics.pop() if len(heuristics) == 1 else "DF-CkptW"
    grid = scenario_grid(list(families), list(sizes), heuristics=(heuristic,), seed=seed)
    by_point = {(s.family, s.n_tasks): s for s in grid}
    weights = {point: build_workflow(s).total_weight for point, s in by_point.items()}

    failures: dict[int, str] = {}
    for index, row in enumerate(rows):
        point = (row.family, row.n_tasks)
        if point not in weights:
            _merge(failures, index, f"unexpected grid point {point}")
            continue
        ratio = row.analytical / weights[point]
        if not _ratio_ok(ratio):
            _merge(failures, index, f"{row.law_label}: T/T_inf = {ratio!r}")
        if row.law == "exponential":
            limit = Z_LIMIT * row.mc_std / math.sqrt(row.n_runs)
            if not abs(row.mc_mean - row.analytical) <= limit:
                _merge(failures, index, f"{row.scenario_label} exponential: |mc_mean "
                       f"{row.mc_mean!r} - analytical {row.analytical!r}| > {limit!r}")
    for point_index in ROBUSTNESS_SAMPLE_POINTS:
        scenario = grid[point_index]
        reference = _python_solve(scenario, heuristic, max_candidates=max_candidates)
        for index, row in enumerate(rows):
            if (row.family, row.n_tasks) != (scenario.family, scenario.n_tasks):
                continue
            if not close(row.analytical, reference):
                _merge(failures, index, f"{row.scenario_label}: analytical "
                       f"{row.analytical!r} != python reference {reference!r}")
    return failures


def check_report_equal(cold: Any, warm: Any) -> dict[int, str]:
    """A warm pass must reproduce the cold pass byte for byte.

    Units whose outputs differ fail; a report that differs while every
    unit matches fails every unit (the difference is in the rendering).
    """
    failures = {
        i: "warm output differs from cold"
        for i, (a, b) in enumerate(zip(cold.unit_digests, warm.unit_digests))
        if a != b
    }
    for i in range(len(warm.unit_digests), len(cold.unit_digests)):
        failures[i] = "missing from the warm pass"
    if not failures and warm.report.encode() != cold.report.encode():
        failures = {i: "warm report bytes differ" for i in range(len(cold.unit_digests))}
    return failures
