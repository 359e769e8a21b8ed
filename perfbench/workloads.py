"""The three benchmark workloads, each driving one public library entry point.

* ``solve-n500`` — :func:`repro.heuristics.registry.solve_heuristic`, all 14
  heuristics on one cybershake n=500 instance, exhaustive count search;
* ``campaign-small`` — :func:`repro.experiments.campaign.run_campaign` over a
  4-family x 2-size x 5-seed grid, cold into a fresh sqlite cache and
  journal, then warm from the filled cache;
* ``robustness-numpy`` — :func:`repro.experiments.robustness.run_robustness`
  on the numpy engines (analytical solve + batched Monte-Carlo).

Everything runs in this process with ``jobs=1``.  A workload's inputs are
derived from the ``--seed`` argument alone.  A *pass* returns its wall
time, the latency of each unit, the per-unit outputs and the rendered
report; the cold/warm comparison and the correctness checks
(:mod:`checks`) work on those.
"""

from __future__ import annotations

import gc
import time
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from tracer import Tracer, trace_cache, trace_journal

__all__ = ["WORKLOADS", "PassResult", "Workload", "make_workload"]

FAMILIES: tuple[str, ...] = ("montage", "cybershake", "ligo", "genome")


@dataclass
class PassResult:
    """One cold or warm pass of a workload."""

    seconds: float
    #: Wall time of each unit, in unit order (cold passes only).
    unit_ms: list[float]
    #: Per-unit canonical text: equal texts mean equal outputs.
    unit_digests: list[str]
    #: The report a user of the entry point sees, as rendered by the program.
    report: str
    #: Workload-specific outputs the correctness checks read.
    outputs: Any = None
    #: Sizes of files the pass left behind (bytes), by name.
    files: dict[str, int] = field(default_factory=dict)


class UnitClock:
    """Progress reporter that timestamps every completed unit.

    The campaign runtime calls ``update`` once after its cache/journal
    lookups and once per computed unit, so consecutive timestamps bracket
    exactly one unit: its solve plus its journal and cache writes.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[int, float]] = []

    def start(self, total: int) -> None:
        self.marks = []

    def update(self, done: int, info: str = "") -> None:
        self.marks.append((int(done), time.perf_counter()))

    def finish(self) -> None:
        pass

    def unit_ms(self) -> list[float]:
        return [
            (t1 - t0) * 1e3
            for (d0, t0), (d1, t1) in zip(self.marks, self.marks[1:])
            if d1 == d0 + 1
        ]


def _span(tracer: Tracer | None, name: str) -> Any:
    return tracer.span(name) if tracer is not None else nullcontext()


def _layer(tracer: Tracer | None, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    return tracer.wrap(name, fn) if tracer is not None else fn


def reset_process_state() -> None:
    """Start a pass like a fresh ``repro`` process: forget the per-process
    instance memos (private; a version without them is fine) and collect
    the previous pass's garbage, so no pass pays for another's."""
    from repro.core import sweep
    from repro.runtime import runner

    gc.collect()
    memo = getattr(runner, "_WORKFLOW_MEMO", None)
    if memo is not None and hasattr(memo, "clear"):
        memo.clear()
    tables = getattr(sweep, "_TABLES_CACHE", None)
    if isinstance(tables, dict):
        tables.clear()


def _file_size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


class Workload:
    """Shared pass plumbing; subclasses define the inputs and one pass."""

    name = ""
    #: Backend request handed to the library.
    backend = "auto"
    #: Size used to resolve ``backend`` for the guard and the set-up probe.
    probe_tasks = 0
    #: Whether ``backend`` must resolve to the compiled kernels.
    requires_native = False
    #: Warm passes per round (each re-opens the filled cache).
    warm_repeats = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        #: sqlite file of the latest cold pass, which its warm passes re-open.
        self.cache_path: Path | None = None
        self._round = 0

    def resolved_backend(self) -> str:
        from repro.core.backend import resolve_backend

        return resolve_backend(self.backend, n_tasks=self.probe_tasks)

    def new_cache_path(self) -> Path:
        self._round += 1
        self.cache_path = self.workdir / f"{self.name}-{self._round}.sqlite"
        return self.cache_path

    def filled_cache_path(self) -> Path:
        if self.cache_path is None:
            raise RuntimeError("warm pass before a cold pass")
        return self.cache_path

    def warm_up(self) -> None:
        """Load lazily imported engines so the first timed pass does not."""
        from repro.experiments.scenarios import Scenario, build_workflow
        from repro.heuristics.registry import solve_heuristic

        scenario = Scenario(family="montage", n_tasks=40, failure_rate=1e-3, seed=0)
        solve_heuristic(
            build_workflow(scenario), scenario.platform, "DF-CkptW", rng=0,
            backend=self.backend,
        )

    def cold(self, tracer: Tracer | None = None) -> PassResult:
        raise NotImplementedError

    def warm(self, tracer: Tracer | None = None) -> PassResult:
        raise NotImplementedError

    def check(self, cold: PassResult) -> dict[int, str]:
        """Independent checks of a cold pass: failing unit index -> reason."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# solve-n500
# ----------------------------------------------------------------------
class SolveN500(Workload):
    """All 14 heuristics on one cybershake n=500 instance (exhaustive search)."""

    name = "solve-n500"
    backend = "auto"
    probe_tasks = 500
    requires_native = True
    warm_repeats = 15
    family = "cybershake"
    n_tasks = 500
    failure_rate = 1e-3
    #: The instance is the profiled one for every ``--seed``; the seed drives
    #: the RF heuristics' random linearizations.
    instance_seed = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        from repro.experiments.scenarios import Scenario

        self.scenario = Scenario(
            family=self.family, n_tasks=self.n_tasks,
            failure_rate=self.failure_rate, seed=self.instance_seed, label="perfbench",
        )

    def _key(self, keys: Any, tracer: Tracer | None, digest: str, heuristic: str) -> str:
        return _layer(tracer, "keys.unit_key", keys.scenario_unit_key)(
            platform=self.scenario.platform,
            heuristic=heuristic,
            search_mode="exhaustive",
            max_candidates=self.n_tasks,
            seed=self.seed,
            workflow_digest=digest,
        )

    @staticmethod
    def _line(heuristic: str, makespan: float, ratio: float, checkpointed: list[int]) -> str:
        return (
            f"{heuristic:<12} {makespan!r:>22} {ratio!r:>22} {len(checkpointed):>4} "
            f"{zlib.crc32(repr(checkpointed).encode()):08x}"
        )

    def cold(self, tracer: Tracer | None = None) -> PassResult:
        from repro.experiments import scenarios
        from repro.heuristics import registry
        from repro.runtime import keys
        from repro.runtime.cache import ResultCache

        reset_process_state()
        cache_path = self.new_cache_path()
        begin = time.perf_counter()
        with _span(tracer, "pass"):
            workflow = scenarios.build_workflow(self.scenario)
            platform = self.scenario.platform
            cache = ResultCache(path=cache_path)
            if tracer is not None:
                trace_cache(tracer, cache)
            results, unit_ms, lines = [], [], []
            digest = keys.workflow_fingerprint(workflow)
            for heuristic in registry.HEURISTIC_NAMES:
                t0 = time.perf_counter()
                result = registry.solve_heuristic(
                    workflow, platform, heuristic, rng=self.seed, backend=self.backend
                )
                unit_ms.append((time.perf_counter() - t0) * 1e3)
                checkpointed = sorted(result.schedule.checkpointed)
                cache.put(
                    self._key(keys, tracer, digest, heuristic),
                    {
                        "expected_makespan": result.expected_makespan,
                        "overhead_ratio": result.overhead_ratio,
                        "checkpointed": checkpointed,
                    },
                )
                results.append(result)
                lines.append(
                    self._line(heuristic, result.expected_makespan,
                               result.overhead_ratio, checkpointed)
                )
            cache.close()
        seconds = time.perf_counter() - begin
        return PassResult(
            seconds=seconds,
            unit_ms=unit_ms,
            unit_digests=lines,
            report="\n".join(lines),
            outputs={"workflow": workflow, "platform": platform, "results": results},
            files={"cache": _file_size(cache_path)},
        )

    def warm(self, tracer: Tracer | None = None) -> PassResult:
        from repro.experiments import scenarios
        from repro.heuristics import registry
        from repro.runtime import keys
        from repro.runtime.cache import ResultCache

        cache_path = self.filled_cache_path()
        reset_process_state()
        begin = time.perf_counter()
        with _span(tracer, "pass"):
            workflow = scenarios.build_workflow(self.scenario)
            cache = ResultCache(path=cache_path)
            if tracer is not None:
                trace_cache(tracer, cache)
            digest = keys.workflow_fingerprint(workflow)
            lines = []
            for heuristic in registry.HEURISTIC_NAMES:
                outcome = cache.get(self._key(keys, tracer, digest, heuristic))
                if outcome is None:
                    lines.append(f"{heuristic:<12} (cache miss)")
                    continue
                lines.append(
                    self._line(heuristic, outcome["expected_makespan"],
                               outcome["overhead_ratio"], outcome["checkpointed"])
                )
            cache.close()
        return PassResult(
            seconds=time.perf_counter() - begin,
            unit_ms=[],
            unit_digests=lines,
            report="\n".join(lines),
        )

    def check(self, cold: PassResult) -> dict[int, str]:
        from checks import check_solve_results

        out = cold.outputs
        return check_solve_results(out["workflow"], out["platform"], out["results"])


# ----------------------------------------------------------------------
# campaign-small
# ----------------------------------------------------------------------
class CampaignSmall(Workload):
    """A Section-6 style campaign: cold (cache + journal), then warm."""

    name = "campaign-small"
    backend = "auto"
    probe_tasks = 50
    requires_native = True
    warm_repeats = 3
    sizes = (50, 100)
    n_seeds = 5
    max_candidates = 12

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        from repro.experiments.scenarios import scenario_grid

        self.scenarios = scenario_grid(FAMILIES, self.sizes, label="campaign")
        self.seeds = tuple(self.seed * self.n_seeds + i for i in range(self.n_seeds))

    def _run(self, tracer: Tracer | None, cache_path: Path, journal_path: Path | None) -> PassResult:
        from repro.experiments.campaign import run_campaign
        from repro.runtime.cache import ResultCache
        from repro.runtime.journal import CampaignJournal

        reset_process_state()
        clock = UnitClock()
        begin = time.perf_counter()
        with _span(tracer, "pass"):
            cache = ResultCache(path=cache_path)
            journal = CampaignJournal(journal_path) if journal_path is not None else None
            if tracer is not None:
                trace_cache(tracer, cache)
                if journal is not None:
                    trace_journal(tracer, journal)
            try:
                with _span(tracer, "runner"):
                    result = run_campaign(
                        self.scenarios,
                        seeds=self.seeds,
                        search_mode="geometric",
                        max_candidates=self.max_candidates,
                        jobs=1,
                        cache=cache,
                        backend=self.backend,
                        journal=journal,
                        progress=clock,
                    )
                with _span(tracer, "reporting.render"):
                    report = result.render()
            finally:
                cache.close()
                if journal is not None:
                    journal.close()
        seconds = time.perf_counter() - begin
        files = {"cache": _file_size(cache_path)}
        if journal_path is not None:
            files["journal"] = _file_size(journal_path)
        return PassResult(
            seconds=seconds,
            unit_ms=clock.unit_ms() if journal_path is not None else [],
            unit_digests=[row_digest(row) for row in result.rows],
            report=report,
            outputs=result,
            files=files,
        )

    def cold(self, tracer: Tracer | None = None) -> PassResult:
        path = self.new_cache_path()
        return self._run(tracer, path, path.with_suffix(".journal"))

    def warm(self, tracer: Tracer | None = None) -> PassResult:
        return self._run(tracer, self.filled_cache_path(), None)

    def check(self, cold: PassResult) -> dict[int, str]:
        from checks import check_campaign_rows

        return check_campaign_rows(
            list(cold.outputs.rows), self.scenarios, max_candidates=self.max_candidates
        )


def row_digest(row: Any) -> str:
    """Outcome fields of a campaign row (``solve_seconds`` is a wall time)."""
    return (
        f"{row.family} {row.n_tasks} {row.seed} {row.heuristic} {row.n_checkpointed} "
        f"{row.expected_makespan!r} {row.failure_free_work!r} {row.overhead_ratio!r}"
    )


# ----------------------------------------------------------------------
# robustness-numpy
# ----------------------------------------------------------------------
class RobustnessNumpy(Workload):
    """Failure-law robustness campaign on the numpy engines."""

    name = "robustness-numpy"
    backend = "numpy"
    probe_tasks = 100
    requires_native = False
    warm_repeats = 25
    #: The instances are fixed for every ``--seed``; the seed drives the
    #: Monte-Carlo replica streams.
    instance_seed = 0
    sizes = (100, 200)
    n_runs = 4000
    heuristic = "DF-CkptW"
    max_candidates = 30

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)

    def warm_up(self) -> None:
        from repro.experiments.robustness import run_robustness

        run_robustness(["montage"], sizes=(30,), n_runs=20, backend=self.backend)

    def _run(self, tracer: Tracer | None, cache_path: Path) -> PassResult:
        from repro.experiments.robustness import run_robustness
        from repro.runtime.cache import ResultCache

        reset_process_state()
        clock = UnitClock()
        begin = time.perf_counter()
        with _span(tracer, "pass"):
            cache = ResultCache(path=cache_path)
            if tracer is not None:
                trace_cache(tracer, cache)
            try:
                with _span(tracer, "runner"):
                    report = run_robustness(
                        FAMILIES,
                        sizes=self.sizes,
                        n_runs=self.n_runs,
                        heuristic=self.heuristic,
                        seed=self.instance_seed,
                        mc_seed=self.seed,
                        search_mode="geometric",
                        max_candidates=self.max_candidates,
                        jobs=1,
                        cache=cache,
                        backend=self.backend,
                        progress=clock,
                    )
                with _span(tracer, "reporting.render"):
                    text = report.render()
            finally:
                cache.close()
        seconds = time.perf_counter() - begin
        return PassResult(
            seconds=seconds,
            unit_ms=clock.unit_ms(),
            unit_digests=[repr(sorted(vars(row).items())) for row in report.rows],
            report=text,
            outputs=report,
            files={"cache": _file_size(cache_path)},
        )

    def cold(self, tracer: Tracer | None = None) -> PassResult:
        return self._run(tracer, self.new_cache_path())

    def warm(self, tracer: Tracer | None = None) -> PassResult:
        return self._run(tracer, self.filled_cache_path())

    def check(self, cold: PassResult) -> dict[int, str]:
        from checks import check_robustness_rows

        return check_robustness_rows(
            list(cold.outputs.rows),
            families=FAMILIES,
            sizes=self.sizes,
            seed=self.instance_seed,
            max_candidates=self.max_candidates,
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SolveN500, CampaignSmall, RobustnessNumpy)
}


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, workdir)
