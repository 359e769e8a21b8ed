"""In-memory span tracer that wraps the program's public layer functions.

The benchmark's timed runs install nothing.  A traced run calls
:func:`install_layer_spans` first, which rebinds the module attributes
through which one layer calls the next (for example
``repro.heuristics.registry.linearize``) to thin wrappers that record one
span per call.  Every span keeps its name, start, end and parent; a layer's
*self time* is its spans' durations minus the time their child spans cover,
so the self times of every layer plus the root span's own remainder add up
to the root span exactly.

A binding that a later version of the program no longer has is skipped, and
its layer then reads zero calls; the tracer never changes what a wrapped
function returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = ["LAYER_SPANS", "Tracer", "install_layer_spans", "trace_cache", "trace_journal"]

#: Span names (one per traced layer entry point), in report order.
LAYER_SPANS: tuple[str, ...] = (
    "scenarios.build_workflow",
    "linearization.linearize",
    "checkpointing.select",
    "search",
    "sweep.evaluate",
    "evaluator.evaluate_schedule",
    "keys.unit_key",
    "keys.fingerprint",
    "cache.get",
    "cache.put",
    "journal.record",
    "runner",
    "campaign.aggregate",
    "reporting.render",
    "simulation.run_monte_carlo",
)

#: Work counters of ``SweepState.stats`` summed over every traced state,
#: as ``(metric name, stats attribute)``.
SWEEP_COUNTERS: tuple[tuple[str, str], ...] = (
    ("sweep.fill_s", "fill_seconds"),
    ("sweep.kernel_s", "kernel_seconds"),
    ("sweep.rows_refilled", "rows_refilled"),
    ("sweep.rows_restored", "rows_restored"),
    ("sweep.kernel_positions", "kernel_positions"),
    ("sweep.full_recomputes", "full_recomputes"),
)


#: Every counter a traced pass reports (zero when its layer is not used).
COUNTERS: tuple[str, ...] = (
    "search.candidates",
    "search.distinct_sets",
    "cache.hits",
    "simulation.replicas",
    *(metric for metric, _ in SWEEP_COUNTERS),
)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        # Each span is [name, start_ns, end_ns, parent_index]; -1 = no parent.
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter_ns()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with one span recorded around every call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``self_s`` (seconds)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_ns):
            entry = table.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start - children) / 1e9
        return table

    def write_chrome_trace(self, path: Path) -> Path:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
        origin = min((s[1] for s in self.spans), default=0)
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "counters": self.counters}))
        return path


class _Patches:
    """Attribute rebinding that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@contextmanager
def install_layer_spans(tracer: Tracer) -> Iterator[None]:
    """Wrap every layer boundary the benchmark traces; undone on exit."""
    patches = _Patches()
    sweep_stats: list[Any] = []
    for counter in COUNTERS:
        tracer.counters.setdefault(counter, 0)
    try:
        _install(tracer, patches, sweep_stats)
        yield
    finally:
        patches.restore()
        for metric, attr in SWEEP_COUNTERS:
            tracer.add(metric, sum(getattr(s, attr, 0) for s in sweep_stats))


def _install(tracer: Tracer, patches: _Patches, sweep_stats: list[Any]) -> None:
    """Rebind each module attribute through which a caller reaches a layer,
    so a call is recorded once however the callee is nested."""
    sweep_evaluations = [0]
    registry = importlib.import_module("repro.heuristics.registry")
    search_mod = importlib.import_module("repro.heuristics.search")
    runner_mod = importlib.import_module("repro.runtime.runner")
    sweep_mod = importlib.import_module("repro.core.sweep")
    campaign_mod = importlib.import_module("repro.experiments.campaign")
    keys_mod = importlib.import_module("repro.runtime.keys")
    scenarios_mod = importlib.import_module("repro.experiments.scenarios")
    harness_mod = importlib.import_module("repro.experiments.harness")
    simulation_mod = importlib.import_module("repro.simulation")

    bindings: list[tuple[Any, str, str]] = [
        (scenarios_mod, "build_workflow", "scenarios.build_workflow"),
        (runner_mod, "build_workflow", "scenarios.build_workflow"),
        (harness_mod, "build_workflow", "scenarios.build_workflow"),
        (registry, "linearize", "linearization.linearize"),
        (registry, "evaluate_schedule", "evaluator.evaluate_schedule"),
        (search_mod, "evaluate_schedule", "evaluator.evaluate_schedule"),
        (runner_mod, "evaluate_schedule", "evaluator.evaluate_schedule"),
        (runner_mod, "scenario_unit_key", "keys.unit_key"),
        (runner_mod, "robustness_unit_key", "keys.unit_key"),
        (keys_mod, "workflow_fingerprint", "keys.fingerprint"),
        (campaign_mod, "aggregate_rows", "campaign.aggregate"),
        (simulation_mod, "run_monte_carlo", "simulation.run_monte_carlo"),
    ]
    for owner, attr, span in bindings:
        if callable(getattr(owner, attr, None)):
            patches.set(owner, attr, tracer.wrap(span, getattr(owner, attr)))

    # Monte-Carlo replicas are counted at the call, not inside the engine.
    if hasattr(simulation_mod, "run_monte_carlo"):
        traced_mc = simulation_mod.run_monte_carlo

        def counted_mc(*args: Any, **kwargs: Any) -> Any:
            tracer.add("simulation.replicas", int(kwargs.get("n_runs", 0)))
            return traced_mc(*args, **kwargs)

        patches.set(simulation_mod, "run_monte_carlo", counted_mc)

    # Selectors are handed out by get_selector; wrap what it returns.
    if callable(getattr(registry, "get_selector", None)):
        get_selector = registry.get_selector
        patches.set(
            registry,
            "get_selector",
            lambda strategy: tracer.wrap("checkpointing.select", get_selector(strategy)),
        )

    # The count search: candidates from its result, distinct sets from the
    # sweep evaluations it issues.
    if callable(getattr(registry, "search_checkpoint_count", None)):
        traced_search = tracer.wrap("search", registry.search_checkpoint_count)

        def counted_search(*args: Any, **kwargs: Any) -> Any:
            before = sweep_evaluations[0]
            result = traced_search(*args, **kwargs)
            tracer.add("search.candidates", len(getattr(result, "evaluated", ())))
            tracer.add("search.distinct_sets", sweep_evaluations[0] - before)
            return result

        patches.set(registry, "search_checkpoint_count", counted_search)

    # SweepState: a subclass that records evaluate spans and keeps every
    # state's public stats (with phase timings switched on when supported).
    original_state = getattr(sweep_mod, "SweepState", None)
    if original_state is not None:
        profiled = "profile" in inspect.signature(original_state.__init__).parameters
        traced_evaluate = tracer.wrap("sweep.evaluate", original_state.evaluate)

        class TracedSweepState(original_state):  # type: ignore[misc, valid-type]
            def __init__(self, *args: Any, **kwargs: Any) -> None:
                if profiled:
                    kwargs["profile"] = True
                super().__init__(*args, **kwargs)
                sweep_stats.append(self.stats)

            def evaluate(self, *args: Any, **kwargs: Any) -> Any:
                return traced_evaluate(self, *args, **kwargs)

        class SearchSweepState(TracedSweepState):
            """The count search's own sweep: one evaluation per distinct set."""

            def evaluate(self, *args: Any, **kwargs: Any) -> Any:
                sweep_evaluations[0] += 1
                return traced_evaluate(self, *args, **kwargs)

        if getattr(sweep_mod, "SweepState", None) is original_state:
            patches.set(sweep_mod, "SweepState", TracedSweepState)
        if getattr(search_mod, "SweepState", None) is original_state:
            patches.set(search_mod, "SweepState", SearchSweepState)


def trace_cache(tracer: Tracer, cache: Any) -> Any:
    """Record ``cache.get`` / ``cache.put`` spans (and hits) on one cache instance."""
    traced_get = tracer.wrap("cache.get", cache.get)

    def get(key: str) -> Any:
        value = traced_get(key)
        if value is not None:
            tracer.add("cache.hits", 1)
        return value

    cache.get = get
    cache.put = tracer.wrap("cache.put", cache.put)
    return cache


def trace_journal(tracer: Tracer, journal: Any) -> Any:
    """Record ``journal.record`` spans on one journal instance."""
    journal.record = tracer.wrap("journal.record", journal.record)
    return journal
