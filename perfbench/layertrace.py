"""Outside-in layer trace for one ``besspp`` CLI process.

Wrappers go around public functions at the modules that import them (the
"import sites"), never inside ``besspp``: for example ``besspp.studies``
binds ``simulate_day`` and ``design_layer1`` by name, and ``besspp.flows``
binds ``solve_bounded_lp``.  Each wrapper records one span (name, parent,
start, end, exception) in memory; :meth:`Tracer.summary` folds the spans into
the per-layer metrics listed in :data:`LAYER_METRICS`.

A site that no longer binds the original function is skipped, so a later
refactor of ``besspp`` reads as zero calls on that layer instead of a crash.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import time

# (span name, defining module, function, import sites that get the wrapper).
# ``validate_network`` is patched in its own module because
# ``flows._check_network`` imports it from there on every call.
TARGETS = (
    ("simplex.solve", "besspp.simplex", "solve_bounded_lp", ("besspp.flows",)),
    (
        "flows.mde",
        "besspp.flows",
        "max_deliverable_energy",
        ("besspp.designer", "besspp.plaza"),
    ),
    ("flows.min_peak", "besspp.flows", "min_peak_flow", ("besspp.designer",)),
    (
        "architectures.build",
        "besspp.architectures",
        "build_fpp",
        ("besspp.designer", "besspp.studies"),
    ),
    (
        "architectures.build",
        "besspp.architectures",
        "build_cppp",
        ("besspp.designer", "besspp.studies"),
    ),
    (
        "architectures.build",
        "besspp.architectures",
        "build_lshippp_for_budget",
        ("besspp.designer", "besspp.studies"),
    ),
    (
        "architectures.validate",
        "besspp.architectures",
        "validate_network",
        ("besspp.architectures", "besspp.studies"),
    ),
    ("designer.layer1", "besspp.designer", "design_layer1", ("besspp.studies",)),
    ("designer.layer2", "besspp.designer", "design_layer2", ("besspp.studies",)),
    ("designer.tradeoff", "besspp.designer", "tradeoff_curve", ("besspp.studies",)),
    (
        "supply.sample_pack",
        "besspp.supply",
        "sample_pack",
        ("besspp.designer", "besspp.studies"),
    ),
    ("plaza.simulate_day", "besspp.plaza", "simulate_day", ("besspp.studies",)),
    (
        "plaza.effective_capacity",
        "besspp.plaza",
        "effective_capacity",
        ("besspp.studies",),
    ),
    ("plaza.evaluate_cycle", "besspp.plaza", "evaluate_cycle", ("besspp.studies",)),
    ("scenario.load", "besspp.scenario", "load_scenario", ("besspp.cli",)),
    ("studies", "besspp.studies", "run_design", ("besspp.cli",)),
    ("studies", "besspp.studies", "run_tradeoff", ("besspp.cli",)),
    ("studies", "besspp.studies", "run_day", ("besspp.cli",)),
    ("studies", "besspp.studies", "run_ensemble", ("besspp.cli",)),
)

# Every per-layer metric, with its unit, in the order they are reported.
# The first four are filled in by the parent process from the artifacts
# and the untraced twin run; the rest come from :meth:`Tracer.summary`.
LAYER_METRICS = {
    "simplex.solves": "count",
    "simplex.pivots": "count",
    "simplex.busy_s": "s",
    "simplex.solve_us_p50": "us",
    "simplex.solve_us_p99": "us",
    "simplex.failed": "count",
    "flows.mde.calls": "count",
    "flows.mde.self_s": "s",
    "flows.mde_us_p50": "us",
    "flows.min_peak.calls": "count",
    "flows.min_peak.busy_s": "s",
    "flows.infeasible": "count",
    "architectures.build.calls": "count",
    "architectures.build.busy_s": "s",
    "architectures.validate.calls": "count",
    "architectures.validate.busy_s": "s",
    "designer.layer1.calls": "count",
    "designer.layer1.searches": "count",
    "designer.layer1.placements": "count",
    "designer.layer1.busy_s": "s",
    "designer.layer2.busy_s": "s",
    "designer.tradeoff.busy_s": "s",
    "supply.sample_pack.calls": "count",
    "supply.sample_pack.busy_s": "s",
    "plaza.simulate_day.calls": "count",
    "plaza.simulate_day.busy_s": "s",
    "plaza.simulate_day_us_p50": "us",
    "plaza.simulate_day_us_p99": "us",
    "plaza.cycles": "count",
    "plaza.dropped": "count",
    "plaza.effective_capacity.calls": "count",
    "plaza.evaluate_cycle.calls": "count",
    "plaza.series_points_built": "count",
    "plaza.series_use_ratio": "ratio",
    "scenario.load_s": "s",
    "studies.busy_s": "s",
    "studies.self_s": "s",
    "studies.artifact_bytes": "bytes",
    "studies.digest_identical": "bool",
    "trace.overhead_s": "s",
}

_NAME, _PARENT, _START, _END, _ERROR = range(5)


def _percentile_us(durations: list[float], q: float) -> float:
    """Nearest-rank percentile of ``durations`` (seconds), in microseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))
    return ordered[rank] * 1e6


class Tracer:
    """Span recorder for one process; install once, summarize at exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pivots = 0
        self.cycles = 0
        self.dropped = 0
        self.series_points = 0
        self._layer1 = None

    def _wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[_ERROR] = type(exc).__name__
                raise
            finally:
                span[_END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_pivots(self, solution) -> None:
        self.pivots += solution.iterations

    def _count_day(self, trajectory) -> None:
        self.cycles += len(trajectory.cycles)
        self.dropped += trajectory.dropped_arrivals
        self.series_points += len(trajectory.time_h)

    def install(self) -> None:
        """Replace each target at each of its import sites with a wrapper."""
        hooks = {
            "simplex.solve": self._count_pivots,
            "plaza.simulate_day": self._count_day,
        }
        for name, home, func, sites in TARGETS:
            original = getattr(importlib.import_module(home), func, None)
            if original is None:
                continue
            if name == "designer.layer1":
                self._layer1 = original
            wrapper = self._wrap(name, original, hooks.get(name))
            for site in sites:
                module = importlib.import_module(site)
                if getattr(module, func, None) is original:
                    setattr(module, func, wrapper)

    def _searches(self, layer1_calls: int) -> int:
        cache_info = getattr(self._layer1, "cache_info", None)
        if cache_info is None:  # uncached: every call is a search
            return layer1_calls
        return cache_info().misses

    def summary(self) -> dict:
        """Fold the spans into the per-layer metrics (all but the parent's)."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        durations: dict[str, list[float]] = {}
        own: dict[str, float] = {}
        errors: collections.Counter = collections.Counter()
        placements = 0
        for i, (name, parent, start, end, error) in enumerate(spans):
            durations.setdefault(name, []).append(end - start)
            own[name] = own.get(name, 0.0) + end - start - child_s[i]
            if error is not None:
                errors[name, error] += 1
            if name == "flows.mde" and parent >= 0:
                placements += spans[parent][_NAME] == "designer.layer1"

        def calls(name: str) -> int:
            return len(durations.get(name, ()))

        def busy(name: str) -> float:
            return float(sum(durations.get(name, ())))

        def us(name: str, q: float) -> float:
            return _percentile_us(durations.get(name, []), q)

        return {
            "simplex.solves": calls("simplex.solve"),
            "simplex.pivots": self.pivots,
            "simplex.busy_s": busy("simplex.solve"),
            "simplex.solve_us_p50": us("simplex.solve", 0.5),
            "simplex.solve_us_p99": us("simplex.solve", 0.99),
            "simplex.failed": sum(
                n for (name, _), n in errors.items() if name == "simplex.solve"
            ),
            "flows.mde.calls": calls("flows.mde"),
            "flows.mde.self_s": own.get("flows.mde", 0.0),
            "flows.mde_us_p50": us("flows.mde", 0.5),
            "flows.min_peak.calls": calls("flows.min_peak"),
            "flows.min_peak.busy_s": busy("flows.min_peak"),
            "flows.infeasible": errors["flows.mde", "InfeasibleFlowError"]
            + errors["flows.min_peak", "InfeasibleFlowError"],
            "architectures.build.calls": calls("architectures.build"),
            "architectures.build.busy_s": busy("architectures.build"),
            "architectures.validate.calls": calls("architectures.validate"),
            "architectures.validate.busy_s": busy("architectures.validate"),
            "designer.layer1.calls": calls("designer.layer1"),
            "designer.layer1.searches": self._searches(calls("designer.layer1")),
            "designer.layer1.placements": placements,
            "designer.layer1.busy_s": busy("designer.layer1"),
            "designer.layer2.busy_s": busy("designer.layer2"),
            "designer.tradeoff.busy_s": busy("designer.tradeoff"),
            "supply.sample_pack.calls": calls("supply.sample_pack"),
            "supply.sample_pack.busy_s": busy("supply.sample_pack"),
            "plaza.simulate_day.calls": calls("plaza.simulate_day"),
            "plaza.simulate_day.busy_s": busy("plaza.simulate_day"),
            "plaza.simulate_day_us_p50": us("plaza.simulate_day", 0.5),
            "plaza.simulate_day_us_p99": us("plaza.simulate_day", 0.99),
            "plaza.cycles": self.cycles,
            "plaza.dropped": self.dropped,
            "plaza.effective_capacity.calls": calls("plaza.effective_capacity"),
            "plaza.evaluate_cycle.calls": calls("plaza.evaluate_cycle"),
            "plaza.series_points_built": self.series_points,
            "scenario.load_s": busy("scenario.load"),
            "studies.busy_s": busy("studies"),
            "studies.self_s": own.get("studies", 0.0),
        }

    def write_spans(self, path) -> None:
        """One JSON line per span: name, parent index, start, end, error."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
