"""Outside-in tracing of drcontract: spans around its layer boundaries.

The tracer replaces functions where the calling module looks them up (for
example ``drcontract.cli.run_monte_carlo``), so the program's files stay
untouched. Each call becomes a span ``[start, end, parent, leaf_s, name]``,
where ``parent`` indexes the enclosing span (-1 for none); all spans of one
command share the tracer's run id, stay in memory, and are written out once
when the command ends. Hot leaves such as
``stage2_profit`` are counted and timed without a span each; their time is
charged to the enclosing span so that self times still add up.

A target that no longer exists is recorded in ``missing`` and skipped, so a
refactor that deletes a function loses that span, not the whole trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (calling module, attribute). The layer of a span is the module that
# defines the function, so one function bound in two places is one name.
SPAN_TARGETS = (
    ("drcontract.cli", "load_scenario"),
    ("drcontract.cli", "run_monte_carlo"),
    ("drcontract.cli", "check_consumption_cap"),
    ("drcontract.cli", "best_report"),
    ("drcontract.cli", "best_response_called"),
    ("drcontract.cli", "best_response_not_called"),
    ("drcontract.cli", "call_threshold"),
    ("drcontract.cli", "expected_profit"),
    ("drcontract.cli", "planned_consumption"),
    ("drcontract.cli", "grid_best_report"),
    ("drcontract.cli", "grid_best_response"),
    ("drcontract.cli", "max_feasible_case_payoff"),
    ("drcontract.simulation", "allocate_calls"),
    ("drcontract.simulation", "collect_reports"),
    ("drcontract.simulation", "best_report"),
    ("drcontract.simulation", "best_response_called"),
    ("drcontract.simulation", "best_response_not_called"),
    ("drcontract.simulation", "check_consumption_cap"),
    ("drcontract.simulation", "ideal_consumption"),
    ("drcontract.simulation", "payment_called"),
    ("drcontract.simulation", "payment_not_called"),
    ("drcontract.simulation", "utility"),
)

LEAF_TARGETS = (
    ("drcontract.strategy", "stage2_profit"),
    ("drcontract.oracle", "stage2_profit"),
)

ROOT = "cli.main"

# Fields of one span record, in order.
START, END, PARENT, LEAF_S, NAME = range(5)


def _count_monte_carlo(args, kwargs, result):
    return {
        "simulation.records": sum(len(event) for event in result.records),
        "simulation.under_provisioned_trials": sum(
            1 for s in result.summaries if s.under_provisioned
        ),
    }


def _count_scenario(args, kwargs, result):
    return {"scenario.consumers": len(result.members)}


def _count_report_pairs(args, kwargs, result):
    """N^2 candidate reports for the N points of the grid passed in."""
    params = args[1] if len(args) > 1 else kwargs["params"]
    grid = args[3] if len(args) > 3 else kwargs.get("grid")
    lo, hi, step = (0.0, params.max_consumption, 0.01) if grid is None else (
        grid.lo, grid.hi, grid.step
    )
    n = int((hi - lo) / step) + 1
    return {"oracle.report_pairs": n * n}


COUNT_HOOKS = {
    "run_monte_carlo": _count_monte_carlo,
    "load_scenario": _count_scenario,
    "grid_best_report": _count_report_pairs,
}


def layer_of(fn) -> str:
    return getattr(fn, "__module__", "unknown").rsplit(".", 1)[-1]


class Tracer:
    """Spans, counters and leaf timings of one traced command."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.hook_errors: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [0.0, 0.0, stack[-1] if stack else -1, 0.0, name]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                try:
                    for key, value in count(args, kwargs, result).items():
                        self.counters[key] += value
                except Exception as exc:  # keep tracing when the shape changes
                    self.hook_errors.append(f"{name}: {exc!r}")
            return result

        return wrapper

    def leaf(self, name: str, fn):
        spans, stack = self.spans, self._stack
        calls, seconds = self.leaf_calls, self.leaf_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                calls[name] += 1
                seconds[name] += dt
                if stack:
                    spans[stack[-1]][LEAF_S] += dt

        return wrapper

    def install(self, targets=SPAN_TARGETS, leaves=LEAF_TARGETS) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for module_name, attr in (*targets, *leaves):
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            name = f"{layer_of(fn)}.{attr}"
            if (module_name, attr) in leaves:
                wrapped = self.leaf(name, fn)
            else:
                wrapped = self.span(name, fn, COUNT_HOOKS.get(attr))
            self._originals.append((module, attr, fn))
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        """Put back every function that :meth:`install` wrapped."""
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "spans": self.spans,
                    "counters": self.counters,
                    "leaf_calls": self.leaf_calls,
                    "leaf_s": self.leaf_s,
                    "missing": self.missing,
                    "hook_errors": self.hook_errors,
                },
                fh,
            )


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus what its children and leaves cover.

    Child intervals are merged before they are subtracted, so overlapping
    children (which a single thread cannot produce, but a malformed trace
    can) are not taken off twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for i, rec in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, rec[START]), min(hi, rec[END])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(rec[END] - rec[START] - covered - rec[LEAF_S])
    return out


# Unit of every per-layer metric the benchmark reports. layer_metrics gives
# all but the last two, which come from the child's result and from the
# untraced repetitions.
UNITS = {
    "simulation.run_monte_carlo_self_s": "s",
    "simulation.allocate_calls_s": "s",
    "simulation.collect_reports_s": "s",
    "simulation.records": "count",
    "simulation.records_per_s": "1/s",
    "simulation.under_provisioned_trials": "count",
    "cli.self_s": "s",
    "strategy.self_s": "s",
    "strategy.calls": "count",
    "core.self_s": "s",
    "core.stage2_profit_calls": "count",
    "scenario.load_s": "s",
    "scenario.consumers": "count",
    "oracle.grid_best_report_s": "s",
    "oracle.grid_best_response_s": "s",
    "oracle.case_table_s": "s",
    "oracle.report_pairs": "count",
    "oracle.report_pairs_per_s": "1/s",
    "cli.bytes_written": "bytes",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer figures of one traced command, keyed by metric name."""
    spans = trace["spans"]
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for rec, own in zip(spans, selfs):
        name = rec[NAME]
        layer = name.split(".", 1)[0]
        total[name] += rec[END] - rec[START]
        self_s[name] += own
        self_s[layer] += own
        calls[layer] += 1
    leaf_s = sum(trace["leaf_s"].values())
    counters = trace["counters"]
    mc_s = total["simulation.run_monte_carlo"]
    report_s = total["oracle.grid_best_report"]
    records = counters.get("simulation.records", 0)
    pairs = counters.get("oracle.report_pairs", 0)
    return {
        "simulation.run_monte_carlo_self_s": self_s["simulation.run_monte_carlo"],
        "simulation.allocate_calls_s": total["simulation.allocate_calls"],
        "simulation.collect_reports_s": total["simulation.collect_reports"],
        "simulation.records": records,
        "simulation.records_per_s": records / mc_s if mc_s > 0 else 0.0,
        "simulation.under_provisioned_trials": counters.get(
            "simulation.under_provisioned_trials", 0
        ),
        "cli.self_s": self_s[ROOT],
        "strategy.self_s": self_s["strategy"],
        "strategy.calls": calls["strategy"],
        "core.self_s": self_s["core"] + leaf_s,
        "core.stage2_profit_calls": sum(trace["leaf_calls"].values()),
        "scenario.load_s": total["scenario.load_scenario"],
        "scenario.consumers": counters.get("scenario.consumers", 0),
        "oracle.grid_best_report_s": report_s,
        "oracle.grid_best_response_s": total["oracle.grid_best_response"],
        "oracle.case_table_s": total["oracle.max_feasible_case_payoff"],
        "oracle.report_pairs": pairs,
        "oracle.report_pairs_per_s": pairs / report_s if report_s > 0 else 0.0,
    }
