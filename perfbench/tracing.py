"""Spans and counters for the benchmark's traced run.

The traced run wraps the public functions of ``gridgrover`` from the
benchmark's side (module and class attributes are swapped for the run
and restored afterwards); nothing under ``src/`` knows about tracing.
Spans are kept in flat in-memory arrays while the run goes on and are
written out once, at the end.  Each span records its name, start, end,
the index of its parent span (-1 for none) and the unit it belongs to
(-1 for set-up).

A span's name is ``<layer>.<what>``.  A layer's self time is the sum,
over its spans, of each span's duration minus the time its direct
children cover; spans nest strictly (one thread, a stack), so children
never overlap each other.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

# Per-layer metrics of the traced run: (name, unit, better).  Counts and
# busy times are per unit of the traced pass; medians are per call.
PER_LAYER = [
    ("grover.calls", "count/unit", "lower"),
    ("grover.busy_s", "s/unit", "lower"),
    ("grover.share", "ratio", "lower"),
    ("grover.bytes_computed", "bytes/unit", "lower"),
    ("search.rounds", "count/unit", "lower"),
    ("search.rounds_per_trial", "count/search", "lower"),
    ("search.round_us_p50", "us", "lower"),
    ("search.self_s", "s/unit", "lower"),
    ("search.share", "ratio", "lower"),
    ("search.accept_ratio", "ratio", "higher"),
    ("search.exhausted_frac", "ratio", "lower"),
    ("search.iterations_total", "count/unit", "lower"),
    ("search.oracle_calls", "count/unit", "lower"),
    ("search.oracle_busy_s", "s/unit", "lower"),
    ("bisection.inner_searches", "count/unit", "lower"),
    ("bisection.inner_success_ratio", "ratio", "higher"),
    ("bisection.self_s", "s/unit", "lower"),
    ("bisection.contained_frac", "ratio", "higher"),
    ("trajectory.table_build_s", "s", "lower"),
    ("trajectory.cost_calls", "count/unit", "lower"),
    ("trajectory.cost_us_p50", "us", "lower"),
    ("trajectory.inf_paths", "count/unit", "lower"),
    ("trajectory.cost_of_calls", "count/unit", "lower"),
    ("trajectory.cost_of_busy_s", "s/unit", "lower"),
    ("trajectory.project_calls", "count/unit", "lower"),
    ("trajectory.project_busy_s", "s/unit", "lower"),
    ("cli.self_s", "s/unit", "lower"),
    ("cli.share", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

UNIT_SPAN = "bench.unit"

# Bytes one statevector step touches, computed from the register size n
# (one float64 read and one float64 write per amplitude), not measured.
GROVER_BYTES_PER_AMPLITUDE = 16


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.unit_id = -1
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        return self._open(self._name_id(name))

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self.unit_id)
        self.end.append(math.nan)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def add(self, key: str, value: float = 1) -> None:
        """Add to a counter; only work done inside a unit is counted."""
        if self.unit_id >= 0:
            self.counts[key] += value

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``after(tracer, args, result)`` runs once the span has closed."""
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def durations(self) -> np.ndarray:
        return np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        dur = self.durations()
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return dur - covered

    def write(self, path: Path, **stamp) -> None:
        """Save every span to an ``.npz``: ``names`` and, per span, ``name``
        (an index into ``names``), ``start``, ``end``, ``parent`` and
        ``unit``; ``stamp`` goes in as ``stamp`` (JSON)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            unit=np.frombuffer(self.unit, dtype=np.int32),
            stamp=np.array(json.dumps(stamp)),
        )

    def layer_metrics(self, overhead_frac: float) -> dict[str, float]:
        """Every metric of :data:`PER_LAYER`, from the recorded spans and counters."""
        name = np.frombuffer(self.name, dtype=np.int32)
        span_name = np.array(self.names, dtype=object)[name]
        span_layer = np.array([n.split(".")[0] for n in self.names], dtype=object)[name]
        in_unit = np.frombuffer(self.unit, dtype=np.int32) >= 0
        dur = self.durations()
        own = self.self_times()

        unit_dur = dur[span_name == UNIT_SPAN]
        units = max(unit_dur.size, 1)
        unit_time = float(unit_dur.sum()) or math.inf

        def calls(span: str) -> float:
            return float(np.count_nonzero(in_unit & (span_name == span))) / units

        def busy(span: str) -> float:
            return float(dur[in_unit & (span_name == span)].sum()) / units

        def median(span: str, scale: float) -> float:
            picked = dur[span_name == span]
            return float(np.median(picked)) * scale if picked.size else 0.0

        def self_total(lay: str) -> float:
            return float(own[in_unit & (span_layer == lay)].sum())

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        grover = in_unit & (span_layer == "grover")
        c = self.counts
        rounds = c["search.rounds"]
        searches = c["search.searches"]
        return {
            "grover.calls": float(np.count_nonzero(grover)) / units,
            "grover.busy_s": float(dur[grover].sum()) / units,
            "grover.share": self_total("grover") / unit_time,
            "grover.bytes_computed": c["grover.amplitudes"] * GROVER_BYTES_PER_AMPLITUDE / units,
            "search.rounds": rounds / units,
            "search.rounds_per_trial": ratio(rounds, searches),
            "search.round_us_p50": median("search.run_round", 1e6),
            "search.self_s": self_total("search") / units,
            "search.share": self_total("search") / unit_time,
            "search.accept_ratio": ratio(c["search.accepted"], rounds),
            "search.exhausted_frac": ratio(c["search.exhausted"], searches),
            "search.iterations_total": c["search.iterations"] / units,
            "search.oracle_calls": calls("search.oracle"),
            "search.oracle_busy_s": busy("search.oracle"),
            "bisection.inner_searches": c["bisection.inner"] / units,
            "bisection.inner_success_ratio": ratio(c["bisection.inner_hits"], c["bisection.inner"]),
            "bisection.self_s": self_total("bisection") / units,
            "bisection.contained_frac": ratio(c["bisection.contained"], c["bisection.runs"]),
            "trajectory.table_build_s": median("trajectory.table_build", 1.0),
            "trajectory.cost_calls": calls("trajectory.cost"),
            "trajectory.cost_us_p50": median("trajectory.cost", 1e6),
            "trajectory.inf_paths": c["trajectory.inf"] / units,
            "trajectory.cost_of_calls": calls("trajectory.cost_of"),
            "trajectory.cost_of_busy_s": busy("trajectory.cost_of"),
            "trajectory.project_calls": calls("trajectory.project"),
            "trajectory.project_busy_s": busy("trajectory.project"),
            "cli.self_s": self_total("cli") / units,
            "cli.share": self_total("cli") / unit_time,
            "trace.overhead_frac": overhead_frac,
        }


# --- hooks run after a wrapped call returns --------------------------------


def _count_register(tracer: Tracer, args, result) -> None:
    tracer.add("grover.amplitudes", result.n)


def _count_round(tracer: Tracer, args, result) -> None:
    tracer.add("search.rounds")
    tracer.add("search.accepted", bool(result.accepted))


def _count_search(tracer: Tracer, args, result) -> None:
    tracer.add("search.searches")
    tracer.add("search.exhausted", not result.success)
    tracer.add("search.iterations", result.ledger.total_grover_iterations)


def _count_bisect(tracer: Tracer, args, result) -> None:
    family = args[0]
    lowest = float(np.min(family.table.costs))
    outcomes = [r.lower_outcome for r in result.trace]
    outcomes += [r.upper_outcome for r in result.trace if r.upper_outcome is not None]
    tracer.add("bisection.runs")
    tracer.add("bisection.inner", len(outcomes))
    tracer.add("bisection.inner_hits", sum(o.success for o in outcomes))
    tracer.add("bisection.contained", result.interval.lower <= lowest <= result.interval.upper)


def _count_cost(tracer: Tracer, args, result) -> None:
    tracer.add("trajectory.inf", math.isinf(result))


def _trace_oracle(tracer: Tracer, args, problem) -> None:
    problem.global_oracle = tracer.wrap("search.oracle", problem.global_oracle)


@contextmanager
def installed(tracer: Tracer):
    """Wrap the library's public entry points in spans for the duration."""
    import gridgrover.bisection as bisection
    import gridgrover.cli as cli
    import gridgrover.search as search
    import gridgrover.trajectory as trajectory

    grid_search = tracer.wrap("search.run_grid_search", search.run_grid_search, _count_search)
    bisect = tracer.wrap("bisection.run_bisect", bisection.run_bisect, _count_bisect)
    table = trajectory.CostTable
    replacements = [
        # search.py imports the grover steps by name, so patch them there
        (search, "uniform_init", tracer.wrap("grover.uniform_init", search.uniform_init, _count_register)),
        (search, "apply_oracle", tracer.wrap("grover.apply_oracle", search.apply_oracle, _count_register)),
        (search, "invert_about_mean", tracer.wrap("grover.invert_about_mean", search.invert_about_mean, _count_register)),
        (search, "run_round", tracer.wrap("search.run_round", search.run_round, _count_round)),
        (search, "run_grid_search", grid_search),
        (bisection, "run_grid_search", grid_search),
        (cli, "run_grid_search", grid_search),
        (bisection, "run_bisect", bisect),
        (cli, "run_bisect", bisect),
        (cli, "main", tracer.wrap("cli.main", cli.main)),
        (search.GridProblem, "product", classmethod(tracer.wrap(
            "search.problem", _plain_function(search.GridProblem, "product"), _trace_oracle))),
        (table, "build", classmethod(tracer.wrap("trajectory.table_build", _plain_function(table, "build")))),
        (table, "cost_of", tracer.wrap("trajectory.cost_of", table.cost_of)),
        (trajectory.BrachistochroneCost, "__call__", tracer.wrap(
            "trajectory.cost", trajectory.BrachistochroneCost.__call__, _count_cost)),
        (trajectory.RangeProblemFamily, "__call__", tracer.wrap(
            "trajectory.project", trajectory.RangeProblemFamily.__call__, _trace_oracle)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


def _plain_function(cls: type, attr: str) -> Callable:
    """The plain function behind a classmethod."""
    return cls.__dict__[attr].__func__
