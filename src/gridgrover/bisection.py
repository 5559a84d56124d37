"""Bisection on a cost interval driven by range-oracle searches.

Each round halves the bracket (a, b): a search against the strict range
oracle for (a, mid) keeps the lower half on success, otherwise a search
against (mid, b) keeps the upper half, and a double failure ends the
run.  The inner searches only ever exercise oracles, so the bracket
tightens around the minimum cost without ever evaluating gradients or
sorting the search space.

Inner searches are stochastic by default; every accepted tuple is kept
as a witness with its true cost, and the cheapest one is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .search import (
    GridProblem,
    ScheduleParams,
    SearchOutcome,
    derive_seed,
    exhaustive_search,
    run_grid_search,
)

__all__ = [
    "BoundInterval",
    "PathWitness",
    "BisectRound",
    "BisectResult",
    "initial_upper_bound",
    "run_bisect",
]


@dataclass(frozen=True)
class BoundInterval:
    """Open cost bracket (lower, upper)."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError("interval needs lower < upper")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower < value < self.upper

    def to_dict(self) -> dict:
        return {"lower": self.lower, "upper": self.upper}


def initial_upper_bound(sizes, cost: Callable, rng: np.random.Generator) -> float:
    """Cost of one uniformly random path, the classical bootstrap for b0.

    ``sizes`` may be a sequence of bucket sizes or any object exposing a
    ``sizes`` attribute (a grid, a problem).
    """
    dims: Sequence[int] = getattr(sizes, "sizes", sizes)
    path = tuple(int(rng.integers(0, n)) for n in dims)
    return float(cost(path))


@dataclass(frozen=True)
class PathWitness:
    """A tuple accepted by some inner search, with its true cost."""

    path: tuple[int, ...]
    cost: float

    def to_dict(self) -> dict:
        return {"path": list(self.path), "cost": self.cost}


@dataclass(frozen=True)
class BisectRound:
    """Per-round record: the midpoint probed, which branch succeeded, and
    the inner search outcomes (upper is None when the lower branch won)."""

    index: int
    mid: float
    branch: str
    lower_outcome: SearchOutcome
    upper_outcome: SearchOutcome | None
    interval: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "mid": self.mid,
            "branch": self.branch,
            "lower_outcome": self.lower_outcome.to_dict(),
            "upper_outcome": None if self.upper_outcome is None else self.upper_outcome.to_dict(),
            "interval": list(self.interval),
        }


@dataclass(frozen=True)
class BisectResult:
    interval: BoundInterval
    rounds: int
    witness: PathWitness | None
    trace: list[BisectRound]

    def to_dict(self) -> dict:
        return {
            "interval": self.interval.to_dict(),
            "rounds": self.rounds,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "trace": [r.to_dict() for r in self.trace],
        }


def _inner_search(
    problem: GridProblem,
    params: ScheduleParams,
    round_index: int,
    branch: int,
    backend: str,
) -> SearchOutcome:
    if backend == "exhaustive":
        return exhaustive_search(problem)
    if backend == "grover":
        child = replace(params, seed=derive_seed(params.seed, round_index, branch))
        return run_grid_search(problem, child)
    raise ValueError(f"unknown search backend {backend!r}")


def run_bisect(
    problems: Callable[[float, float], GridProblem],
    cost: Callable,
    a0: float,
    b0: float,
    max_count: int,
    params: ScheduleParams,
    backend: str = "grover",
    epsilon: float = 0.0,
) -> BisectResult:
    """Shrink the bracket (a0, b0) by repeated range-oracle searches.

    ``problems(a, b)`` must return a GridProblem whose global oracle
    accepts exactly the paths with cost strictly inside (a, b) and whose
    marked sets are consistent projections of that set.  ``epsilon``
    optionally widens the upper end of each probed range (useful for
    continuous costs that sit numerically on a bracket endpoint).

    The inner searches of round r use seeds derived from (params.seed,
    r, branch), so a full run is reproducible from the master seed.
    """
    if not a0 < b0:
        raise ValueError("bisection needs a0 < b0")
    if max_count < 1:
        raise ValueError("max_count must be >= 1")
    if epsilon < 0 or not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite and >= 0")

    a, b = float(a0), float(b0)
    witness: PathWitness | None = None
    trace: list[BisectRound] = []
    rounds = 0

    def consider(outcome: SearchOutcome) -> None:
        nonlocal witness
        if outcome.success and outcome.path is not None:
            c = float(cost(outcome.path))
            if witness is None or c < witness.cost:
                witness = PathWitness(path=outcome.path, cost=c)

    for rounds in range(1, max_count + 1):
        mid = (a + b) / 2.0
        lower_out = _inner_search(problems(a, mid + epsilon), params, rounds, 0, backend)
        consider(lower_out)
        if lower_out.success:
            b = mid
            trace.append(BisectRound(rounds, mid, "lower", lower_out, None, (a, b)))
            continue
        upper_out = _inner_search(problems(mid, b + epsilon), params, rounds, 1, backend)
        consider(upper_out)
        if upper_out.success:
            a = mid
            trace.append(BisectRound(rounds, mid, "upper", lower_out, upper_out, (a, b)))
            continue
        trace.append(BisectRound(rounds, mid, "none", lower_out, upper_out, (a, b)))
        break

    return BisectResult(
        interval=BoundInterval(a, b), rounds=rounds, witness=witness, trace=trace
    )
