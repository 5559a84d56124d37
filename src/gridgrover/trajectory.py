"""Descent-time minimization on a discretized trajectory grid.

A path from (0, 2) to (pi, 0) is encoded by choosing one ordinate per
interior column; the k free columns sit at x_i = pi*i/(k+1) and the two
boundary points are fixed extra interpolation nodes.  Column i offers
the ordinates {2j/n_i : j = 1..n_i}: zero is excluded because an
interior touch of the floor makes the descent-time integrand divergent,
and excluding it keeps every representable path's cost finite and the
bucket cardinality exactly n_i.

The cost of a path is the frictionless descent time

    tau = integral_0^pi sqrt((1 + y'(x)^2) / (2 g y(x))) dx

for the interpolant through its nodes.  The integrand has an integrable
1/sqrt singularity where y reaches 0 at the right boundary, so the
quadrature integrates in the substituted variable u = sqrt(x_end - x),
which removes that singularity exactly; composite Gauss-Legendre panels
in u then converge at machine precision for smooth positive paths.
Paths whose interpolant dips to 0 or below anywhere in the open
interior get the +inf sentinel instead of an error, so sweeps can
enumerate freely.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.legendre import leggauss

from .grover import MarkedSet
from .search import GridProblem

__all__ = [
    "DESK_SCALE_CAP",
    "Grid",
    "QuadratureConfig",
    "PolynomialCurve",
    "PiecewiseLinearCurve",
    "BrachistochroneCost",
    "SolutionSetQuery",
    "CostTable",
    "RangeProblemFamily",
    "build_brachistochrone_grid",
    "interpolate",
    "brachistochrone_cost",
    "straight_line_descent_time",
    "cycloid_descent_time",
    "enumerate_solution_paths",
    "derive_local_marked_sets",
    "cross_path_rate",
    "brute_force_minimum",
]

# Exhaustive enumeration refuses product spaces larger than this.
DESK_SCALE_CAP = 10_000_000


@dataclass(frozen=True)
class Grid:
    """Interior columns of candidate ordinates between two fixed endpoints."""

    abscissae: np.ndarray
    columns: tuple[np.ndarray, ...]
    start: tuple[float, float]
    end: tuple[float, float]

    def __post_init__(self) -> None:
        xs = np.asarray(self.abscissae, dtype=float)
        cols = tuple(np.asarray(c, dtype=float) for c in self.columns)
        if xs.ndim != 1 or xs.size == 0:
            raise ValueError("grid needs at least one interior column")
        if len(cols) != xs.size:
            raise ValueError("one ordinate column per abscissa required")
        bounds = (float(self.start[0]), float(self.end[0]))
        if not bounds[0] < bounds[1]:
            raise ValueError("start abscissa must precede end abscissa")
        full = np.concatenate(([bounds[0]], xs, [bounds[1]]))
        if not np.all(np.diff(full) > 0):
            raise ValueError("abscissae must be strictly increasing between the endpoints")
        for i, col in enumerate(cols):
            if col.size == 0:
                raise ValueError(f"column {i} has no ordinates")
            if not np.all(np.isfinite(col)):
                raise ValueError(f"column {i} has non-finite ordinates")
        object.__setattr__(self, "abscissae", xs)
        object.__setattr__(self, "columns", cols)

    @property
    def k(self) -> int:
        return len(self.columns)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.columns)

    def node_points(self, path: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Interpolation nodes (boundary points included) for a path."""
        if len(path) != self.k:
            raise ValueError(f"path needs {self.k} indices, got {len(path)}")
        ys = [self.start[1]]
        for i, idx in enumerate(path):
            col = self.columns[i]
            if not 0 <= idx < col.size:
                raise ValueError(f"index {idx} out of range for column {i}")
            ys.append(float(col[idx]))
        ys.append(self.end[1])
        xs = np.concatenate(([self.start[0]], self.abscissae, [self.end[0]]))
        return xs, np.asarray(ys)


def build_brachistochrone_grid(k: int, sizes: int | Sequence[int]) -> Grid:
    """Grid between (0, 2) and (pi, 0) with columns at x_i = pi*i/(k+1).

    Column i carries the n_i ordinates 2j/n_i for j = 1..n_i (the floor
    value 0 is excluded, see the module docstring).
    """
    if k < 1:
        raise ValueError("need at least one interior column")
    if isinstance(sizes, int):
        sizes = [sizes] * k
    sizes = [int(n) for n in sizes]
    if len(sizes) != k:
        raise ValueError(f"need {k} column sizes, got {len(sizes)}")
    if any(n < 1 for n in sizes):
        raise ValueError("column sizes must be >= 1")
    xs = np.array([math.pi * i / (k + 1) for i in range(1, k + 1)])
    cols = tuple(np.array([2.0 * j / n for j in range(1, n + 1)]) for n in sizes)
    return Grid(abscissae=xs, columns=cols, start=(0.0, 2.0), end=(math.pi, 0.0))


class PolynomialCurve:
    """Degree k+1 polynomial through k+2 nodes, with derivative access."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self._poly = Polynomial.fit(self.xs, self.ys, deg=self.xs.size - 1)
        self._deriv = self._poly.deriv()

    def __call__(self, x):
        return self._poly(x)

    def slope(self, x):
        return self._deriv(x)

    def segments(self) -> list[tuple[float, float]]:
        return [(float(self.xs[0]), float(self.xs[-1]))]

    def positive_interior(self) -> bool:
        """True iff the curve stays strictly positive on the open span.

        The left node is positive by construction, so any dip to 0 or
        below implies a real root strictly inside the span; the roots of
        the fitted polynomial are checked directly.
        """
        lo, hi = float(self.xs[0]), float(self.xs[-1])
        edge = 1e-8 * (hi - lo)
        for root in self._poly.roots():
            if abs(root.imag) > 1e-9:
                continue
            x = root.real
            if lo + edge < x < hi - edge:
                return False
        return True


class PiecewiseLinearCurve:
    """Broken line through the nodes; slope is constant per segment."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self._slopes = np.diff(self.ys) / np.diff(self.xs)

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys)

    def slope(self, x):
        idx = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, self._slopes.size - 1)
        return self._slopes[idx]

    def segments(self) -> list[tuple[float, float]]:
        return [(float(a), float(b)) for a, b in zip(self.xs[:-1], self.xs[1:])]

    def positive_interior(self) -> bool:
        # A broken line can only dip as low as its nodes.
        return bool(np.all(self.ys[1:-1] > 0.0))


def interpolate(grid: Grid, path: Sequence[int], kind: str = "polynomial"):
    """Continuous y(x) through the path's nodes plus both boundary points."""
    xs, ys = grid.node_points(path)
    if kind == "polynomial":
        return PolynomialCurve(xs, ys)
    if kind == "linear":
        return PiecewiseLinearCurve(xs, ys)
    raise ValueError(f"unknown interpolation kind {kind!r}")


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Gauss-Legendre settings for the descent-time integral.

    Panels are laid out in the substituted variable and doubled until the
    value changes by less than ``rel_tol`` (relative), with a hard cap.
    """

    base_panels: int = 16
    nodes_per_panel: int = 8
    max_panels: int = 2**14
    rel_tol: float = 0.01

    def __post_init__(self) -> None:
        if self.base_panels < 1 or self.nodes_per_panel < 1:
            raise ValueError("panel and node counts must be >= 1")
        if self.max_panels < self.base_panels:
            raise ValueError("max_panels must be >= base_panels")
        if not 0 < self.rel_tol < 1:
            raise ValueError("rel_tol must lie in (0, 1)")


def _composite_gauss(f, a: float, b: float, panels: int, nodes: int) -> float | None:
    """Composite Gauss-Legendre; None signals a non-positive y sample."""
    xg, wg = leggauss(nodes)
    h = (b - a) / panels
    starts = a + h * np.arange(panels)
    x = (starts[:, None] + h * (xg[None, :] + 1.0) / 2.0).ravel()
    vals = f(x)
    if vals is None:
        return None
    return float(np.dot(vals, np.tile(wg * h / 2.0, panels)))


def _descent_time(curve, g: float, cfg: QuadratureConfig) -> float:
    """Adaptive descent-time integral of a curve, +inf sentinel included."""
    if not curve.positive_interior():
        return math.inf
    x_end = curve.segments()[-1][1]

    def transformed(seg_lo: float, seg_hi: float):
        # u = sqrt(x_end - x) over the segment, larger u = further left.
        u_lo, u_hi = math.sqrt(max(x_end - seg_hi, 0.0)), math.sqrt(x_end - seg_lo)

        def f(u):
            x = x_end - u * u
            y = np.asarray(curve(x), dtype=float)
            if np.any(y <= 0.0):
                return None
            dy = np.asarray(curve.slope(x), dtype=float)
            return np.sqrt((1.0 + dy * dy) / (2.0 * g * y)) * 2.0 * u

        return f, u_lo, u_hi

    segs = [transformed(lo, hi) for lo, hi in curve.segments()]
    total_len = sum(hi - lo for _, lo, hi in segs)

    prev = None
    panels = cfg.base_panels
    while panels <= cfg.max_panels:
        value = 0.0
        for f, lo, hi in segs:
            share = max(1, round(panels * (hi - lo) / total_len))
            part = _composite_gauss(f, lo, hi, share, cfg.nodes_per_panel)
            if part is None:
                return math.inf
            value += part
        if prev is not None and abs(value - prev) <= cfg.rel_tol * abs(value):
            return value
        prev = value
        panels *= 2
    raise RuntimeError(
        f"descent-time quadrature did not converge within {cfg.max_panels} panels"
    )


def brachistochrone_cost(
    grid: Grid,
    path: Sequence[int],
    *,
    g: float = 9.8,
    quadrature: QuadratureConfig | None = None,
    kind: str = "polynomial",
) -> float:
    """Descent time of one grid path (+inf if its interpolant dips to 0)."""
    if g <= 0:
        raise ValueError("gravity must be positive")
    cfg = quadrature if quadrature is not None else QuadratureConfig()
    return _descent_time(interpolate(grid, path, kind=kind), g, cfg)


@dataclass(frozen=True)
class BrachistochroneCost:
    """Cost model bundling a grid with gravity and quadrature settings."""

    grid: Grid
    g: float = 9.8
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)
    kind: str = "polynomial"

    def __call__(self, path: Sequence[int]) -> float:
        return brachistochrone_cost(
            self.grid, path, g=self.g, quadrature=self.quadrature, kind=self.kind
        )


def straight_line_descent_time(g: float = 9.8) -> float:
    """Closed-form descent time of the straight ramp between the endpoints."""
    if g <= 0:
        raise ValueError("gravity must be positive")
    return math.pi * math.sqrt(1.0 + 4.0 / math.pi**2) / math.sqrt(g)


def cycloid_descent_time(g: float = 9.8) -> float:
    """Descent time of the optimal continuous curve (a unit-radius cycloid
    fits these endpoints), the floor any grid path's cost approaches."""
    if g <= 0:
        raise ValueError("gravity must be positive")
    return math.pi / math.sqrt(g)


@dataclass
class CostTable:
    """Every path of a product space with its cost, in lexicographic order."""

    sizes: tuple[int, ...]
    paths: np.ndarray
    costs: np.ndarray

    @classmethod
    def build(
        cls, sizes: Sequence[int], cost: Callable, cap: int = DESK_SCALE_CAP
    ) -> "CostTable":
        sizes = tuple(int(n) for n in sizes)
        if any(n < 1 for n in sizes):
            raise ValueError("bucket sizes must be >= 1")
        space = math.prod(sizes)
        if space > cap:
            raise ValueError(f"product space {space} exceeds enumeration cap {cap}")
        paths = np.array(list(itertools.product(*(range(n) for n in sizes))), dtype=int)
        costs = np.array([float(cost(tuple(p))) for p in paths])
        return cls(sizes=sizes, paths=paths, costs=costs)

    def cost_of(self, path: Sequence[int]) -> float:
        flat = int(np.ravel_multi_index(tuple(int(i) for i in path), self.sizes))
        return float(self.costs[flat])

    def solution_mask(self, a: float, b: float) -> np.ndarray:
        return (self.costs > a) & (self.costs < b)

    def solution_paths(self, a: float, b: float) -> list[tuple[int, ...]]:
        return [tuple(int(i) for i in row) for row in self.paths[self.solution_mask(a, b)]]

    def marked_sets(self, a: float, b: float) -> list[MarkedSet]:
        """Per-column projection of the solution set."""
        mask = self.solution_mask(a, b)
        hits = self.paths[mask]
        return [
            MarkedSet.from_indices(n, np.unique(hits[:, i]) if hits.size else ())
            for i, n in enumerate(self.sizes)
        ]

    def minimum(self) -> tuple[tuple[int, ...], float]:
        """Cheapest path; ties resolve to the lexicographically first."""
        idx = int(np.argmin(self.costs))
        return tuple(int(i) for i in self.paths[idx]), float(self.costs[idx])


@dataclass
class SolutionSetQuery:
    """A strict cost window (lower, upper) over a grid's paths."""

    lower: float
    upper: float
    grid: Grid
    cost: Callable
    cap: int = DESK_SCALE_CAP
    _table: CostTable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError("query needs lower < upper")

    def table(self) -> CostTable:
        if self._table is None:
            self._table = CostTable.build(self.grid.sizes, self.cost, cap=self.cap)
        return self._table


def enumerate_solution_paths(query: SolutionSetQuery) -> list[tuple[int, ...]]:
    """All paths with cost strictly inside the window, lexicographic order."""
    return query.table().solution_paths(query.lower, query.upper)


def derive_local_marked_sets(query: SolutionSetQuery) -> list[MarkedSet]:
    """Column-wise projections of the window's solution set (the marked
    sets handed to the parallel search)."""
    return query.table().marked_sets(query.lower, query.upper)


def cross_path_rate(query: SolutionSetQuery) -> float:
    """Fraction of the projections' product that is NOT a solution.

    The product of the per-column projections over-approximates the
    solution set; this is the rate at which a tuple assembled from
    individually valid coordinates misses the cost window.  Zero when
    the product is empty.
    """
    table = query.table()
    marked = table.marked_sets(query.lower, query.upper)
    in_product = np.ones(table.paths.shape[0], dtype=bool)
    for i, ms in enumerate(marked):
        allowed = np.zeros(table.sizes[i], dtype=bool)
        for idx in ms.marked:
            allowed[idx] = True
        in_product &= allowed[table.paths[:, i]]
    count = int(in_product.sum())
    if count == 0:
        return 0.0
    misses = int((in_product & ~table.solution_mask(query.lower, query.upper)).sum())
    return misses / count


def brute_force_minimum(
    grid: Grid, cost: Callable, cap: int = DESK_SCALE_CAP
) -> tuple[tuple[int, ...], float]:
    """Exhaustive minimum over every grid path (lexicographic tie-break)."""
    return CostTable.build(grid.sizes, cost, cap=cap).minimum()


@dataclass
class RangeProblemFamily:
    """Builds the (a, b) range-search problem for any bracket on demand.

    Costs are tabulated once; each bracket's problem is the table's
    per-column projection of the window (its marked sets) plus a global
    oracle that checks the tabulated cost, so repeated brackets over the
    same space stay cheap and consistent.
    """

    table: CostTable

    @classmethod
    def from_cost(
        cls, sizes: Sequence[int], cost: Callable, cap: int = DESK_SCALE_CAP
    ) -> "RangeProblemFamily":
        return cls(table=CostTable.build(sizes, cost, cap=cap))

    def __call__(self, a: float, b: float) -> GridProblem:
        def oracle(path: tuple[int, ...], _t=self.table, _a=a, _b=b) -> bool:
            c = _t.cost_of(path)
            return _a < c < _b

        return GridProblem(marked=self.table.marked_sets(a, b), global_oracle=oracle)

    def cost_of(self, path: Sequence[int]) -> float:
        return self.table.cost_of(path)
