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

for the interpolant (a polynomial or a broken line) through its nodes.
The integrand's 1/sqrt singularity where y reaches 0 at the right
boundary is removed exactly by integrating in u = sqrt(x_end - x), with
composite Gauss-Legendre panels.  Paths whose interpolant dips to 0 or
below before the right boundary, or reaches the floor there with zero
slope (a double root: the integral diverges logarithmically), get the
+inf sentinel instead of an error, so sweeps can enumerate freely.

The abscissae are the same for every path of a grid, so the interpolant
and its slope at the quadrature nodes are fixed linear maps of the node
ordinates: y = sum_i y_i B_i, a sum of one term per node.  One evaluator,
:meth:`BrachistochroneCost.costs`, therefore integrates a block of paths
at once; a single path is a block of one.  Paths share ordinates, so at
each panel level it multiplies every distinct ordinate of a column by
its node's basis row once, and each path gathers its k + 2 terms and
adds them in node order, the same float operations as a path alone.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grover import MarkedSet
from .search import GridProblem

__all__ = [
    "DESK_SCALE_CAP",
    "Grid",
    "QuadratureConfig",
    "Curve",
    "BrachistochroneCost",
    "CostTable",
    "RangeProblemFamily",
    "build_brachistochrone_grid",
    "interpolate",
    "brachistochrone_cost",
    "straight_line_descent_time",
    "cycloid_descent_time",
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

    @property
    def node_abscissae(self) -> tuple[float, ...]:
        """Interpolation abscissae, boundary points included."""
        return (float(self.start[0]), *map(float, self.abscissae), float(self.end[0]))

    def node_rows(self, paths) -> np.ndarray:
        """Interpolation ordinates (boundary points included), one row per path."""
        paths = np.asarray(paths)
        if paths.ndim != 2 or paths.shape[1] != self.k:
            raise ValueError(f"paths need {self.k} indices each, got shape {paths.shape}")
        if not np.all((paths >= 0) & (paths < self.sizes)):
            raise ValueError(f"path index out of range for column sizes {self.sizes}")
        ys = np.column_stack([col[paths[:, i]] for i, col in enumerate(self.columns)])
        return np.pad(ys, ((0, 0), (1, 1)), constant_values=((0, 0), (self.start[1], self.end[1])))

    def node_points(self, path: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Interpolation nodes (boundary points included) for a path."""
        return np.array(self.node_abscissae), self.node_rows([path])[0]


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


# A piece of q whose Bernstein coefficients all exceed this fraction of
# q's largest one is certified positive; a point where q is at or below
# it counts as a touch of the floor.  The node-to-Bernstein map rounds
# those coefficients by at most 5.2e-15 relative (against a 40-digit
# reference) on the 3x8, 3x16, 2x16, 1x64 and 4x6 boards, where a
# positive q comes no closer than 1.2e-4 (path (2, 5, 0, 3) on 4x6).
_POSITIVITY_RTOL = 1e-9
# Halvings of [0, 1] before a piece still dipping below the tolerance
# counts as a touch too: q comes within it of 0 to working precision.
_POSITIVITY_MAX_DEPTH = 40
# Rows x quadrature samples integrated at once: small blocks stay in cache
# and a 3x16 build peaks 2.5 MB above the import (16 MB with 2**18).
_BLOCK_ELEMENTS = 2**14
_KINDS = ("polynomial", "linear")


def _bernstein(t: np.ndarray, d: int) -> np.ndarray:
    """Degree-d Bernstein basis at the points t, shape (t.size, d + 1)."""
    i = np.arange(d + 1)
    return np.array([math.comb(d, j) for j in i]) * t[:, None] ** i * (1.0 - t[:, None]) ** (d - i)


@functools.lru_cache(maxsize=64)
def _node_to_bernstein(xs: tuple[float, ...]) -> np.ndarray:
    """M with M @ ys the Bernstein coefficients, in t = (x - x0)/(x_end - x0),
    of the polynomial through (xs, ys): the inverse of the basis at the nodes."""
    nodes = np.asarray(xs)
    m = np.linalg.inv(_bernstein((nodes - nodes[0]) / (nodes[-1] - nodes[0]), nodes.size - 1))
    m.flags.writeable = False
    return m


def _basis(kind: str, xs: tuple[float, ...], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, dB), each (len(xs), x.size): the interpolant through (xs, ys)
    is ys @ B at the points x, and its slope ys @ dB."""
    nodes = np.asarray(xs)
    d = nodes.size - 1
    if kind == "polynomial":
        span = nodes[-1] - nodes[0]
        t, m = (x - nodes[0]) / span, _node_to_bernstein(xs)
        # the derivative's Bernstein coefficients are d (beta_(i+1) - beta_i)
        slope = _bernstein(t, d - 1) @ np.diff(m, axis=0) * (d / span)
        return (_bernstein(t, d) @ m).T, slope.T
    # broken line: hat functions, the slope's segment picked as np.interp does
    eye = np.eye(d + 1)
    seg = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, d - 1)
    hats = np.array([np.interp(x, nodes, e) for e in eye])
    return hats, (eye[:, seg + 1] - eye[:, seg]) / np.diff(nodes)[seg]


def _combine(rows: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """rows @ basis as one elementwise product per node, not a matmul, so
    that a row's result does not depend on the block it sits in."""
    out = rows[:, :1] * basis[0]
    for i in range(1, basis.shape[0]):
        out += rows[:, i : i + 1] * basis[i]
    return out


def _node_codes(rows: np.ndarray, take: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per node column of ``rows[take]``: its distinct ordinates, and the
    index of each of those rows' ordinates among them, in the smallest
    unsigned type that holds it."""
    codes = []
    for col in rows.T:
        col = col[take]
        # np.unique's own inverse holds several row-sized index arrays at once
        values = np.unique(col)
        index = np.searchsorted(values, col).astype(np.min_scalar_type(values.size - 1))
        codes.append((values, index))
    return codes


def _term_tables(codes, basis: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per node i: a table of its distinct ordinates times basis[i], one
    row each, with each row's index into it (from :func:`_node_codes`)."""
    return [(values[:, None] * b, index) for (values, index), b in zip(codes, basis)]


def _term_sum(tables, take: slice) -> np.ndarray:
    """``_combine(rows, basis)`` for the coded rows at positions ``take``:
    each row gathers its nodes' products from the tables and adds them in
    node order, the same float operations, so bit for bit the same."""
    (first, index), *rest = tables
    out = first[index[take]]
    for table, index in rest:
        out += table[index[take]]
    return out


def _positive(kind: str, xs: tuple[float, ...], rows: np.ndarray) -> np.ndarray:
    """:meth:`Curve.positive_interior` for every row of node ordinates."""
    if kind == "linear":
        # a broken line can only dip as low as its nodes
        return np.all(rows[:, 1:-1] > 0.0, axis=1)
    # k + 2 coefficients per row: multiplying costs less than coding the rows
    bern, d = _combine(rows, _node_to_bernstein(xs).T), len(xs) - 1
    zero_end = rows[:, -1] == 0.0
    ok = np.empty(rows.shape[0], dtype=bool)
    # (1 - t) B_i^(d-1)(t) = (d - i)/d B_i^d(t); bern[:, -1] = y(x_end) = 0
    ok[zero_end] = _bernstein_positive(bern[zero_end, :-1] * d / np.arange(d, 0, -1))
    ok[~zero_end] = _bernstein_positive(bern[~zero_end])
    return ok


def _bernstein_positive(bern: np.ndarray) -> np.ndarray:
    """Per row of Bernstein coefficients on [0, 1], whether the polynomial
    exceeds _POSITIVITY_RTOL * max|row| on the whole closed interval.

    A polynomial lies between its smallest and largest Bernstein coefficient
    and equals the end ones at the ends, so each piece is certified, refuted,
    or halved by de Casteljau subdivision, all rows' pieces a level at a time."""
    tol = _POSITIVITY_RTOL * np.abs(bern).max(axis=1, initial=0.0)
    ok = np.ones(bern.shape[0], dtype=bool)
    pieces, owner = bern, np.arange(bern.shape[0])
    for _ in range(_POSITIVITY_MAX_DEPTH + 1):
        t = tol[owner]
        ok[owner[(pieces[:, 0] <= t) | (pieces[:, -1] <= t)]] = False
        open_ = ok[owner] & (pieces.min(axis=1) <= t)
        pieces, owner = pieces[open_], owner[open_]
        if not owner.size:
            return ok
        left, right = np.empty_like(pieces), np.empty_like(pieces)
        left[:, 0], right[:, -1] = pieces[:, 0], pieces[:, -1]
        for j in range(1, pieces.shape[1]):
            pieces = 0.5 * (pieces[:, :-1] + pieces[:, 1:])
            left[:, j], right[:, -1 - j] = pieces[:, 0], pieces[:, -1]
        pieces, owner = np.concatenate([left, right]), np.concatenate([owner, owner])
    ok[owner] = False  # still undecided after the last halving
    return ok


class Curve:
    """The interpolant through nodes (xs, ys): the polynomial of degree
    len(xs) - 1 (``kind="polynomial"``) or the broken line (``"linear"``)."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray, kind: str = "polynomial"):
        if kind not in _KINDS:
            raise ValueError(f"unknown interpolation kind {kind!r}")
        self.xs = tuple(float(x) for x in xs)
        self.ys = np.asarray(ys, dtype=float)
        self.kind = kind

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        b, _ = _basis(self.kind, self.xs, x.ravel())
        return _combine(self.ys[None, :], b)[0].reshape(x.shape)

    def positive_interior(self) -> bool:
        """True iff the descent-time integral over the curve is finite:
        y > 0 on [x0, x_end) and nonzero slope at a zero end ordinate.
        For the polynomial, the known end root is divided out,
        y = (1 - t) q(t) in t = (x - x0)/(x_end - x0), and q > 0 is decided
        on [0, 1] from its Bernstein coefficients, with no root finding."""
        return bool(_positive(self.kind, self.xs, self.ys[None, :])[0])


def interpolate(grid: Grid, path: Sequence[int], kind: str = "polynomial") -> Curve:
    """Continuous y(x) through the path's nodes plus both boundary points."""
    return Curve(*grid.node_points(path), kind)


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
        counts = (self.base_panels, self.nodes_per_panel, self.max_panels)
        if any(isinstance(c, bool) or not isinstance(c, numbers.Integral) for c in counts):
            raise ValueError(f"panel and node counts must be integers, got {counts}")
        if self.base_panels < 1 or self.nodes_per_panel < 1:
            raise ValueError("panel and node counts must be >= 1")
        if self.max_panels < self.base_panels:
            raise ValueError("max_panels must be >= base_panels")
        if not 0 < self.rel_tol < 1:
            raise ValueError("rel_tol must lie in (0, 1)")


@functools.lru_cache(maxsize=16)
def _layout(xs: tuple[float, ...], kind: str, panels: int, nodes: int):
    """(weights, B, dB) of the quadrature at one panel count: Gauss-Legendre
    panels in u = sqrt(x_end - x), shared among the pieces (the broken
    line's segments) by length in u; dx = -2u du puts 2u in the weights."""
    x_end = xs[-1]
    cuts = xs if kind == "linear" else (xs[0], x_end)
    # larger u lies further left
    spans = [(math.sqrt(max(x_end - b, 0.0)), math.sqrt(x_end - a)) for a, b in zip(cuts, cuts[1:])]
    total = sum(hi - lo for lo, hi in spans)
    xg, wg = leggauss(nodes)
    us, ws = [], []
    for lo, hi in spans:
        share = max(1, round(panels * (hi - lo) / total))
        h = (hi - lo) / share
        starts = lo + h * np.arange(share)
        us.append((starts[:, None] + h * (xg[None, :] + 1.0) / 2.0).ravel())
        ws.append(np.tile(wg * h / 2.0, share))
    u, w = np.concatenate(us), np.concatenate(ws)
    b, db = _basis(kind, xs, x_end - u * u)
    return 2.0 * u * w, np.ascontiguousarray(b), np.ascontiguousarray(db)


def brachistochrone_cost(
    grid: Grid,
    path: Sequence[int],
    *,
    g: float = 9.8,
    quadrature: QuadratureConfig | None = None,
    kind: str = "polynomial",
) -> float:
    """Descent time of one grid path (+inf if its interpolant dips to 0)."""
    return BrachistochroneCost(grid, g, quadrature or QuadratureConfig(), kind)(path)


@dataclass(frozen=True)
class BrachistochroneCost:
    """Cost model bundling a grid with gravity and quadrature settings."""

    grid: Grid
    g: float = 9.8
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)
    kind: str = "polynomial"

    def __post_init__(self) -> None:
        if self.g <= 0:
            raise ValueError("gravity must be positive")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown interpolation kind {self.kind!r}")

    def __call__(self, path: Sequence[int]) -> float:
        return float(self.costs([path])[0])

    def costs(self, paths) -> np.ndarray:
        """Descent time of every row of ``paths``, each bit for bit ``self(path)``:
        +inf where :meth:`Curve.positive_interior` fails or (a safeguard) a
        quadrature sample of y is not positive.  Each path's panels double
        until its value changes by at most ``rel_tol``, RuntimeError past
        ``max_panels``.  At each level, y and its slope at the samples are
        sums of per-node terms from tables over the distinct ordinates of
        the paths still open (:meth:`_estimates`)."""
        xs, rows, cfg = self.grid.node_abscissae, self.grid.node_rows(paths), self.quadrature
        times, prev = np.full(rows.shape[0], math.inf), np.full(rows.shape[0], math.nan)
        positive = np.empty(rows.shape[0], dtype=bool)
        step = max(1, _BLOCK_ELEMENTS // rows.shape[1])
        for s in range(0, rows.shape[0], step):
            positive[s : s + step] = _positive(self.kind, xs, rows[s : s + step])
        live = np.flatnonzero(positive)
        panels = cfg.base_panels
        while live.size:
            if panels > cfg.max_panels:
                raise RuntimeError(f"quadrature did not converge within {cfg.max_panels} panels")
            value = self._estimates(rows, live, panels)
            done = np.isinf(value) | (np.abs(value - prev[live]) <= cfg.rel_tol * np.abs(value))
            times[live[done]] = value[done]
            prev[live] = value
            live = live[~done]
            panels *= 2
        return times

    def _estimates(self, rows: np.ndarray, live: np.ndarray, panels: int) -> np.ndarray:
        """The quadrature at ``panels`` panels for each of ``rows[live]``, +inf
        where a sample of y is not positive.  The term tables are sized by
        the distinct ordinates of these rows, not by the grid's columns, so
        a deep level on few rows stays small; blocks of _BLOCK_ELEMENTS
        samples gather their y and slope from them (:func:`_term_sum`)
        and form the integrand in place."""
        xs, nodes = self.grid.node_abscissae, self.quadrature.nodes_per_panel
        weights, b, db = _layout(xs, self.kind, panels, nodes)
        codes = _node_codes(rows, live)
        y_terms, dy_terms = _term_tables(codes, b), _term_tables(codes, db)
        step = max(1, _BLOCK_ELEMENTS // weights.size)
        value = np.empty(live.size)
        for s in range(0, live.size, step):
            block = slice(s, s + step)
            y, f = _term_sum(y_terms, block), _term_sum(dy_terms, block)
            floor = np.any(y <= 0.0, axis=1)
            # f = sqrt((1 + dy^2) / (2 g y)) * weights
            f *= f
            f += 1.0
            y *= 2.0 * self.g
            with np.errstate(divide="ignore", invalid="ignore"):
                f /= y
                np.sqrt(f, out=f)
            f *= weights
            value[block] = np.where(floor, math.inf, f.sum(axis=1))
        return value


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
    def build(cls, sizes: Sequence[int], cost, cap: int = DESK_SCALE_CAP) -> "CostTable":
        """Tabulate ``cost`` over the product of ``range(n)`` for n in ``sizes``.

        ``cost`` is a batch cost model: ``cost.costs(paths)`` maps a
        ``(B, k)`` int64 array of paths to their B float costs, and is
        called once, on every path in lexicographic order.  ValueError for
        a bucket size below 1 or a product space larger than ``cap``."""
        sizes = tuple(int(n) for n in sizes)
        if any(n < 1 for n in sizes):
            raise ValueError("bucket sizes must be >= 1")
        space = math.prod(sizes)
        if space > cap:
            raise ValueError(f"product space {space} exceeds enumeration cap {cap}")
        paths = np.indices(sizes).reshape(len(sizes), -1).T.copy()
        return cls(sizes=sizes, paths=paths, costs=cost.costs(paths))

    def cost_of(self, path: Sequence[int]) -> float:
        return float(self.costs[self._flat_index(path)])

    def _flat_index(self, path: Sequence[int]) -> int:
        """Row-major position of ``path`` in the table; ValueError if it
        has the wrong length or a coordinate outside its bucket."""
        if len(path) != len(self.sizes):
            raise ValueError(f"path {tuple(path)} needs {len(self.sizes)} coordinates")
        flat = 0
        for i, n in zip(map(int, path), self.sizes):
            if not 0 <= i < n:
                raise ValueError(f"coordinate {i} outside [0, {n})")
            flat = flat * n + i
        return flat

    def solution_mask(self, a: float, b: float) -> np.ndarray:
        return (self.costs > a) & (self.costs < b)

    def solution_paths(self, a: float, b: float) -> list[tuple[int, ...]]:
        return [tuple(int(i) for i in row) for row in self.paths[self.solution_mask(a, b)]]

    def marked_sets(self, a: float, b: float) -> list[MarkedSet]:
        """Per-column projection of the solution set (the marked sets
        handed to the parallel search)."""
        return self._project(self.solution_mask(a, b))

    def cross_path_rate(self, a: float, b: float) -> float:
        """Fraction of the projections' product that is NOT a solution.

        The product of the per-column projections over-approximates the
        solution set; this is the rate at which a tuple assembled from
        individually valid coordinates misses the cost window.  Zero when
        the product is empty.
        """
        solutions = self.solution_mask(a, b).reshape(self.sizes)
        product = functools.reduce(np.logical_and, self._projections(solutions))
        count = int(product.sum())
        if count == 0:
            return 0.0
        return int((product & ~solutions).sum()) / count

    def _projections(self, mask: np.ndarray) -> list[np.ndarray]:
        """Per column, which of its indices occur in a path of ``mask``, as
        a boolean array shaped to broadcast against the grid of paths."""
        grid = mask.reshape(self.sizes)
        axes = range(grid.ndim)
        return [grid.any(axis=tuple(a for a in axes if a != i), keepdims=True) for i in axes]

    def _project(self, mask: np.ndarray) -> list[MarkedSet]:
        return [
            MarkedSet.from_indices(n, np.flatnonzero(hit))
            for n, hit in zip(self.sizes, self._projections(mask))
        ]

    def minimum(self) -> tuple[tuple[int, ...], float]:
        """Cheapest path; ties resolve to the lexicographically first."""
        idx = int(np.argmin(self.costs))
        return tuple(int(i) for i in self.paths[idx]), float(self.costs[idx])


def _in_window(mask: np.ndarray, sizes: tuple[int, ...], paths: np.ndarray) -> np.ndarray:
    """``mask`` at each row of ``paths``; ValueError for rows of the wrong
    length or with a coordinate outside its bucket."""
    return mask[np.ravel_multi_index(paths.T, sizes)]


@dataclass
class RangeProblemFamily:
    """Builds the (a, b) range-search problem for any bracket on demand.

    Costs are tabulated once; each bracket's problem is the table's
    per-column projection of the window (its marked sets) plus a global
    oracle that reads the window's mask of tabulated costs at every row
    of a batch of paths, so repeated brackets over the same space stay
    cheap and consistent.
    """

    table: CostTable

    def __call__(self, a: float, b: float) -> GridProblem:
        mask = self.table.solution_mask(a, b)
        oracle = functools.partial(_in_window, mask, self.table.sizes)
        return GridProblem(marked=self.table._project(mask), global_oracle=oracle)

    def cost_of(self, path: Sequence[int]) -> float:
        return self.table.cost_of(path)
