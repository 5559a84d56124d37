import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gridgrover import (
    BrachistochroneCost,
    CostTable,
    Curve,
    Grid,
    MarkedSet,
    QuadratureConfig,
    RangeProblemFamily,
    brachistochrone_cost,
    build_brachistochrone_grid,
    cycloid_descent_time,
    interpolate,
    straight_line_descent_time,
)
from gridgrover.cli import IndexSumCost

# closed-form descent time of the straight ramp, pi*sqrt(1+4/pi^2)/sqrt(9.8)
LINE_COST = 1.1896494253405916


class TabulatedCost:
    """Batch cost model that reads each path's cost from an array shaped like the grid."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def costs(self, paths):
        return self.values[tuple(paths.T)]


def test_grid_ordinates_exclude_zero():
    grid = build_brachistochrone_grid(1, [4])
    assert_allclose(grid.columns[0], [0.5, 1.0, 1.5, 2.0])
    assert_allclose(grid.abscissae, [math.pi / 2])


def test_grid_layout():
    grid = build_brachistochrone_grid(3, 8)
    assert_allclose(grid.abscissae, [math.pi / 4, math.pi / 2, 3 * math.pi / 4])
    assert grid.sizes == (8, 8, 8)
    assert grid.start == (0.0, 2.0)
    assert grid.end == (math.pi, 0.0)
    assert grid.k == 3


def test_grid_validation():
    with pytest.raises(ValueError):
        build_brachistochrone_grid(0, 4)
    with pytest.raises(ValueError):
        build_brachistochrone_grid(2, [4])
    with pytest.raises(ValueError):
        Grid(
            abscissae=np.array([2.0, 1.0]),
            columns=(np.array([1.0]), np.array([1.0])),
            start=(0.0, 2.0),
            end=(math.pi, 0.0),
        )
    grid = build_brachistochrone_grid(2, 4)
    with pytest.raises(ValueError):
        grid.node_points((0,))
    with pytest.raises(ValueError):
        grid.node_points((0, 4))


@pytest.mark.parametrize("kind", ["polynomial", "linear"])
def test_interpolation_reproduces_nodes(kind):
    grid = build_brachistochrone_grid(3, 8)
    xs, ys = grid.node_points((7, 6, 4))
    curve = interpolate(grid, (7, 6, 4), kind=kind)
    assert_allclose(curve(xs), ys, atol=1e-9)


def test_interpolation_rejects_unknown_kind():
    grid = build_brachistochrone_grid(1, [2])
    with pytest.raises(ValueError):
        interpolate(grid, (0,), kind="spline")


def test_collinear_midpoint_gives_straight_line_cost():
    grid = Grid(
        abscissae=np.array([math.pi / 2]),
        columns=(np.array([1.0]),),
        start=(0.0, 2.0),
        end=(math.pi, 0.0),
    )
    for kind in ("polynomial", "linear"):
        got = brachistochrone_cost(grid, (0,), kind=kind)
        assert abs(got - LINE_COST) <= 1e-3
    assert abs(straight_line_descent_time() - LINE_COST) <= 1e-15
    assert cycloid_descent_time() == math.pi / math.sqrt(9.8)


def test_quadrature_settles_near_fine_reference():
    grid = build_brachistochrone_grid(2, [4, 4])
    coarse = brachistochrone_cost(grid, (3, 2))
    fine = brachistochrone_cost(
        grid, (3, 2), quadrature=QuadratureConfig(base_panels=256)
    )
    assert abs(coarse - fine) <= 0.01 * fine


def test_dipping_interpolant_gets_inf_sentinel():
    grid = build_brachistochrone_grid(3, 8)
    # low-high-low ordinates push the degree-4 interpolant below zero
    assert brachistochrone_cost(grid, (0, 7, 0)) == math.inf
    # the broken line through the same (positive) nodes stays finite
    assert math.isfinite(brachistochrone_cost(grid, (0, 7, 0), kind="linear"))


def test_zero_end_slope_gets_inf_sentinel():
    grid = build_brachistochrone_grid(3, 16)
    # the nodes sit on 2(1 - x/pi)^2: a double root at the end, where the
    # descent-time integral diverges logarithmically
    xs, ys = grid.node_points((8, 3, 0))
    assert_allclose(ys, 2 * (1 - xs / math.pi) ** 2, atol=1e-15)
    assert brachistochrone_cost(grid, (8, 3, 0)) == math.inf


def exact_q_on_grid(xs, ys, points):
    # independent reference: exact rational Lagrange evaluation of q at
    # t = i/points, where t = (x - x0)/(x_end - x0) and y = (1 - t) q(t)
    # for a zero end ordinate (q = y otherwise); q then interpolates
    # y_i/(1 - t_i) at every node but the end one
    xq = [Fraction(float(x)) for x in xs]
    yq = [Fraction(float(y)) for y in ys]
    ts = [(x - xq[0]) / (xq[-1] - xq[0]) for x in xq]
    if yq[-1] == 0:
        ts, yq = ts[:-1], [y / (1 - t) for t, y in zip(ts[:-1], yq[:-1])]
    coef = [Fraction(0)] * len(ts)
    for i, (ti, yi) in enumerate(zip(ts, yq)):
        basis = [Fraction(1)]  # power coefficients of the i-th Lagrange basis
        for j, tj in enumerate(ts):
            if j != i:
                shifted = [Fraction(0)] + basis
                basis = [a - tj * b for a, b in zip(shifted, basis + [Fraction(0)])]
                basis = [c / (ti - tj) for c in basis]
        coef = [c + yi * b for c, b in zip(coef, basis)]
    values = []
    for i in range(points + 1):
        t, acc = Fraction(i, points), Fraction(0)
        for c in reversed(coef):
            acc = acc * t + c
        values.append(acc)
    return values, len(coef) - 1


@st.composite
def interpolation_nodes(draw):
    k = draw(st.integers(1, 5))
    xs = np.array([math.pi * i / (k + 1) for i in range(k + 2)])
    t = xs / math.pi
    y0 = draw(st.floats(0.25, 4.0))
    y_end = draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0)))
    if draw(st.booleans()):
        inner = draw(st.lists(st.floats(-0.5, 3.0), min_size=k, max_size=k))
    else:
        # near-degenerate fit: nodes on a polynomial of degree <= k through
        # both endpoints, so the degree-(k+1) fit has a rounding-level top
        # coefficient (degree 1 is the collinear case)
        bend = draw(st.lists(st.floats(-4.0, 4.0), max_size=k - 1))
        shape = np.polynomial.polynomial.polyval(t, bend) if bend else 0.0 * t
        inner = list((y0 + (y_end - y0) * t + t * (1 - t) * shape)[1:-1])
    return xs, np.array([y0, *inner, y_end])


@settings(max_examples=200, deadline=None)
@given(interpolation_nodes())
@example((np.array([0.0, math.pi / 2, math.pi]), np.array([2.0, 1.0, 0.0])))
def test_positive_interior_matches_exact_reference(case):
    xs, ys = case
    points = 256
    values, m = exact_q_on_grid(xs, ys, points)
    # Markov's inequality bounds |q''| on [0, 1] by 4 m^2 (m^2 - 1)/3 max|q|,
    # so between grid points q sits within h^2/8 of that below its samples;
    # for m <= 6 and h = 1/256, max|q| is below twice the largest sample
    dip = 4 * m * m * (m * m - 1) / 3 / (8 * points * points)
    margin = 2 * dip * max(abs(v) for v in values)
    lowest = min(values)
    assume(abs(lowest) > margin)
    assert Curve(xs, ys).positive_interior() == (lowest > 0)


def test_quadrature_nonconvergence_raises():
    grid = build_brachistochrone_grid(1, [2])
    cfg = QuadratureConfig(base_panels=1, nodes_per_panel=1, max_panels=2, rel_tol=1e-12)
    with pytest.raises(RuntimeError):
        brachistochrone_cost(grid, (1,), quadrature=cfg)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(base_panels=0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_panels=8, base_panels=16)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=1.5)
    for bad in ({"base_panels": 16.5}, {"nodes_per_panel": True}, {"max_panels": 64.0}):
        with pytest.raises(ValueError):
            QuadratureConfig(**bad)
    assert QuadratureConfig(base_panels=np.int64(4)).base_panels == 4
    with pytest.raises(ValueError):
        brachistochrone_cost(build_brachistochrone_grid(1, [2]), (0,), g=0.0)


@pytest.mark.parametrize(
    "k, n, kind, infs, path, cost",
    [
        (3, 8, "polynomial", 135, (7, 6, 4), 1.013104),
        (3, 8, "linear", 0, (7, 6, 4), 1.030296),
        (3, 16, "polynomial", 1213, (14, 12, 9), 1.011617),
        (3, 16, "linear", 0, (15, 13, 10), 1.029091),
    ],
)
def test_cost_table_pins(k, n, kind, infs, path, cost):
    grid = build_brachistochrone_grid(k, n)
    table = CostTable.build(grid.sizes, BrachistochroneCost(grid, kind=kind))
    assert int(np.isinf(table.costs).sum()) == infs
    got_path, got_cost = table.minimum()
    assert got_path == path
    assert abs(got_cost - cost) <= 5e-7


@pytest.mark.parametrize("kind", ["polynomial", "linear"])
def test_single_path_cost_is_the_table_entry(kind):
    # one row alone and the same row inside a block of rows (the 512 rows
    # span several evaluation blocks), bit for bit
    grid = build_brachistochrone_grid(3, 8)
    table = CostTable.build(grid.sizes, BrachistochroneCost(grid, kind=kind))
    for path in table.paths:
        assert brachistochrone_cost(grid, tuple(path), kind=kind) == table.cost_of(path)


# uneven columns, and an end ordinate above the floor so the end node adds a term
UNEVEN_GRID = Grid(
    abscissae=np.array([0.8, 1.6, 2.4]),
    columns=(np.linspace(0.4, 2.4, 5), np.linspace(0.1, 2.1, 9), np.array([0.3, 0.9, 1.8])),
    start=(0.0, 2.0),
    end=(3.0, 0.3),
)


def _reference_descent_time(grid, path, kind, g=9.8):
    """Descent time from scipy's adaptive quadrature (polynomial) or the
    exact segment times 2L/(v0 + v1) (broken line), apart from the evaluator."""
    integrate = pytest.importorskip("scipy.integrate")
    xs, ys = grid.node_points(path)
    if kind == "linear":
        v = np.sqrt(2.0 * g * ys)
        return float(np.sum(2.0 * np.hypot(np.diff(xs), np.diff(ys)) / (v[:-1] + v[1:])))
    y = np.polynomial.Polynomial.fit(xs, ys, len(xs) - 1)
    dy = y.deriv()
    return integrate.quad(lambda x: math.sqrt((1.0 + dy(x) ** 2) / (2.0 * g * y(x))), xs[0], xs[-1])[0]


@pytest.mark.parametrize("kind", ["polynomial", "linear"])
def test_costs_of_a_shuffled_subset_with_repeats_are_the_table_entries(kind):
    # each subset has its own distinct ordinates per column, so its term
    # tables and row indices differ from the table's at every panel level
    cost = BrachistochroneCost(UNEVEN_GRID, quadrature=QuadratureConfig(rel_tol=1e-6), kind=kind)
    table = CostTable.build(UNEVEN_GRID.sizes, cost)
    assert np.isfinite(table.costs).any()
    rng = np.random.default_rng(11)
    for size in (1, 7, 60, 300):
        pick = rng.integers(0, len(table.paths), size)
        assert cost.costs(table.paths[pick]).tobytes() == table.costs[pick].tobytes()
    pick = rng.permutation(len(table.paths))[:40]
    assert cost.costs(table.paths[pick]).tobytes() == table.costs[pick].tobytes()
    # and the entries are descent times over a curve that ends at y = 0.3
    for flat in (0, 70, int(np.argmin(table.costs))):
        path = tuple(table.paths[flat])
        if np.isfinite(table.costs[flat]):
            reference = _reference_descent_time(UNEVEN_GRID, path, kind)
            assert abs(table.costs[flat] - reference) <= 1e-5 * reference


def test_unconverged_path_fails_in_bounded_memory():
    # one path taken to max_panels: 16,384 samples at the last level, where
    # term tables over all 194 node ordinates of the 3x64 board would hold
    # 2 x 194 x 16,384 floats (49 MB) against 2 x 5 x 16,384 for this path
    grid = build_brachistochrone_grid(3, 64)
    cfg = QuadratureConfig(base_panels=1, nodes_per_panel=1, rel_tol=1e-12)
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="^quadrature did not converge within 16384 panels$"):
            brachistochrone_cost(grid, (62, 60, 32), quadrature=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_large_board_builds_in_bounded_memory():
    grid = build_brachistochrone_grid(4, 16)
    tracemalloc.start()
    try:
        table = CostTable.build(grid.sizes, BrachistochroneCost(grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all 65,536 paths at once would take 64 MB per (paths x samples) array
    assert peak < 40 * 2**20
    assert int(np.isinf(table.costs).sum()) == 27167
    path, cost = table.minimum()
    assert path == (15, 14, 12, 9)
    assert abs(cost - 1.010461) <= 5e-7


def test_polynomial_positivity_is_blocked_like_the_quadrature():
    # deciding positivity for all 65,536 rows at once peaked at 22 MB;
    # the broken line, which needs no Bernstein pieces, peaks at 8.9 MB
    grid = build_brachistochrone_grid(4, 16)
    tracemalloc.start()
    try:
        CostTable.build(grid.sizes, BrachistochroneCost(grid, kind="polynomial"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2**20


@pytest.mark.parametrize("path", [(1,), (1, 1, 1), (-1, 0), (0, -3), (3, 0), (0, 2), (7, 7)])
def test_cost_of_rejects_paths_outside_the_table(path):
    table = CostTable.build((3, 2), IndexSumCost(sizes=(3, 2)))
    with pytest.raises(ValueError):
        table.cost_of(path)


def test_cost_table_order_lookup_minimum():
    table = CostTable.build((3, 2), IndexSumCost(sizes=(3, 2)))
    assert [tuple(p) for p in table.paths] == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
    ]
    assert table.cost_of((2, 1)) == 3.0
    assert table.minimum() == ((0, 0), 0.0)


def test_cost_table_tie_breaks_lexicographically():
    table = CostTable.build((2, 2), TabulatedCost(np.ones((2, 2))))
    assert table.minimum() == ((0, 0), 1.0)


def test_solution_window_and_marked_sets():
    table = CostTable.build((3, 3), IndexSumCost(sizes=(3, 3)))
    paths = table.solution_paths(0.5, 2.5)  # sums 1 and 2
    assert paths == [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    sets = table.marked_sets(0.5, 2.5)
    assert [sorted(s.marked) for s in sets] == [[0, 1, 2], [0, 1, 2]]
    empty = table.marked_sets(10.0, 11.0)
    assert [sorted(s.marked) for s in empty] == [[], []]


def test_enumeration_cap():
    with pytest.raises(ValueError):
        CostTable.build((4000, 4000), IndexSumCost(sizes=(4000, 4000)))


def scan_marked_sets(sizes, cost, a, b):
    # independent oracle: existence scan over the whole product space
    sets = []
    for i, n in enumerate(sizes):
        hit = set()
        for path in itertools.product(*(range(s) for s in sizes)):
            if a < cost(path) < b:
                hit.add(path[i])
        sets.append(MarkedSet.from_indices(n, hit))
    return sets


def test_derived_marked_sets_match_existence_scan_toy():
    sizes = (4, 3, 2)
    cost = IndexSumCost(sizes=sizes)
    table = CostTable.build(sizes, cost)
    for a, b in [(1.5, 4.5), (0.5, 1.5), (-1.0, 0.5), (7.5, 9.0)]:
        got = table.marked_sets(a, b)
        want = scan_marked_sets(sizes, cost, a, b)
        assert [sorted(m.marked) for m in got] == [sorted(m.marked) for m in want]
        want_paths = [
            p
            for p in itertools.product(*(range(s) for s in sizes))
            if a < cost(p) < b
        ]
        assert table.solution_paths(a, b) == want_paths


def test_cross_path_rate_toy_values():
    table = CostTable.build((2, 2), IndexSumCost(sizes=(2, 2)))
    # solutions of (0.5, 1.5) are (0,1) and (1,0); the projected product
    # adds (0,0) and (1,1), so half the product misses the window
    assert table.cross_path_rate(0.5, 1.5) == 0.5
    # empty window: empty product, rate 0 by convention
    assert table.cross_path_rate(10.0, 11.0) == 0.0
    # full window: product equals solution set
    assert table.cross_path_rate(-1.0, 3.0) == 0.0


def test_range_problem_family_consistency():
    fam = RangeProblemFamily(CostTable.build((4, 4), IndexSumCost(sizes=(4, 4))))
    prob = fam(4.5, 6.5)  # sums 5 and 6
    assert [sorted(s.marked) for s in prob.marked] == [[2, 3], [2, 3]]
    # sum 4: inside the product, outside the window
    assert prob.global_oracle(np.array([[2, 3], [3, 3], [2, 2]])).tolist() == [True, True, False]
    assert fam.cost_of((3, 2)) == 5.0


@pytest.mark.parametrize("sizes", [(7,), (4, 3, 5), (2, 6)])
def test_range_oracle_reads_the_solution_mask(sizes):
    table = CostTable.build(sizes, IndexSumCost(sizes=sizes))
    fam = RangeProblemFamily(table)
    for a, b in [(0.5, 3.5), (-1.0, 0.5), (2.0, 2.5), (-1.0, 99.0)]:
        oracle = fam(a, b).global_oracle
        # every path, in table order and reversed
        assert oracle(table.paths).tolist() == table.solution_mask(a, b).tolist()
        assert oracle(table.paths[::-1]).tolist() == table.solution_mask(a, b)[::-1].tolist()
    bad_rows = [
        np.zeros((2, len(sizes) + 1), dtype=np.int64),  # one coordinate too many
        np.array([[n - 1 for n in sizes], [*[0] * (len(sizes) - 1), sizes[-1]]]),  # out of range
        np.array([[*[0] * (len(sizes) - 1), -1]]),  # negative
    ]
    for paths in bad_rows:
        with pytest.raises(ValueError):
            oracle(paths)


_LEVELS = [-1.0, 0.0, 0.5, 1.0, 2.0, 2.5, math.inf]


@st.composite
def cost_windows(draw):
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    space = math.prod(sizes)
    costs = np.array(draw(st.lists(st.sampled_from(_LEVELS), min_size=space, max_size=space)))
    # windows on, between and beyond the cost levels, ties included
    a, b = sorted(draw(st.lists(st.sampled_from([*_LEVELS, 0.25, 1.5, 3.0, -math.inf]), min_size=2, max_size=2)))
    assume(a < b)
    return CostTable.build(sizes, TabulatedCost(costs.reshape(sizes))), a, b


@settings(max_examples=200, deadline=None)
@given(cost_windows())
def test_range_problem_has_an_empty_bucket_exactly_when_its_window_is_empty(case):
    table, a, b = case
    problem = RangeProblemFamily(table)(a, b)
    assert problem.has_empty_bucket != table.solution_mask(a, b).any()


@settings(max_examples=200, deadline=None)
@given(cost_windows())
def test_cross_path_rate_counts_the_product_members_outside_the_window(case):
    table, a, b = case
    # independent count: scan for the solutions, project them by hand and
    # walk the product of the projections
    scan = itertools.product(*(range(n) for n in table.sizes))
    solutions = {path for path in scan if a < table.cost_of(path) < b}
    columns = [sorted({path[i] for path in solutions}) for i in range(len(table.sizes))]
    product = list(itertools.product(*columns))
    misses = sum(path not in solutions for path in product)
    assert table.cross_path_rate(a, b) == (misses / len(product) if product else 0.0)
