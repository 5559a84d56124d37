import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gridgrover import (
    MarkedSet,
    Register,
    RotationAngle,
    analytic_amplitudes,
    apply_oracle,
    grover_iterate,
    invert_about_mean,
    measure,
    success_probability,
    uniform_init,
)
from gridgrover.grover import ClosedFormTables, measure_closed_form_grid
from reference_sampler import measure_closed_form


def test_uniform_init_amplitudes():
    reg = uniform_init(5)
    assert_allclose(reg.amplitudes, np.full(5, 1.0 / math.sqrt(5)), rtol=0, atol=1e-15)


def test_oracle_flips_only_marked():
    reg = uniform_init(4)
    flipped = apply_oracle(reg, MarkedSet.from_indices(4, [2]))
    assert flipped.amplitudes[2] == -reg.amplitudes[2]
    assert_allclose(np.delete(flipped.amplitudes, 2), np.delete(reg.amplitudes, 2))


def test_inversion_frozen_examples():
    reg = Register(np.array([0.5, 0.5, -0.5, 0.5]))
    assert_allclose(invert_about_mean(reg).amplitudes, [0.0, 0.0, 1.0, 0.0], atol=1e-15)
    basis = Register(np.array([1.0, 0.0, 0.0, 0.0]))
    assert_allclose(invert_about_mean(basis).amplitudes, [-0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_single_iteration_exact_rotation():
    # n=4, M=1: theta = pi/6, so one iteration rotates onto the marked state
    marked_amp, unmarked_amp = analytic_amplitudes(4, 1, 1)
    assert abs(marked_amp - 1.0) <= 1e-12
    assert abs(unmarked_amp) <= 1e-12


def test_analytic_quarter_marked():
    # n=16, M=4: theta = pi/6 again, amplitudes (1/2, 0) after one step
    marked_amp, unmarked_amp = analytic_amplitudes(16, 4, 1)
    assert abs(marked_amp - 0.5) <= 1e-12
    assert abs(unmarked_amp) <= 1e-12


@pytest.mark.parametrize("n,m", [(2, 1), (7, 3), (16, 4), (33, 10), (64, 1)])
def test_statevector_matches_closed_form(n, m):
    marked = MarkedSet.from_indices(n, range(m))
    mask = marked.indicator()
    state = uniform_init(n)
    for j in range(2 * math.isqrt(n) + 3):
        want_marked, want_unmarked = analytic_amplitudes(n, m, j)
        assert_allclose(state.amplitudes[mask], want_marked, rtol=0, atol=1e-10)
        assert_allclose(state.amplitudes[~mask], want_unmarked, rtol=0, atol=1e-10)
        state = grover_iterate(state, marked, 1)


def test_norm_preserved_many_iterations():
    marked = MarkedSet.from_indices(50, [3, 4, 11])
    state = grover_iterate(uniform_init(50), marked, 200)
    assert abs(float(np.sum(state.amplitudes**2)) - 1.0) <= 1e-10


def test_success_probability_follows_rotation():
    n, m = 32, 2
    theta = RotationAngle.from_counts(n, m).theta
    marked = MarkedSet.from_indices(n, [5, 9])
    for j in range(12):
        state = grover_iterate(uniform_init(n), marked, j)
        want = math.sin((2 * j + 1) * theta) ** 2
        assert abs(success_probability(state, marked) - want) <= 1e-12


def test_degenerate_all_marked_stays_uniform():
    # oracle flips everything, diffusion flips back: probabilities never move
    n = 8
    marked = MarkedSet.from_indices(n, range(n))
    state = grover_iterate(uniform_init(n), marked, 7)
    assert_allclose(state.amplitudes**2, np.full(n, 1.0 / n), atol=1e-12)
    assert success_probability(state, marked) == pytest.approx(1.0, abs=1e-12)


def test_degenerate_none_marked_stays_uniform():
    n = 8
    marked = MarkedSet.from_indices(n, [])
    state = grover_iterate(uniform_init(n), marked, 7)
    assert_allclose(state.amplitudes**2, np.full(n, 1.0 / n), atol=1e-12)
    assert success_probability(state, marked) == 0.0


def test_analytic_rejects_degenerate_counts():
    with pytest.raises(ValueError):
        analytic_amplitudes(8, 0, 1)
    with pytest.raises(ValueError):
        analytic_amplitudes(8, 8, 1)
    with pytest.raises(ValueError):
        analytic_amplitudes(1, 1, 0)


def test_measure_statistics():
    reg = Register(np.array([math.sqrt(0.3), math.sqrt(0.7)]))
    rng = np.random.default_rng(1234)
    draws = measure(reg, rng, shots=1_000_000)
    assert abs(float(np.mean(draws == 1)) - 0.7) < 0.005


def test_measure_single_draw_deterministic():
    reg = uniform_init(6)
    a = measure(reg, np.random.default_rng(42))
    b = measure(reg, np.random.default_rng(42))
    assert isinstance(a, int)
    assert a == b


def test_validation_errors():
    with pytest.raises(ValueError):
        Register(np.array([1.0, 1.0]))  # norm 2
    with pytest.raises(ValueError):
        Register(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        Register(np.zeros(0))
    with pytest.raises(ValueError):
        MarkedSet.from_indices(4, [4])
    with pytest.raises(ValueError):
        uniform_init(0)
    with pytest.raises(ValueError):
        grover_iterate(uniform_init(4), MarkedSet.from_indices(4, [0]), -1)
    with pytest.raises(ValueError):
        apply_oracle(uniform_init(4), MarkedSet.from_indices(5, [0]))


_MARK_INPUTS = {
    "list": list,
    "set": set,
    "generator": lambda xs: (x for x in xs),
    "array": lambda xs: np.array(xs, dtype=np.int64),
    "sorted array": lambda xs: np.array(sorted(set(xs)), dtype=np.int64),
}


@st.composite
def mark_inputs(draw):
    """A bucket size, marks in any order with repeats, and an input form."""
    n = draw(st.one_of(st.integers(1, 64), st.integers(1, 2**62)))
    xs = draw(st.lists(st.integers(0, n - 1), max_size=40))
    return n, xs, draw(st.sampled_from(sorted(_MARK_INPUTS)))


@settings(max_examples=300, deadline=None)
@given(mark_inputs())
@example((8, [5, 1, 5, 0, 7, 1], "array"))
@example((2**62, [2**62 - 1, 0, 2**61], "generator"))
def test_marked_set_holds_sorted_distinct_read_only_int64(case):
    n, xs, kind = case
    given_marks = _MARK_INPUTS[kind](xs)
    ms = MarkedSet(n, given_marks)
    assert ms.marked.dtype == np.int64 and ms.marked.ndim == 1
    assert not ms.marked.flags.writeable
    assert ms.marked.tolist() == sorted(set(xs)) and ms.count == len(set(xs))
    if isinstance(given_marks, np.ndarray):  # the caller's array is copied, not frozen
        assert given_marks.flags.writeable
    if n <= 64:
        assert np.flatnonzero(ms.indicator()).tolist() == ms.marked.tolist()


@pytest.mark.parametrize("form", [list, lambda xs: np.array(xs, dtype=np.int64)], ids=["list", "array"])
@pytest.mark.parametrize("n, bad", [(4, -1), (4, 4), (4, 9), (2**40, 2**40), (5, -(2**63))])
def test_marked_index_outside_the_bucket_is_refused(form, n, bad):
    with pytest.raises(ValueError, match=rf"^marked index {bad} outside \[0, {n}\)$"):
        MarkedSet(n, form([1, bad, 0]))


@pytest.mark.parametrize("bad", [2**63, -(2**63) - 1, 2**80])
def test_marked_index_beyond_int64_is_a_value_error(bad):
    with pytest.raises(ValueError, match=r"^marked index outside \[0, 8\): it does not fit in int64$"):
        MarkedSet(8, [1, bad])


@st.composite
def bucket_draws(draw):
    n = draw(st.integers(1, 512))
    marks = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    times = draw(st.integers(0, 64))
    u = draw(st.floats(0.0, 1.0, exclude_max=True))
    return n, marks, times, u


@settings(max_examples=300, deadline=None)
@given(bucket_draws())
def test_closed_form_sampler_inverts_statevector_cdf(case):
    n, marks, times, u = case
    amps = grover_iterate(uniform_init(n), MarkedSet.from_indices(n, marks), times).amplitudes
    cum = np.cumsum(amps * amps)
    cum /= cum[-1]
    # a draw within rounding distance of a CDF step may land either side
    assume(np.min(np.abs(cum - u)) > 1e-9)
    want = min(int(np.searchsorted(cum, u, side="right")), n - 1)
    assert measure_closed_form(marks, n, times, u) == want


@st.composite
def sampler_grids(draw):
    """Ragged buckets (mark counts 0 to n, sizes up to 2**53) and a block
    of (times, u) rows, one column per bucket."""
    k = draw(st.integers(1, 4))
    buckets = []
    for _ in range(k):
        n = draw(st.one_of(st.integers(1, 64), st.integers(1, 2**53)))
        count = draw(st.integers(0, min(n, 64)))
        if count == n:
            marks = list(range(n))
        else:
            marks = sorted(draw(st.sets(st.integers(0, n - 1), min_size=count, max_size=count)))
        buckets.append((n, marks))
    rows = draw(st.integers(1, 24))
    times = draw(st.lists(st.lists(st.integers(0, 300), min_size=k, max_size=k), min_size=rows, max_size=rows))
    u = draw(st.lists(
        st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=k, max_size=k),
        min_size=rows,
        max_size=rows,
    ))
    return buckets, times, u


@settings(max_examples=300, deadline=None)
@given(sampler_grids())
# phase pi/2: p_unmarked is about 1e-33, so the offset inside a run
# overflows int64 unless it is clamped first
@example(([(8, [2, 5])], [[1], [1], [1], [0]], [[0.9], [0.3], [0.999], [0.5]]))
@example((
    [(8, [2, 5]), (5, []), (4, [0, 1, 2, 3]), (2**53, [0, 2**52, 2**53 - 1])],
    [[1, 0, 2, 7], [1, 3, 0, 300]],
    [[0.999, 0.2, 0.7, 0.5], [0.3, 0.99, 0.1, 0.9999]],
))
# at most 1, 8 and 16 marks: the search over the marks takes 1, 4 and 5
# steps, and a probe past a bucket's last mark must fail; draws past the
# last mark, in the first run, and in all-marked buckets
@example(([(9, [4]), (5, [])], [[1, 0], [0, 0], [2, 1]], [[0.999, 0.5], [0.0, 0.99], [0.5, 0.2]]))
@example((
    [(64, list(range(3, 64, 8))), (8, list(range(8))), (1, [0])],
    [[3, 0, 0], [0, 2, 5], [1, 1, 1]],
    [[0.9999, 0.97, 0.3], [0.001, 0.0, 0.9], [0.5, 0.99, 0.0]],
))
@example((
    [(2**53, [2**49 * t for t in range(16)]), (16, list(range(16)))],
    [[1, 0], [7, 2], [0, 3]],
    [[0.99999, 0.97], [0.0001, 0.5], [0.5, 0.0]],
))
def test_array_sampler_matches_scalar_bit_for_bit(case):
    buckets, times, u = case
    tables = ClosedFormTables.from_marks([m for _, m in buckets], [n for n, _ in buckets])
    got = measure_closed_form_grid(tables, np.array(times, dtype=np.int64), np.array(u))
    want = [
        [measure_closed_form(m, n, t, x) for (n, m), t, x in zip(buckets, row_t, row_u)]
        for row_t, row_u in zip(times, u)
    ]
    assert got.tolist() == want
    # the same marks as int64 arrays, the form MarkedSet holds them in
    arrays = ClosedFormTables.from_marks([np.array(m, dtype=np.int64) for _, m in buckets], [n for n, _ in buckets])
    assert measure_closed_form_grid(arrays, np.array(times, dtype=np.int64), np.array(u)).tolist() == want
