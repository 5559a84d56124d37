import math
from dataclasses import replace

import numpy as np
import pytest

import gridgrover.analysis as analysis
from gridgrover import (
    BucketStats,
    GridProblem,
    MarkedSet,
    ScheduleParams,
    avg_success_probability,
    derive_seed,
    empirical_vs_closed_form,
    lemma_threshold,
    run_grid_search,
    runtime_trials,
    stats_from_problem,
    theorem_bounds,
    trig_identity_residual,
    trial_rng,
)
from reference_sampler import measure_closed_form


def test_single_bucket_frozen_value():
    # n=4, M=1, m=2: (sin^2(pi/6) + sin^2(pi/2)) / 2 = 0.625
    stats = [BucketStats.from_counts(4, 1)]
    assert abs(avg_success_probability(2, stats) - 0.625) <= 1e-12


def test_closed_form_equals_direct_average():
    # oracle: enumerate the draw lattice and average the success product
    stats = [
        BucketStats.from_counts(16, 2),
        BucketStats.from_counts(9, 1),
        BucketStats.from_counts(25, 7),
    ]
    for m in (1, 2, 3, 5, 8):
        direct = 1.0
        for s in stats:
            direct *= sum(math.sin((2 * j + 1) * s.theta) ** 2 for j in range(m)) / m
        assert abs(avg_success_probability(m, stats) - direct) <= 1e-12


def test_avg_probability_rejects_non_integer_m():
    stats = [BucketStats.from_counts(4, 1)]
    with pytest.raises(ValueError):
        avg_success_probability(0, stats)
    with pytest.raises(ValueError):
        avg_success_probability(2.5, stats)


def test_trig_identity_exact_at_m1():
    # m=1: both sides reduce to 1 - cos(theta)
    assert trig_identity_residual(1, 0.3) <= 1e-15


def test_trig_identity_sweep():
    thetas = np.linspace(0.01, math.pi / 2 - 0.01, 50)
    worst = max(
        trig_identity_residual(m, float(t)) for m in range(1, 33) for t in thetas
    )
    assert worst < 1e-11


def test_trig_identity_rejects_sin_zero():
    with pytest.raises(ValueError):
        trig_identity_residual(3, 0.0)


def test_alpha_star_frozen_value():
    stats = [BucketStats.from_counts(64, 1)]
    assert abs(lemma_threshold(stats) - 32 / math.sqrt(63)) <= 1e-14


def test_stats_projection_from_problem():
    prob = GridProblem.product(
        [MarkedSet.from_indices(16, [3, 5]), MarkedSet.from_indices(8, [0])]
    )
    stats = stats_from_problem(prob)
    assert [(s.n, s.marked_count) for s in stats] == [(16, 2), (8, 1)]


def test_lemma_bound_holds_above_threshold():
    stats = [BucketStats.from_counts(64, 1), BucketStats.from_counts(16, 2)]
    alpha_star = lemma_threshold(stats)
    floor = 0.25 ** len(stats)
    for m in range(math.floor(alpha_star) + 1, math.ceil(4 * alpha_star) + 9):
        if m <= alpha_star:
            continue
        assert avg_success_probability(m, stats) >= floor


def test_theorem_bounds_frozen_values():
    stats = [BucketStats.from_counts(64, 1)]
    bounds = theorem_bounds(stats, 7 / 6)
    assert abs(bounds.alpha_star - 32 / math.sqrt(63)) <= 1e-14
    # k=1, lam=7/6: pre-critical coefficient is (1/2)(lam/(lam-1)) = 3.5
    assert abs(bounds.pre_critical - 3.5 * bounds.alpha_star) <= 1e-12
    post = (7 / 6) / (8 * (1 - 0.75 * 7 / 6)) * bounds.alpha_star
    assert abs(bounds.post_critical - post) <= 1e-12
    assert bounds.critical_round == math.ceil(
        math.log(bounds.alpha_star) / math.log(7 / 6)
    )
    assert bounds.total == bounds.pre_critical + bounds.post_critical


def test_theorem_bounds_validation():
    stats = [BucketStats.from_counts(4, 1)]
    with pytest.raises(ValueError):
        theorem_bounds(stats, 1.0)
    with pytest.raises(ValueError):
        theorem_bounds(stats, 4 / 3)
    # marked fraction above 3/4 is classical-sampling territory
    with pytest.raises(ValueError):
        theorem_bounds([BucketStats.from_counts(8, 7)], 7 / 6)


def test_degenerate_bucket_rejected():
    with pytest.raises(ValueError):
        BucketStats.from_counts(8, 0)
    with pytest.raises(ValueError):
        BucketStats.from_counts(8, 8)


def test_empirical_rows_within_band():
    prob = GridProblem.product([MarkedSet.from_indices(16, [3, 12])])
    rows = empirical_vs_closed_form(prob, [2, 3], trials=3000, seed=11)
    assert [r.m for r in rows] == [2, 3]
    for row in rows:
        assert row.within_band
        assert abs(row.empirical - row.closed_form) <= 3 * row.sigma


def test_empirical_is_batch_invariant():
    prob = GridProblem.product(
        [MarkedSet.from_indices(16, [3]), MarkedSet.from_indices(9, [0, 4])]
    )
    a = empirical_vs_closed_form(prob, [1, 2, 3], trials=501, seed=21, jobs=1)
    b = empirical_vs_closed_form(prob, [1, 2, 3], trials=501, seed=21, jobs=2)
    assert a == b


_BLOCK = analysis._LEMMA_BLOCK


@pytest.mark.parametrize(
    "trials",
    [100, 2 * _BLOCK + 17, _BLOCK + 1],
    ids=["under-one-block", "ragged-last-block", "more-workers-than-blocks"],
)
def test_empirical_rows_are_equal_at_any_jobs(trials):
    prob = GridProblem.product(
        [MarkedSet.from_indices(16, [3]), MarkedSet.from_indices(9, [0, 4])]
    )
    rows = [
        empirical_vs_closed_form(prob, [1, 2, 3], trials=trials, seed=8, jobs=jobs)
        for jobs in (1, 2, 3)
    ]
    assert rows[0] == rows[1] == rows[2]


def test_empirical_rows_replay_scalar_rounds_block_by_block():
    # block b of row r: every (round, bucket) iteration count in order,
    # then every uniform, on trial_rng(seed, r, b)
    marks = [(16, [3]), (9, [0, 4])]
    prob = GridProblem.product([MarkedSet.from_indices(n, m) for n, m in marks])
    trials, seed = _BLOCK + 5, 4
    rows = empirical_vs_closed_form(prob, [2, 3], trials=trials, seed=seed)
    for row, m in enumerate([2, 3]):
        hits = 0
        for block, rounds in enumerate([_BLOCK, 5]):
            rng = trial_rng(seed, row, block)
            j = [[int(rng.integers(0, m)) for _ in marks] for _ in range(rounds)]
            u = [[rng.random() for _ in marks] for _ in range(rounds)]
            paths = [
                [measure_closed_form(mk, n, t, x) for (n, mk), t, x in zip(marks, jr, ur)]
                for jr, ur in zip(j, u)
            ]
            hits += int(prob.global_oracle(np.array(paths, dtype=np.int64)).sum())
        assert rows[row].empirical == hits / trials


def test_lemma_holds_at_the_scale_where_it_binds():
    # three buckets of 2**20 with one mark each: alpha* is about 512, so
    # these budgets lie between the threshold and the cap sqrt(n) = 1024
    n = 2**20
    prob = GridProblem.product([MarkedSet.from_indices(n, [n // 5 * i + 1]) for i in (1, 2, 3)])
    assert 511 < lemma_threshold(stats_from_problem(prob)) < 513
    rows = empirical_vs_closed_form(prob, [600, 800, 1024], trials=10**6, seed=3)
    for row in rows:
        assert row.closed_form >= 4.0**-3
        assert abs(row.empirical - row.closed_form) <= 3 * row.sigma, row


def test_runtime_trials_match_reference_loop_at_any_jobs():
    prob = GridProblem.product(
        [MarkedSet.from_indices(16, [5]), MarkedSet.from_indices(16, [11])]
    )
    params = ScheduleParams(seed=9, max_rounds=12)
    want = [
        run_grid_search(prob, replace(params, seed=derive_seed(params.seed, t)))
        for t in range(25)
    ]
    assert not all(o.success for o in want)  # exhausted searches are compared too
    assert runtime_trials(prob, params, 25, jobs=1) == want
    assert runtime_trials(prob, params, 25, jobs=2) == want


class _InProcessPool:
    """Stands in for ``ProcessPoolExecutor``: records its worker count and
    maps in this process, so no process starts."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("affinity, cpu_count, workers", [({0, 1}, 64, 2), ({3}, 64, 1), (None, 3, 3)])
def test_trial_workers_are_capped_at_the_available_cpus(monkeypatch, affinity, cpu_count, workers):
    prob = GridProblem.product([MarkedSet.from_indices(16, [5]), MarkedSet.from_indices(16, [11])])
    params = ScheduleParams(seed=9, max_rounds=12)
    want = runtime_trials(prob, params, 200, jobs=1)
    monkeypatch.setattr(analysis.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: cpu_count)
    if affinity is None:
        monkeypatch.delattr(analysis.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(analysis.os, "sched_getaffinity", lambda pid: affinity)
    monkeypatch.setattr(_InProcessPool, "started", [])
    assert runtime_trials(prob, params, 200, jobs=200) == want
    assert _InProcessPool.started == ([] if workers == 1 else [workers])


def test_empirical_rejects_capped_regime():
    prob = GridProblem.product([MarkedSet.from_indices(4, [1])])
    with pytest.raises(ValueError):
        # m=3 > sqrt(4): the capped draw would no longer match the closed form
        empirical_vs_closed_form(prob, [3], trials=10, seed=0)
