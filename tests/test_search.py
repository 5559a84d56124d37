import functools
import math
import time
import tracemalloc

import numpy as np
import pytest

from gridgrover import (
    GridProblem,
    MarkedSet,
    ScheduleParams,
    default_lambda,
    default_max_rounds,
    derive_seed,
    exhaustive_search,
    grover_iterate,
    lambda_upper_bound,
    measure,
    run_grid_search,
    run_round,
    trial_rng,
    uniform_init,
)


def test_default_lambda_values():
    assert abs(default_lambda(1) - 7 / 6) < 1e-15
    assert abs(default_lambda(2) - 31 / 30) < 1e-15
    assert abs(default_lambda(3) - (1 + 1 / 126)) < 1e-15
    assert abs(lambda_upper_bound(1) - 4 / 3) < 1e-15
    with pytest.raises(ValueError):
        default_lambda(0)


def test_schedule_validation():
    prob = GridProblem.product([MarkedSet.from_indices(4, [1])])
    with pytest.raises(ValueError):
        ScheduleParams(seed=0, lam=1.0).resolve(prob)
    with pytest.raises(ValueError):
        ScheduleParams(seed=0, lam=4 / 3).resolve(prob)
    with pytest.raises(ValueError):
        ScheduleParams(seed=0, max_rounds=0).resolve(prob)
    lam, rounds = ScheduleParams(seed=0).resolve(prob)
    assert lam == default_lambda(1)
    assert rounds == default_max_rounds(prob, lam)


def test_unit_budget_round_is_classical_sampling():
    # m=1 forces j=0 in every bucket
    prob = GridProblem.product(
        [MarkedSet.from_indices(4, [0]), MarkedSet.from_indices(3, [2])]
    )
    res = run_round(prob, 1.0, trial_rng(0, 0))
    assert res.iterations == (0, 0)
    assert 0 <= res.path[0] < 4
    assert 0 <= res.path[1] < 3


def test_round_frequency_matches_closed_form():
    # n=4, M=1, m=2: averaged single-round success probability is 0.625
    prob = GridProblem.product([MarkedSet.from_indices(4, [3])])
    trials = 20_000
    hits = sum(run_round(prob, 2.0, trial_rng(77, t)).accepted for t in range(trials))
    assert abs(hits / trials - 0.625) < 0.02


def test_overshoot_cap_and_strict_variant():
    prob = GridProblem.product([MarkedSet.from_indices(4, [1])])
    # m=10 > sqrt(4)=2: default caps the draw at ceil(sqrt(4))=2
    capped = run_round(prob, 10.0, trial_rng(3, 0))
    assert 0 <= capped.iterations[0] <= 2
    strict = run_round(prob, 10.0, trial_rng(3, 0), strict_paper=True)
    assert strict.iterations == (0,)


def test_ledger_matches_replayed_rounds():
    prob = GridProblem.product(
        [MarkedSet.from_indices(16, [4]), MarkedSet.from_indices(8, [1, 2])]
    )
    params = ScheduleParams(seed=123)
    out = run_grid_search(prob, params)
    assert out.success

    # replay the schedule with the same generator and count queries by hand
    lam, _ = params.resolve(prob)
    rng = np.random.default_rng(123)
    fresh = GridProblem.product(prob.marked_sets())
    m, iters, calls = 1.0, [0, 0], 0
    while True:
        res = run_round(fresh, m, rng)
        iters = [a + b for a, b in zip(iters, res.iterations)]
        calls += 1
        if res.accepted:
            assert res.path == out.path
            break
        m *= lam
    assert calls == out.rounds_used == out.ledger.rounds
    assert iters == out.ledger.grover_iterations_per_bucket
    assert calls == out.ledger.global_oracle_calls


def test_zero_marked_exhausts_rounds():
    prob = GridProblem.product([MarkedSet.from_indices(8, [])])
    out = run_grid_search(prob, ScheduleParams(seed=5, max_rounds=12))
    assert not out.success
    assert out.path is None
    assert out.rounds_used == 12 == out.ledger.rounds
    assert out.ledger.global_oracle_calls == 12


def test_search_reproducible():
    def prob():
        return GridProblem.product([MarkedSet.from_indices(64, [9])])

    a = run_grid_search(prob(), ScheduleParams(seed=99))
    b = run_grid_search(prob(), ScheduleParams(seed=99))
    assert a == b


def test_trial_rng_split_stable():
    a = [trial_rng(5, t).random() for t in range(4)]
    b = [trial_rng(5, t).random() for t in (0, 1)]
    b += [trial_rng(5, t).random() for t in (2, 3)]
    assert a == b


def test_derive_seed_depends_on_order():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)


def test_exhaustive_search_scan_order_and_count():
    prob = GridProblem.product(
        [MarkedSet.from_indices(3, [2]), MarkedSet.from_indices(3, [1])]
    )
    out = exhaustive_search(prob)
    assert out.success
    assert out.path == (2, 1)
    # lexicographic scan reaches (2,1) on the 8th oracle call
    assert out.ledger.global_oracle_calls == 8


def test_exhaustive_search_worst_case_visits_whole_space():
    prob = GridProblem.product(
        [MarkedSet.from_indices(3, []), MarkedSet.from_indices(3, [])]
    )
    out = exhaustive_search(prob)
    assert not out.success
    assert out.ledger.global_oracle_calls == 9


def test_exhaustive_search_cap():
    prob = GridProblem.product(
        [MarkedSet.from_indices(4000, [1]), MarkedSet.from_indices(4000, [2])]
    )
    with pytest.raises(ValueError):
        exhaustive_search(prob)


def test_cost_mode_problem_rejects_cross_paths():
    # local oracles over-approximate: each coordinate appears in some
    # solution, but the assembled tuple can still miss the cost window
    def cost(path):
        return float(sum(path))

    from gridgrover import RangeProblemFamily

    fam = RangeProblemFamily.from_cost((4, 4), cost)
    prob = fam(4.5, 6.5)  # sums 5 and 6
    sets = prob.marked_sets()
    assert sorted(sets[0].marked) == [2, 3]
    assert sorted(sets[1].marked) == [2, 3]
    assert prob.global_oracle((2, 3))
    assert not prob.global_oracle((2, 2))  # sum 4: in the product, not a solution


@functools.lru_cache(maxsize=None)
def _reference_register(ms: MarkedSet, times: int):
    return grover_iterate(uniform_init(ms.size), ms, times)


def _reference_round(ms, m, rng, strict_paper):
    """One-bucket run_round, measured on the statevector instead of the closed form."""
    root = math.sqrt(ms.size)
    if m > root:
        hi = 0 if strict_paper else math.ceil(root)
    else:
        hi = math.ceil(m - 1)
    j = int(rng.integers(0, hi + 1)) if hi > 0 else 0
    return (int(measure(_reference_register(ms, j), rng)),), (j,)


def _marks(n: int, count: int) -> list[int]:
    if count == 1:
        return [n // 3]
    return sorted(np.random.default_rng(n).choice(n, size=count, replace=False).tolist())


@pytest.mark.parametrize("n", [4, 100, 4096])
@pytest.mark.parametrize("fraction", ["none", "one", "quarter", "all"])
def test_run_round_matches_statevector_reference(n, fraction):
    count = {"none": 0, "one": 1, "quarter": n // 4, "all": n}[fraction]
    ms = MarkedSet.from_indices(n, _marks(n, count))
    prob = GridProblem.product([ms])
    root = math.sqrt(n)
    # budgets below sqrt(n), and above it both capped and strict
    for m, strict in [(root / 2 + 0.5, False), (2 * root, False), (2 * root, True)]:
        for seed in range(200):
            got_rng, want_rng = trial_rng(seed, n, count), trial_rng(seed, n, count)
            got = run_round(prob, m, got_rng, strict_paper=strict)
            want = _reference_round(ms, m, want_rng, strict)
            assert (got.path, got.iterations) == want, (m, strict, seed)
            assert got_rng.random() == want_rng.random()


def test_huge_buckets_sample_without_statevectors():
    n = 2**40
    prob = GridProblem.product([MarkedSet.from_indices(n, [n // 7 * i]) for i in (1, 3, 5)])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        res = run_round(prob, float(2**21), trial_rng(4, 0))
        round_s = time.perf_counter() - start
        start = time.perf_counter()
        out = run_grid_search(prob, ScheduleParams(seed=4, max_rounds=50))
        search_s = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert round_s < 1.0 and search_s < 1.0
    # one n-sized float array would take 8 TiB
    assert peak < 1 << 20
    assert all(0 <= p < n for p in res.path)
    assert all(0 <= j <= 2**20 for j in res.iterations)
    assert out.ledger.rounds == out.rounds_used <= 50
