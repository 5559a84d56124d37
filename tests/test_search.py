import functools
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

import gridgrover.bisection as bisection
import gridgrover.search as search
from gridgrover import (
    MAX_BUCKET_SIZE,
    BrachistochroneCost,
    CostTable,
    GridProblem,
    MarkedSet,
    QueryLedger,
    RangeProblemFamily,
    ScheduleParams,
    SearchOutcome,
    build_brachistochrone_grid,
    default_lambda,
    default_max_rounds,
    derive_seed,
    exhaustive_search,
    grover_iterate,
    lambda_upper_bound,
    measure,
    measure_closed_form,
    run_bisect,
    run_grid_search,
    run_round,
    trial_rng,
    uniform_init,
)
from gridgrover.cli import IndexSumCost


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


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """The generators a search draws its iteration counts and its
    measurement uniforms from."""
    draws = np.random.default_rng(seed)
    return draws, np.random.Generator(draws.bit_generator.jumped())


def _replayed_round(problem: GridProblem, m: float, draws, measures, strict_paper: bool):
    """One round as scalar calls: per bucket, an iteration count on
    ``draws`` (none when the limit is 0) and a uniform on ``measures``."""
    path, iterations = [], []
    for ms in problem.marked:
        root = math.sqrt(ms.size)
        if m > root:
            hi = 0 if strict_paper else math.ceil(root)
        else:
            hi = math.ceil(m - 1)
        j = int(draws.integers(0, hi + 1)) if hi > 0 else 0
        path.append(measure_closed_form(sorted(ms.marked), ms.size, j, measures.random()))
        iterations.append(j)
    return tuple(path), tuple(iterations)


def _judge(problem: GridProblem, path: tuple[int, ...]) -> bool:
    """The global oracle's verdict on one path, as a one-row batch."""
    return bool(problem.global_oracle(np.array([path], dtype=np.int64))[0])


def test_ledger_matches_replayed_rounds():
    prob = GridProblem.product(
        [MarkedSet.from_indices(16, [4]), MarkedSet.from_indices(8, [1, 2])]
    )
    params = ScheduleParams(seed=123)
    out = run_grid_search(prob, params)
    assert out.success

    # replay the schedule with the same generators and count queries by hand
    lam, _ = params.resolve(prob)
    draws, measures = _streams(123)
    m, iters, calls = 1.0, [0, 0], 0
    while True:
        path, iterations = _replayed_round(prob, m, draws, measures, False)
        iters = [a + b for a, b in zip(iters, iterations)]
        calls += 1
        if _judge(prob, path):
            assert path == out.path
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


def test_exhaustive_search_without_marks_asks_nothing():
    def refuse(paths):
        raise AssertionError("the oracle was asked")

    problem = GridProblem(marked=[MarkedSet.from_indices(5, [1, 2]), MarkedSet(4)], global_oracle=refuse)
    assert exhaustive_search(problem) == SearchOutcome(False, None, 1, QueryLedger([0, 0], 20, 1))


def test_exhaustive_search_cap():
    prob = GridProblem.product(
        [MarkedSet.from_indices(4000, [1]), MarkedSet.from_indices(4000, [2])]
    )
    with pytest.raises(ValueError):
        exhaustive_search(prob)


def test_cost_mode_problem_rejects_cross_paths():
    # local oracles over-approximate: each coordinate appears in some
    # solution, but the assembled tuple can still miss the cost window
    fam = RangeProblemFamily(CostTable.build((4, 4), IndexSumCost(sizes=(4, 4))))
    prob = fam(4.5, 6.5)  # sums 5 and 6
    sets = prob.marked
    assert sorted(sets[0].marked) == [2, 3]
    assert sorted(sets[1].marked) == [2, 3]
    # sum 4: in the product, not a solution
    assert prob.global_oracle(np.array([[2, 3], [2, 2]])).tolist() == [True, False]


@pytest.mark.parametrize(
    "sizes, marks",
    [
        ((5,), ([0, 4],)),
        ((6, 9, 4), ([1, 5], [0, 3, 8], [2])),
        ((2**40, 7), ([0, 2**38 + 1, 2**40 - 1], [6])),
        ((8, 8), ([3], [])),  # an empty bucket rejects every row
        ((3, 3), ([0, 1, 2], [1])),
    ],
)
def test_product_oracle_matches_set_membership(sizes, marks):
    problem = GridProblem.product([MarkedSet.from_indices(n, m) for n, m in zip(sizes, marks)])
    rng = np.random.default_rng(len(sizes))
    # probe each bucket at its marks, their neighbours and uniform draws,
    # with every other coordinate on a mark, then add uniform rows
    base = [m[0] if m else 0 for m in marks]
    rows = []
    for i, (n, m) in enumerate(zip(sizes, marks)):
        probes = {x + d for x in m for d in (-1, 0, 1)} | set(rng.integers(0, n, size=20).tolist())
        rows += [[*base[:i], x, *base[i + 1 :]] for x in sorted(probes) if 0 <= x < n]
    rows += np.column_stack([rng.integers(0, n, size=40) for n in sizes]).tolist()
    paths = np.array(rows, dtype=np.int64)
    sets = [frozenset(m) for m in marks]
    want = [all(x in s for x, s in zip(row, sets)) for row in rows]
    assert problem.global_oracle(paths).tolist() == want
    assert any(want) == all(marks)
    with pytest.raises(ValueError):
        problem.global_oracle(paths[:, :-1])


def _scan_ledger(problem: GridProblem):
    """Path and oracle queries of a lexicographic scan, one row at a time."""
    for calls, path in enumerate(itertools.product(*(range(n) for n in problem.sizes)), 1):
        if _judge(problem, path):
            return path, calls
    return None, math.prod(problem.sizes)


@pytest.mark.parametrize(
    "marks, first_accept",
    [(([1], [2]), 6), (([1], [3]), 7), (([2], [0, 3]), 8), (([1, 2], []), None)],
)
def test_exhaustive_search_chunks_keep_the_scan_ledger(monkeypatch, marks, first_accept):
    problem = GridProblem.product([MarkedSet.from_indices(n, m) for n, m in zip((3, 4), marks)])
    path, calls = _scan_ledger(problem)
    monkeypatch.setattr(search, "_SCAN_CHUNK", 7)
    out = exhaustive_search(problem)
    assert calls == (12 if first_accept is None else first_accept + 1)
    assert out == SearchOutcome(path is not None, path, 1, QueryLedger([0, 0], calls, 1))


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


def test_buckets_above_2_53_are_refused():
    assert MAX_BUCKET_SIZE == 2**53
    GridProblem.product([MarkedSet.from_indices(2**53, [0])])
    with pytest.raises(ValueError, match=r"2\*\*53"):
        GridProblem.product([MarkedSet.from_indices(4, [1]), MarkedSet.from_indices(2**53 + 1, [])])


def _replayed_search(problem: GridProblem, params: ScheduleParams):
    """The search as one scalar round after another on its two generators;
    returns the outcome and the paths the global oracle was asked about,
    in order."""
    lam, max_rounds = params.resolve(problem)
    draws, measures = _streams(params.seed)
    ledger, m, asked = QueryLedger.zero(problem.k), 1.0, []
    for r in range(1, max_rounds + 1):
        path, iterations = _replayed_round(problem, m, draws, measures, params.strict_paper)
        ledger.grover_iterations_per_bucket = [
            a + b for a, b in zip(ledger.grover_iterations_per_bucket, iterations)
        ]
        ledger.global_oracle_calls += 1
        ledger.rounds += 1
        asked.append(path)
        if _judge(problem, path):
            return SearchOutcome(True, path, r, ledger), asked
        m *= lam
    return SearchOutcome(False, None, max_rounds, ledger), asked


def _assert_matches_replay(problem: GridProblem, params: ScheduleParams) -> SearchOutcome:
    asked = []

    def logged(paths, _accept=problem.global_oracle):
        asked.extend(map(tuple, paths.tolist()))
        return _accept(paths)

    got = run_grid_search(GridProblem(marked=problem.marked, global_oracle=logged), params)
    want, want_asked = _replayed_search(problem, params)
    assert got == want
    if problem.has_empty_bucket:
        # a bucket without marks: no round can pass, so none is judged
        assert asked == []
        return got
    # a block is judged whole: rows after the first accept are seen, not charged
    assert asked[: len(want_asked)] == want_asked
    assert got.success or len(asked) == len(want_asked)
    return got


def _buckets(sizes, counts):
    return [
        MarkedSet.from_indices(n, range(n) if c == n else _marks(n, c) if c else [])
        for n, c in zip(sizes, counts)
    ]


def _rejecting(sizes):
    """Every bucket marked and every path rejected: each round is sampled
    and judged, and every one misses."""
    return GridProblem(
        marked=_buckets(sizes, [1] * len(sizes)), global_oracle=lambda p: np.zeros(len(p), bool)
    )


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize(
    "sizes, counts",
    [
        ((64,), (1,)),
        ((16, 8), (1, 2)),
        ((64, 64, 64), (1, 1, 1)),
        ((40, 9, 25, 16), (3, 1, 2, 16)),  # an all-marked bucket
        ((16, 16, 16), (1, 0, 1)),  # an empty bucket: every round fails
        ((2**40,), (1,)),
    ],
)
def test_block_search_matches_round_replay(sizes, counts, strict):
    problem = GridProblem.product(_buckets(sizes, counts))
    for seed in range(12):
        _assert_matches_replay(problem, ScheduleParams(seed=seed, strict_paper=strict))


@pytest.mark.parametrize("strict", [False, True])
def test_block_search_matches_round_replay_when_every_path_is_rejected(strict):
    problem = _rejecting((16, 16, 16))
    for seed in range(12):
        _assert_matches_replay(problem, ScheduleParams(seed=seed, strict_paper=strict))


@pytest.mark.parametrize("max_rounds", [1, 31, 32, 33, 45, 96, 200])
def test_block_search_stops_mid_block(max_rounds):
    problem = GridProblem.product(_buckets((64, 32), (0, 1)))
    out = _assert_matches_replay(problem, ScheduleParams(seed=3, max_rounds=max_rounds))
    assert out.rounds_used == out.ledger.rounds == max_rounds


@pytest.mark.parametrize("max_rounds", [1, 31, 32, 33, 45, 96, 200])
def test_sampled_block_search_stops_mid_block(max_rounds):
    out = _assert_matches_replay(_rejecting((64, 32)), ScheduleParams(seed=3, max_rounds=max_rounds))
    assert out.rounds_used == out.ledger.rounds == max_rounds


def test_block_search_budgets_repeat_the_multiplication():
    # with lam = 2**(1/3), six products give m = 4.0 (draws up to 3) where
    # lam**6 = 4.000000000000001 (draws up to 4)
    lam = 2 ** (1 / 3)
    assert math.ceil(lam**6 - 1) == 4
    problem = GridProblem.product(_buckets((64,), (0,)))
    for seed in range(12):
        _assert_matches_replay(problem, ScheduleParams(seed=seed, lam=lam, max_rounds=12))


def test_sampled_block_search_budgets_repeat_the_multiplication():
    lam = 2 ** (1 / 3)  # as above, with each round's path sampled and judged
    for seed in range(12):
        _assert_matches_replay(_rejecting((64,)), ScheduleParams(seed=seed, lam=lam, max_rounds=12))


def test_block_search_matches_replay_through_lemire_rejections():
    # draws up to 2**26 reject about one u32 in a hundred
    n = 2**52 + 12345
    problem = GridProblem.product([MarkedSet.from_indices(n, [n // 7, n // 3])])
    for seed in range(4):
        _assert_matches_replay(problem, ScheduleParams(seed=seed, lam=1.3))


def test_bisect_inner_searches_match_round_replay(monkeypatch):
    grid = build_brachistochrone_grid(3, 8)
    family = RangeProblemFamily(CostTable.build(grid.sizes, BrachistochroneCost(grid)))
    # the first window, (0, 0.6), lies below every path's cost
    assert 0.6 < family.table.costs.min() < 1.2
    empty = []

    def checked(problem, params):
        empty.append(problem.has_empty_bucket)
        return _assert_matches_replay(problem, params)

    monkeypatch.setattr(bisection, "run_grid_search", checked)
    for seed in range(3):
        run_bisect(family, family.cost_of, 0.0, 1.2, 8, ScheduleParams(seed=seed))
    assert len(empty) >= 24
    assert any(empty) and not all(empty)


@pytest.mark.parametrize("first, cap", [(1, 1), (3, 7)])
def test_outcomes_do_not_depend_on_the_block_size(monkeypatch, first, cap):
    cases = [
        (GridProblem.product(_buckets((40, 9, 25, 16), (3, 1, 2, 16))), {}),
        (GridProblem.product(_buckets((64, 32), (0, 1))), {"max_rounds": 45}),
        (GridProblem.product(_buckets((64, 64, 64), (1, 1, 1))), {"strict_paper": True}),
        # draws up to 2**26 hit Lemire rejections
        (GridProblem.product([MarkedSet.from_indices(2**52 + 12345, [2**50])]), {"lam": 1.3}),
    ]
    runs = [(problem, ScheduleParams(seed=seed, **extra)) for problem, extra in cases for seed in range(8)]
    want = [run_grid_search(*run) for run in runs]
    monkeypatch.setattr(search, "_FIRST_BLOCK", first)
    monkeypatch.setattr(search, "_MAX_BLOCK", cap)
    assert [run_grid_search(*run) for run in runs] == want
