import pytest

from gridgrover import (
    BoundInterval,
    CostTable,
    RangeProblemFamily,
    ScheduleParams,
    initial_upper_bound,
    run_bisect,
    trial_rng,
)
from gridgrover.cli import IndexSumCost


def family_x_plus_1():
    # cost(x) = x + 1 on a single bucket {0..7}
    return RangeProblemFamily(CostTable.build((8,), IndexSumCost(sizes=(8,), offset=1.0)))


def test_toy_trace_matches_hand_enumeration():
    fam = family_x_plus_1()
    res = run_bisect(
        fam, fam.cost_of, 0.0, 8.0, 3, ScheduleParams(seed=0), backend="exhaustive"
    )
    # round 1: (0,4) holds costs 1..3 -> b=4; round 2: (0,2) holds 1 -> b=2;
    # round 3: (0,1) and (1,2) are both empty under strict bounds -> exit
    assert (res.interval.lower, res.interval.upper) == (0.0, 2.0)
    assert res.rounds == 3
    assert [r.branch for r in res.trace] == ["lower", "lower", "none"]
    assert [r.mid for r in res.trace] == [4.0, 2.0, 1.0]
    assert res.witness is not None
    assert res.witness.path == (0,)
    assert res.witness.cost == 1.0


def test_interval_halves_per_successful_round():
    fam = family_x_plus_1()
    res = run_bisect(
        fam, fam.cost_of, 0.0, 8.0, 2, ScheduleParams(seed=0), backend="exhaustive"
    )
    assert res.interval.width == 2.0  # 8 -> 4 -> 2


def test_witness_cost_is_true_cost_inside_initial_bracket():
    fam = family_x_plus_1()
    res = run_bisect(
        fam, fam.cost_of, 0.0, 8.0, 6, ScheduleParams(seed=4), backend="grover"
    )
    assert res.witness is not None
    assert fam.cost_of(res.witness.path) == res.witness.cost
    # accepted by some strict range oracle, so strictly inside (a0, b0)
    assert 0.0 < res.witness.cost < 8.0


def test_grover_backend_reproducible():
    fam = family_x_plus_1()
    r1 = run_bisect(fam, fam.cost_of, 0.0, 8.0, 5, ScheduleParams(seed=31))
    r2 = run_bisect(fam, fam.cost_of, 0.0, 8.0, 5, ScheduleParams(seed=31))
    assert r1 == r2


def test_epsilon_widens_upper_end():
    # cost 4 sits exactly on the first midpoint; plain strict probing of
    # (0,4) misses it, epsilon recovers it
    fam = RangeProblemFamily(CostTable.build((1,), IndexSumCost(sizes=(1,), offset=4.0)))
    strict = run_bisect(
        fam, fam.cost_of, 0.0, 8.0, 1, ScheduleParams(seed=0), backend="exhaustive"
    )
    assert strict.trace[0].branch == "none"  # invisible to both strict branches
    widened = run_bisect(
        fam,
        fam.cost_of,
        0.0,
        8.0,
        1,
        ScheduleParams(seed=0),
        backend="exhaustive",
        epsilon=1e-9,
    )
    assert widened.trace[0].branch == "lower"


def test_bisect_validation():
    fam = family_x_plus_1()
    with pytest.raises(ValueError):
        run_bisect(fam, fam.cost_of, 0.0, 8.0, 0, ScheduleParams(seed=0))
    with pytest.raises(ValueError):
        run_bisect(fam, fam.cost_of, 8.0, 8.0, 3, ScheduleParams(seed=0))
    with pytest.raises(ValueError):
        run_bisect(fam, fam.cost_of, 0.0, 8.0, 3, ScheduleParams(seed=0), epsilon=-1.0)
    with pytest.raises(ValueError):
        run_bisect(fam, fam.cost_of, 0.0, 8.0, 3, ScheduleParams(seed=0), backend="magic")
    with pytest.raises(ValueError):
        BoundInterval(2.0, 1.0)


def test_initial_upper_bound_deterministic():
    cost = IndexSumCost(sizes=(8, 8))
    a = initial_upper_bound((8, 8), cost, trial_rng(7))
    b = initial_upper_bound((8, 8), cost, trial_rng(7))
    assert a == b
    assert 0.0 <= a <= 14.0


def test_initial_upper_bound_accepts_sized_objects():
    cost = IndexSumCost(sizes=(4, 4))
    fam = RangeProblemFamily(CostTable.build((4, 4), cost))
    prob = fam(0.5, 3.5)
    value = initial_upper_bound(prob, cost, trial_rng(9))
    assert 0.0 <= value <= 6.0
