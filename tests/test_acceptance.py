"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE <n>: PASS/FAIL`` line (visible with
``pytest -s``) before asserting, so the whole gate can be read off a
single run.  Check 6 is expected to fail: the adaptive schedule's
measured iteration scaling on this problem family grows near-linearly
in N at these sizes (see the test body for the measured numbers); the
assertion is kept faithful to the stated target band instead of being
widened to pass.
"""

import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from gridgrover import (
    BrachistochroneCost,
    BucketStats,
    CostTable,
    GridProblem,
    MarkedSet,
    RangeProblemFamily,
    ScheduleParams,
    analytic_amplitudes,
    avg_success_probability,
    build_brachistochrone_grid,
    cycloid_descent_time,
    derive_seed,
    empirical_vs_closed_form,
    exhaustive_search,
    grover_iterate,
    initial_upper_bound,
    lemma_threshold,
    run_bisect,
    run_grid_search,
    straight_line_descent_time,
    success_probability,
    theorem_bounds,
    trial_rng,
    trig_identity_residual,
    uniform_init,
)
from gridgrover.cli import IndexSumCost


def _verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_acceptance_1_statevector_matches_closed_form():
    worst = 0.0
    for n in range(2, 65):
        top = 2 * math.ceil(math.sqrt(n))
        for m in range(1, n):
            marked = MarkedSet.from_indices(n, range(m))
            mask = marked.indicator()
            state = uniform_init(n)
            for j in range(top + 1):
                want_marked, want_unmarked = analytic_amplitudes(n, m, j)
                err = max(
                    float(np.max(np.abs(state.amplitudes[mask] - want_marked))),
                    float(np.max(np.abs(state.amplitudes[~mask] - want_unmarked)))
                    if m < n
                    else 0.0,
                )
                worst = max(worst, err)
                state = grover_iterate(state, marked, 1)
    ok = worst <= 1e-10
    assert _verdict(
        1, ok, f"statevector vs closed form, worst abs error {worst:.3e} (tol 1e-10)"
    )


def test_acceptance_2_exact_rotation():
    marked = MarkedSet.from_indices(4, [1])
    state = grover_iterate(uniform_init(4), marked, 1)
    prob = success_probability(state, marked)
    analytic = analytic_amplitudes(4, 1, 1)[0] ** 2
    ok = abs(prob - 1.0) <= 1e-12 and abs(analytic - 1.0) <= 1e-12
    assert _verdict(
        2, ok, f"n=4 M=1 j=1 marked probability {prob:.15f} (within 1e-12 of 1)"
    )


def test_acceptance_3_trig_identity_residual():
    thetas = np.linspace(0.0, math.pi / 2, 102)[1:-1]
    worst = max(
        trig_identity_residual(m, float(t)) for m in range(1, 65) for t in thetas
    )
    ok = worst < 1e-11
    assert _verdict(
        3, ok, f"identity residual over m in 1..64 x 100 angles: {worst:.3e} (< 1e-11)"
    )


def test_acceptance_4_lemma_bound_and_empirical():
    violations = 0
    checked = 0
    for k in (1, 2, 3):
        for n in (8, 16, 64):
            for m_marked in sorted({1, 2, n // 4}):
                stats = [BucketStats.from_counts(n, m_marked)] * k
                alpha_star = lemma_threshold(stats)
                floor = 4.0 ** (-k)
                for m in range(math.floor(alpha_star) + 1, math.ceil(4 * alpha_star) + 9):
                    if m <= alpha_star:
                        continue
                    checked += 1
                    if avg_success_probability(m, stats) < floor:
                        violations += 1

    configs = [
        ([(4, [1])], 2),
        ([(64, [7])], 5),
        ([(16, [3, 12]), (16, [0, 9])], 3),
        ([(8, [2]), (8, [5]), (8, [7])], 2),
        ([(64, list(range(16))), (64, list(range(10, 26)))], 2),
    ]
    out_of_band = []
    for i, (buckets, m) in enumerate(configs):
        problem = GridProblem.product(
            [MarkedSet.from_indices(n, idx) for n, idx in buckets]
        )
        row = empirical_vs_closed_form(problem, [m], trials=100_000, seed=1000 + i)[0]
        if not row.within_band:
            out_of_band.append((i, row.empirical, row.closed_form, row.sigma))
    ok = violations == 0 and not out_of_band
    assert _verdict(
        4,
        ok,
        f"closed-form floor: {violations}/{checked} violations; "
        f"empirical 3-sigma misses at 1e5 trials: {out_of_band or 'none'}",
    )


def test_acceptance_5_runtime_bound():
    problem = GridProblem.product(
        [
            MarkedSet.from_indices(64, [5]),
            MarkedSet.from_indices(64, [11]),
            MarkedSet.from_indices(64, [60]),
        ]
    )
    bounds = theorem_bounds(
        [BucketStats.from_counts(64, 1)] * 3, ScheduleParams(seed=0).resolve(problem)[0]
    )
    totals = []
    failures = 0
    for t in range(1000):
        out = run_grid_search(problem, ScheduleParams(seed=derive_seed(31337, t)))
        if not out.success:
            failures += 1
        totals.append(out.ledger.total_grover_iterations)
    mean_iters = sum(totals) / len(totals)
    ok = failures == 0 and mean_iters <= bounds.total
    assert _verdict(
        5,
        ok,
        f"k=3 n=64: {1000 - failures}/1000 runs succeed, mean iterations "
        f"{mean_iters:.1f} <= bound {bounds.total:.2f}",
    )


def test_acceptance_6_scaling_evidence():
    # classical baseline: worst-case lexicographic scan is exactly N^3 calls
    classical = {}
    for n in (16, 64, 256):
        problem = GridProblem.product([MarkedSet.from_indices(n, [n - 1])] * 3)
        out = exhaustive_search(problem, cap=n**3)
        classical[n] = out.ledger.global_oracle_calls

    means = {}
    for n in (16, 64, 256):
        problem = GridProblem.product([MarkedSet.from_indices(n, [n - 1])] * 3)
        totals = [
            run_grid_search(
                problem, ScheduleParams(seed=derive_seed(987, t))
            ).ledger.total_grover_iterations
            for t in range(200)
        ]
        means[n] = sum(totals) / len(totals)
    slope = float(
        np.polyfit(
            np.log(list(means.keys())), np.log(list(means.values())), 1
        )[0]
    )
    classical_ok = all(classical[n] == n**3 for n in classical)
    slope_ok = 0.35 <= slope <= 0.65
    _verdict(
        6,
        classical_ok and slope_ok,
        f"classical calls {classical} (exact N^3: {classical_ok}); "
        f"mean iterations {means}, log-log slope {slope:.3f} vs target 0.5 +/- 0.15",
    )
    assert classical_ok
    # measured scaling at these sizes sits near slope 1 (small-N runs finish
    # during the ramp phase well before the sqrt(N) plateau), so this
    # assertion documents the gap rather than hiding it
    assert slope_ok


def test_acceptance_7_brachistochrone_sandwich():
    grid = build_brachistochrone_grid(3, 8)
    path, cost = CostTable.build(grid.sizes, BrachistochroneCost(grid)).minimum()
    lo = cycloid_descent_time() - 0.01
    hi = straight_line_descent_time() + 1e-3
    ok = lo <= cost <= hi
    assert _verdict(
        7, ok, f"brute-force min {cost:.6f} at {path} inside [{lo:.6f}, {hi:.6f}]"
    )


def test_acceptance_8_bisect_soundness():
    # exact half: integer-cost toy against the hand enumeration
    fam = RangeProblemFamily(CostTable.build((8,), IndexSumCost(sizes=(8,), offset=1.0)))
    toy = run_bisect(
        fam, fam.cost_of, 0.0, 8.0, 3, ScheduleParams(seed=0), backend="exhaustive"
    )
    toy_ok = (
        (toy.interval.lower, toy.interval.upper) == (0.0, 2.0)
        and toy.rounds == 3
        and [r.branch for r in toy.trace] == ["lower", "lower", "none"]
        and toy.witness is not None
        and toy.witness.path == (0,)
        and toy.witness.cost == 1.0
    )

    # stochastic half: 200 seeded runs on the trajectory grid
    grid = build_brachistochrone_grid(3, 8)
    table = CostTable.build(grid.sizes, BrachistochroneCost(grid))
    family = RangeProblemFamily(table)
    _, min_cost = table.minimum()
    contained = 0
    for t in range(200):
        rng = trial_rng(4242, t)
        b0 = None
        for _ in range(16):
            candidate = initial_upper_bound(grid.sizes, family.cost_of, rng)
            if math.isfinite(candidate) and candidate > 0.0:
                b0 = candidate
                break
        assert b0 is not None
        res = run_bisect(
            family,
            family.cost_of,
            0.0,
            b0,
            6,
            ScheduleParams(seed=derive_seed(4242, t)),
            backend="grover",
        )
        if res.interval.lower <= min_cost <= res.interval.upper:
            contained += 1
    ok = toy_ok and contained >= 190
    assert _verdict(
        8,
        ok,
        f"toy trace exact: {toy_ok}; minimum inside closed interval in "
        f"{contained}/200 seeded runs (need >= 190)",
    )


def test_acceptance_9_oracle_derivation_equivalence():
    def scan(sizes, cost, a, b):
        sets = []
        for i, n in enumerate(sizes):
            hit = set()
            for path in itertools.product(*(range(s) for s in sizes)):
                if a < cost(path) < b:
                    hit.add(path[i])
            sets.append(sorted(hit))
        return sets

    mismatches = []
    toy_sizes = (4, 3, 2)
    toy_cost = IndexSumCost(sizes=toy_sizes)
    for a, b in [(-1.0, 0.5), (0.5, 1.5), (1.5, 4.5), (5.5, 9.0), (9.5, 11.0)]:
        derived = [
            sorted(ms.marked)
            for ms in CostTable.build(toy_sizes, toy_cost).marked_sets(a, b)
        ]
        if derived != scan(toy_sizes, toy_cost, a, b):
            mismatches.append(("toy", a, b))

    grid = build_brachistochrone_grid(3, 4)
    cost = BrachistochroneCost(grid)
    for a, b in [(1.0, 1.1), (1.05, 1.3), (0.5, 1.0), (1.0, 2.0)]:
        derived = [
            sorted(ms.marked)
            for ms in CostTable.build(grid.sizes, cost).marked_sets(a, b)
        ]
        if derived != scan(grid.sizes, cost, a, b):
            mismatches.append(("trajectory", a, b))

    ok = not mismatches
    assert _verdict(
        9,
        ok,
        f"derived marked sets vs existence scan on 9 windows: "
        f"{'all equal' if ok else mismatches}",
    )


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "gridgrover", *args],
        capture_output=True,
        text=True,
    )


def _report_without_timestamp(out_dir):
    text = (out_dir / "report.json").read_text(encoding="utf-8")
    return "\n".join(l for l in text.splitlines() if '"timestamp"' not in l)


def test_acceptance_10_cli_determinism(tmp_path):
    brach_cfg = tmp_path / "brach.json"
    brach_cfg.write_text(
        json.dumps(
            {
                "mode": "brachistochrone",
                "seed": 21,
                "brachistochrone": {
                    "k": 2,
                    "n": 4,
                    "curve_samples": 16,
                    "enumerate": [1.0, 1.2],
                    "bisect": {"max_count": 4},
                },
            }
        ),
        encoding="utf-8",
    )
    lemma_cfg = tmp_path / "lemma.json"
    lemma_cfg.write_text(
        json.dumps(
            {
                "mode": "analyze",
                "seed": 5,
                "analyze": {
                    "task": "lemma",
                    "bucket_sizes": [16],
                    "marked": [[3]],
                    "m_values": [2, 3],
                    "trials": 600,
                },
            }
        ),
        encoding="utf-8",
    )

    issues = []
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        proc = _run_cli(["--config", str(brach_cfg), "--out", str(out)])
        if proc.returncode != 0:
            issues.append(f"brach run exit {proc.returncode}: {proc.stderr.strip()}")
    if not issues:
        if _report_without_timestamp(a) != _report_without_timestamp(b):
            issues.append("brach reports differ")
        for name in ("minimum_curve.csv", "enumeration.csv"):
            if (a / name).read_bytes() != (b / name).read_bytes():
                issues.append(f"{name} differs")

    j1, j2 = tmp_path / "j1", tmp_path / "j2"
    for out, jobs in ((j1, "1"), (j2, "2")):
        proc = _run_cli(
            ["--config", str(lemma_cfg), "--out", str(out), "--jobs", jobs]
        )
        if proc.returncode != 0:
            issues.append(f"lemma --jobs {jobs} exit {proc.returncode}: {proc.stderr.strip()}")
    if not issues:
        if _report_without_timestamp(j1) != _report_without_timestamp(j2):
            issues.append("lemma reports differ across --jobs")
        if (j1 / "lemma.csv").read_bytes() != (j2 / "lemma.csv").read_bytes():
            issues.append("lemma.csv differs across --jobs")

    ok = not issues
    assert _verdict(
        10,
        ok,
        "re-runs byte-identical (timestamp excluded) and --jobs invariant"
        if ok
        else "; ".join(issues),
    )
