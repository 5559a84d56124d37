"""Closed-form success probabilities and runtime bounds for the parallel
search, plus empirical-vs-analytic comparison utilities.

The central quantity is the single-round success probability at integer
budget m, averaged over the uniform draw j in {0, ..., m-1}:

    P_m = prod_i [ 1/2 - sin(4 m theta_i) / (4 m sin(2 theta_i)) ]

which stays at or above 1/4^k for every integer m above the threshold
alpha* = max_i 1/sin(2 theta_i).  That threshold also sets the runtime
ceiling: the expected total Grover-iteration count of the adaptive
schedule is bounded by the pre-critical plus post-critical terms
computed in :func:`theorem_bounds`.

The trial sweeps that check these closed forms by simulation,
:func:`empirical_vs_closed_form` and :func:`runtime_trials`, split their
trials into ``jobs`` contiguous ranges run on a process pool.  Every
trial draws from its own generator, derived from the master seed and the
trial's indices, so the results do not depend on ``jobs``.
"""

from __future__ import annotations

import functools
import math
from concurrent import futures
from dataclasses import asdict, dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .grover import RotationAngle
from .search import (
    GridProblem,
    ScheduleParams,
    SearchOutcome,
    _draw_round,
    derive_seed,
    run_grid_search,
    trial_rng,
)

__all__ = [
    "BucketStats",
    "RuntimeBounds",
    "LemmaCheckRow",
    "stats_from_problem",
    "avg_success_probability",
    "trig_identity_residual",
    "lemma_threshold",
    "theorem_bounds",
    "empirical_vs_closed_form",
    "runtime_trials",
]


@dataclass(frozen=True)
class BucketStats:
    """Per-bucket quantities driving the closed forms.

    alpha = 1/sin(2 theta) = n / (2 sqrt((n - m) m)); for buckets with
    marked fraction at most 3/4 it is bounded by sqrt(n/m).
    """

    n: int
    marked_count: int
    theta: float
    alpha: float

    @classmethod
    def from_counts(cls, n: int, marked_count: int) -> "BucketStats":
        if not 0 < marked_count < n:
            raise ValueError("bucket stats need 0 < marked_count < n (degenerate bucket)")
        theta = RotationAngle.from_counts(n, marked_count).theta
        alpha = n / (2.0 * math.sqrt((n - marked_count) * marked_count))
        return cls(n=n, marked_count=marked_count, theta=theta, alpha=alpha)


def stats_from_problem(problem: GridProblem) -> list[BucketStats]:
    """Stats of every bucket, from the problem's marked sets."""
    return [BucketStats.from_counts(ms.size, ms.count) for ms in problem.marked]


def avg_success_probability(m: int, stats: Sequence[BucketStats]) -> float:
    """Closed-form P_m for integer draw-range size m (draws {0,...,m-1})."""
    if m < 1 or int(m) != m:
        raise ValueError("closed form is defined for integer m >= 1")
    if not stats:
        raise ValueError("need at least one bucket")
    m = int(m)
    prob = 1.0
    for s in stats:
        two_theta = 2.0 * s.theta
        prob *= 0.5 - math.sin(4.0 * m * s.theta) / (4.0 * m * math.sin(two_theta))
    return prob


def trig_identity_residual(m: int, theta: float) -> float:
    """|sum_{j=0}^{m-1} (1 - cos((2j+1) theta)) - (m - sin(2 m theta)/(2 sin theta))|.

    The identity underlies the closed form; the residual should sit at
    float-rounding level for any m >= 1 and theta not a multiple of pi.
    """
    if m < 1 or int(m) != m:
        raise ValueError("identity needs integer m >= 1")
    if abs(math.sin(theta)) < 1e-15:
        raise ValueError("theta must not be a multiple of pi")
    m = int(m)
    j = np.arange(m)
    lhs = float(np.sum(1.0 - np.cos((2 * j + 1) * theta)))
    rhs = m - math.sin(2 * m * theta) / (2.0 * math.sin(theta))
    return abs(lhs - rhs)


def lemma_threshold(stats: Sequence[BucketStats]) -> float:
    """alpha* = max_i alpha_i; integer budgets above it keep P_m >= 1/4^k."""
    if not stats:
        raise ValueError("need at least one bucket")
    return max(s.alpha for s in stats)


@dataclass(frozen=True)
class RuntimeBounds:
    """Expected-iteration ceiling split at the critical round."""

    alpha_star: float
    critical_round: int
    pre_critical: float
    post_critical: float

    @property
    def total(self) -> float:
        return self.pre_critical + self.post_critical


def theorem_bounds(stats: Sequence[BucketStats], lam: float) -> RuntimeBounds:
    """Expected total Grover iterations: (k/2)(lam/(lam-1)) alpha* before
    the critical round ceil(log_lam alpha*), plus the geometric tail
    k lam / (2^(2k+1) (1 - (1 - 2^(-2k)) lam)) alpha* after it.

    Requires every bucket's marked fraction at most 3/4; denser buckets
    are classical-sampling territory and are rejected.
    """
    if not stats:
        raise ValueError("need at least one bucket")
    k = len(stats)
    four_k = 4.0**k
    if not 1.0 < lam < four_k / (four_k - 1.0):
        raise ValueError(f"growth factor {lam} outside (1, {four_k / (four_k - 1.0)}) for k={k}")
    for s in stats:
        if s.marked_count > 0.75 * s.n:
            raise ValueError(
                "marked fraction above 3/4: classical sampling already succeeds, "
                "the runtime bound does not apply"
            )
    alpha_star = lemma_threshold(stats)
    critical = max(0, math.ceil(math.log(alpha_star) / math.log(lam))) if alpha_star > 1 else 0
    pre = (k / 2.0) * (lam / (lam - 1.0)) * alpha_star
    post = k * lam / (2.0 ** (2 * k + 1) * (1.0 - (1.0 - 2.0 ** (-2 * k)) * lam)) * alpha_star
    return RuntimeBounds(
        alpha_star=alpha_star, critical_round=critical, pre_critical=pre, post_critical=post
    )


@dataclass(frozen=True)
class LemmaCheckRow:
    """One empirical-vs-closed-form comparison point."""

    m: int
    closed_form: float
    empirical: float
    sigma: float
    within_band: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _over_trials(worker: Callable, args: tuple, trials: int, jobs: int) -> list:
    """``worker(*args, lo, hi)`` for ``jobs`` contiguous ranges [lo, hi)
    covering range(trials), in range order; with ``jobs`` > 1 they run on
    a process pool, so ``worker`` and ``args`` must pickle."""
    jobs = max(1, min(jobs, trials))
    bounds = [i * trials // jobs for i in range(jobs + 1)]
    call = functools.partial(worker, *args)
    if jobs == 1:
        return [call(0, trials)]
    with futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(call, bounds[:-1], bounds[1:]))


def _lemma_hits(problem: GridProblem, m_values: list[int], seed: int, lo: int, hi: int) -> list[int]:
    """Accepted single rounds per m over trials lo..hi-1: each trial draws
    its path as :func:`~gridgrover.search.run_round` would, and each m's
    paths are judged with one global-oracle call."""
    hits = []
    for row, m in enumerate(m_values):
        paths = [_draw_round(problem, float(m), trial_rng(seed, row, t))[0] for t in range(lo, hi)]
        hits.append(int(problem.global_oracle(np.array(paths, dtype=np.int64)).sum()))
    return hits


def empirical_vs_closed_form(
    problem: GridProblem,
    m_values: Iterable[int],
    trials: int,
    seed: int,
    band_sigmas: float = 3.0,
    jobs: int = 1,
) -> list[LemmaCheckRow]:
    """Monte Carlo single-round success frequency against P_m.

    Runs ``trials`` independent rounds at each integer m and compares the
    acceptance frequency with the closed form, flagging rows outside the
    binomial ``band_sigmas`` band.  Every m must stay within the uncapped
    draw regime (m <= sqrt(n_i) for all buckets) so the simulated draw
    set {0,...,m-1} is exactly the one the closed form averages over;
    all m are checked before any trial runs.

    ``jobs`` worker processes each take a contiguous range of trials.
    Trial t of row r draws from its own generator derived from
    (seed, r, t), so the frequencies are the same for every ``jobs``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    stats = stats_from_problem(problem)
    m_values = list(m_values)
    closed_forms = [avg_success_probability(m, stats) for m in m_values]
    root = min(math.sqrt(s.n) for s in stats)
    for m in m_values:
        if m > root:
            raise ValueError(
                f"m={m} exceeds sqrt(n)={root:.3f}: capped draws would "
                "no longer match the closed form"
            )
    m_values = [int(m) for m in m_values]
    chunks = _over_trials(_lemma_hits, (problem, m_values, seed), trials, jobs)
    rows: list[LemmaCheckRow] = []
    for m, closed, *hits in zip(m_values, closed_forms, *chunks):
        empirical = sum(hits) / trials
        sigma = math.sqrt(closed * (1.0 - closed) / trials)
        rows.append(
            LemmaCheckRow(
                m=m,
                closed_form=closed,
                empirical=empirical,
                sigma=sigma,
                within_band=abs(empirical - closed) <= band_sigmas * sigma,
            )
        )
    return rows


def _search_trials(
    problem: GridProblem, params: ScheduleParams, lo: int, hi: int
) -> list[SearchOutcome]:
    return [
        run_grid_search(problem, replace(params, seed=derive_seed(params.seed, t)))
        for t in range(lo, hi)
    ]


def runtime_trials(
    problem: GridProblem, params: ScheduleParams, trials: int, jobs: int = 1
) -> list[SearchOutcome]:
    """One :func:`run_grid_search` per trial, the sample behind the
    expected-iteration bound of :func:`theorem_bounds`; trial t runs with
    ``params`` reseeded to ``derive_seed(params.seed, t)``.

    ``jobs`` worker processes each take a contiguous range of trials; no
    generator is shared across trials, so the outcomes do not depend on
    ``jobs``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    chunks = _over_trials(_search_trials, (problem, params), trials, jobs)
    return [outcome for chunk in chunks for outcome in chunk]
