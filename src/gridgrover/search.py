"""Parallel Grover search over a product grid of independent buckets.

A problem is one marked set per bucket plus a classical global oracle.
Each round draws an iteration count j per bucket and measures the
register that j Grover iterations from uniform would hold; the global
oracle, a batch predicate over a ``(B, k)`` int64 array of paths, one
per row, accepts or rejects the assembled index tuples.  The
measurement is sampled from its closed form
(:func:`~gridgrover.grover.measure_closed_form`): after j iterations the
marked indices share one probability and the unmarked ones another, so
no statevector is built and a draw costs O(log M) whatever the bucket
size.  The iteration budget ``m`` starts at 1 and grows geometrically by
a factor ``lam`` after every failed round, which handles unknown marked
counts without estimating them.

Draws use the inclusive range ``{0, ..., ceil(m-1)}``.  Once ``m``
exceeds ``sqrt(n_i)`` the draw for bucket ``i`` is capped at
``ceil(sqrt(n_i))`` so a long run keeps amplifying instead of
overshooting; ``strict_paper=True`` switches to the conservative variant
that leaves such buckets uniform (``j_i = 0``).

:func:`run_round` plays one round with scalar calls on one ``Generator``
and judges its path as a batch of one.  :func:`run_grid_search` plays
blocks of rounds at once: every iteration count of a block comes from
one vectorised ``integers`` call on a generator seeded with
``params.seed``, every measurement uniform from one ``random`` call on a
second generator jumped ahead of the first, so an outcome does not
depend on how rounds are cut into blocks.  One call to
:func:`~gridgrover.grover.measure_closed_form_grid` measures all k
buckets of a block and one global-oracle call judges its paths; the
ledger charges one query per round up to the first accept.

The marked sets over-approximate the global oracle, so a problem with a
bucket that has no marks cannot succeed: :func:`run_grid_search` then
draws only the iteration counts and :func:`exhaustive_search` charges
its full scan without running it, and neither asks the oracle anything.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .grover import ClosedFormTables, MarkedSet, measure_closed_form, measure_closed_form_grid
# Unused here: the traced replay in perfbench/tracing.py patches these
# three names on this module.
from .grover import apply_oracle, invert_about_mean, uniform_init  # noqa: F401

__all__ = [
    "MAX_BUCKET_SIZE",
    "GridProblem",
    "ScheduleParams",
    "QueryLedger",
    "RoundResult",
    "SearchOutcome",
    "default_lambda",
    "lambda_upper_bound",
    "default_max_rounds",
    "run_round",
    "run_grid_search",
    "exhaustive_search",
    "trial_rng",
    "derive_seed",
]


def default_lambda(k: int) -> float:
    """Midpoint growth factor 1 + (4^k/(4^k - 1) - 1)/2 for k buckets."""
    if k < 1:
        raise ValueError("need at least one bucket")
    return 1.0 + (lambda_upper_bound(k) - 1.0) / 2.0


def lambda_upper_bound(k: int) -> float:
    """Exclusive upper limit 4^k/(4^k - 1) on the growth factor."""
    if k < 1:
        raise ValueError("need at least one bucket")
    four_k = 4.0**k
    return four_k / (four_k - 1.0)


def trial_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for one trial, derived from a master seed and indices.

    Derivation depends only on (seed, path), so batches of trials give
    identical results no matter how they are split across workers.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *[int(p) for p in path]]))


def derive_seed(seed: int, *path: int) -> int:
    """64-bit child seed for (seed, path), for APIs that take a plain int.

    Same derivation tree as :func:`trial_rng`, collapsed to one integer.
    """
    state = np.random.SeedSequence([int(seed), *[int(p) for p in path]]).generate_state(2)
    return int(state[0]) ^ (int(state[1]) << 32)


# Largest bucket a problem may have: beyond 2**53 the float CDF of the
# closed-form sampler cannot reach every index.
MAX_BUCKET_SIZE = 2**53


def _in_every_bucket(marks: tuple[np.ndarray, ...], paths: np.ndarray) -> np.ndarray:
    """Rows of ``paths`` whose every coordinate is marked in its bucket;
    each ``marks`` array is sorted and ends in a sentinel above any index."""
    if paths.ndim != 2 or paths.shape[1] != len(marks):
        raise ValueError(f"paths of shape {paths.shape} need {len(marks)} columns")
    return np.logical_and.reduce([m[np.searchsorted(m, c)] == c for c, m in zip(paths.T, marks)])


@dataclass
class GridProblem:
    """Product search space: one marked set per bucket plus a global oracle.

    The marked sets drive each bucket's amplification; the global oracle
    maps a ``(B, k)`` int64 array of assembled paths to B booleans and
    must pickle.  In product mode it is exactly the conjunction of the
    marked sets; cost-driven problems supply a stricter global oracle and
    the marked sets only over-approximate it.  The oracle must reject
    every path when some bucket has no marks; the searches rely on it
    and never ask the oracle about such a problem.
    """

    marked: Sequence[MarkedSet]
    global_oracle: Callable[[np.ndarray], np.ndarray]
    _sorted_marks: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _tables: ClosedFormTables = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.marked = tuple(self.marked)
        if not self.marked:
            raise ValueError("grid problem needs at least one bucket")
        for ms in self.marked:
            if ms.size > MAX_BUCKET_SIZE:
                raise ValueError(
                    f"bucket size {ms.size} exceeds the limit 2**53 = {MAX_BUCKET_SIZE}"
                )
        self._sorted_marks = tuple(tuple(sorted(ms.marked)) for ms in self.marked)
        self._tables = ClosedFormTables.from_marks(self._sorted_marks, self.sizes)

    @property
    def k(self) -> int:
        return len(self.marked)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(ms.size for ms in self.marked)

    @property
    def has_empty_bucket(self) -> bool:
        """Whether some bucket has no marks, so that no path can pass."""
        return not all(self._sorted_marks)

    @classmethod
    def product(cls, marked_sets: Sequence[MarkedSet]) -> "GridProblem":
        """Build a product-mode problem straight from marked sets."""
        sets = tuple(marked_sets)
        end = np.iinfo(np.int64).max
        marks = tuple(np.array([*sorted(ms.marked), end], dtype=np.int64) for ms in sets)
        return cls(marked=sets, global_oracle=functools.partial(_in_every_bucket, marks))


@dataclass(frozen=True)
class ScheduleParams:
    """Knobs of the adaptive schedule.

    ``lam`` must satisfy 1 < lam < 4^k/(4^k - 1); ``None`` picks the
    midpoint default for the problem's k.  ``max_rounds=None`` resolves
    to 4*ceil(log_lam(max_i sqrt(n_i))) + 64.
    """

    seed: int
    lam: float | None = None
    max_rounds: int | None = None
    strict_paper: bool = False

    def resolve(self, problem: GridProblem) -> tuple[float, int]:
        k = problem.k
        lam = default_lambda(k) if self.lam is None else float(self.lam)
        if not 1.0 < lam < lambda_upper_bound(k):
            raise ValueError(
                f"growth factor {lam} outside (1, {lambda_upper_bound(k)}) for k={k}"
            )
        if self.max_rounds is None:
            max_rounds = default_max_rounds(problem, lam)
        else:
            max_rounds = int(self.max_rounds)
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        return lam, max_rounds


def default_max_rounds(problem: GridProblem, lam: float) -> int:
    """4*ceil(log_lam(max_i sqrt(n_i))) + 64 rounds."""
    biggest = max(math.sqrt(n) for n in problem.sizes)
    ramp = 0 if biggest <= 1.0 else math.ceil(math.log(biggest) / math.log(lam))
    return 4 * ramp + 64


@dataclass
class QueryLedger:
    """Exact query counts: Grover iterations per bucket, global oracle
    calls, and rounds."""

    grover_iterations_per_bucket: list[int]
    global_oracle_calls: int = 0
    rounds: int = 0

    @classmethod
    def zero(cls, k: int) -> "QueryLedger":
        return cls(grover_iterations_per_bucket=[0] * k)

    @property
    def total_grover_iterations(self) -> int:
        return sum(self.grover_iterations_per_bucket)

    def to_dict(self) -> dict:
        return {
            "grover_iterations_per_bucket": list(self.grover_iterations_per_bucket),
            "global_oracle_calls": self.global_oracle_calls,
            "rounds": self.rounds,
        }


class RoundResult(NamedTuple):
    """Outcome of one parallel round: the measured tuple, the per-bucket
    draw that produced it, and the global oracle's verdict (the verdict
    is part of the round so the ledger charges exactly one global call)."""

    path: tuple[int, ...]
    iterations: tuple[int, ...]
    accepted: bool


def run_round(
    problem: GridProblem,
    m: float,
    rng: np.random.Generator,
    strict_paper: bool = False,
) -> RoundResult:
    """Amplify and measure every bucket once at budget ``m``.

    For each bucket: draw j uniformly from {0, ..., ceil(m-1)} (capped
    at ceil(sqrt(n_i)) once m > sqrt(n_i), or forced to 0 under
    ``strict_paper``), then measure the register j Grover iterations
    from uniform would hold, sampled from its closed form; judge the
    path as a one-row batch.
    """
    path, draws = _draw_round(problem, m, rng, strict_paper)
    return RoundResult(path, draws, bool(problem.global_oracle(np.array([path], dtype=np.int64))[0]))


def _draw_round(
    problem: GridProblem, m: float, rng: np.random.Generator, strict_paper: bool = False
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (path, iterations) of one :func:`run_round`, without the verdict."""
    if m < 1.0:
        raise ValueError("iteration budget m must be >= 1")
    draws: list[int] = []
    outcome: list[int] = []
    for marks, n in zip(problem._sorted_marks, problem.sizes):
        root = math.sqrt(n)
        if m > root:
            hi = 0 if strict_paper else math.ceil(root)
        else:
            hi = math.ceil(m - 1)
        j = int(rng.integers(0, hi + 1)) if hi > 0 else 0
        outcome.append(measure_closed_form(marks, n, j, rng.random()))
        draws.append(j)
    return tuple(outcome), tuple(draws)


@dataclass(frozen=True)
class SearchOutcome:
    """Final result of a search run plus its exact query ledger."""

    success: bool
    path: tuple[int, ...] | None
    rounds_used: int
    ledger: QueryLedger

    def to_dict(self) -> dict:
        return {
            "success": self.success,
            "path": None if self.path is None else list(self.path),
            "rounds_used": self.rounds_used,
            "ledger": self.ledger.to_dict(),
        }


# Rounds drawn per block: the first block is short because many
# searches end within it, and each later one doubles up to the cap.
_FIRST_BLOCK = 32
_MAX_BLOCK = 1024


def run_grid_search(problem: GridProblem, params: ScheduleParams) -> SearchOutcome:
    """Run rounds with geometrically growing budget until the global
    oracle accepts or ``max_rounds`` is exhausted.

    Identical (problem, params) give bit-identical outcomes.  The
    iteration counts are ``integers(0, hi + 1)`` draws on
    ``default_rng(params.seed)``, round by round and bucket by bucket
    (none where hi is 0); the measurement uniforms are ``random()`` draws
    on a ``Generator`` over that bit generator's ``jumped()`` copy.
    Rounds are drawn in blocks and each block is judged with one
    global-oracle call; the ledger charges one query per round up to and
    including the first accepted one, the paper's query count.  When a
    bucket has no marks no round can pass: the oracle is never asked, no
    measurement is drawn, and the miss is charged ``max_rounds`` rounds
    and queries with the iteration counts the rounds would have drawn.
    """
    lam, max_rounds = params.resolve(problem)
    draws = np.random.default_rng(params.seed)
    measures = None if problem.has_empty_bucket else np.random.Generator(draws.bit_generator.jumped())
    roots = np.array([math.sqrt(n) for n in problem.sizes])
    caps = np.array([0 if params.strict_paper else math.ceil(r) for r in roots.tolist()])
    spent, path = np.zeros(problem.k, dtype=np.int64), None
    m, done, block = 1.0, 0, _FIRST_BLOCK
    while done < max_rounds:
        count = min(block, max_rounds - done)
        # repeated m *= lam, as round by round: lam**r differs in the last bits
        budgets = list(itertools.accumulate(itertools.repeat(lam, count - 1), operator.mul, initial=m))
        column = np.array(budgets)[:, None]
        below_cap = np.ceil(np.minimum(column, roots) - 1.0).astype(np.int64)
        hi = np.where(column > roots, caps, below_cap)
        j, accepted = draws.integers(0, hi + 1), np.empty(0, dtype=np.intp)
        if measures is not None:
            paths = measure_closed_form_grid(problem._tables, j, measures.random(hi.shape))
            accepted = np.flatnonzero(problem.global_oracle(paths))
        # one query per round, up to and including the first accepted one
        used = int(accepted[0]) + 1 if accepted.size else count
        spent += j[:used].sum(axis=0)
        done += used
        if accepted.size:
            path = tuple(paths[used - 1].tolist())
            break
        m = budgets[-1] * lam
        block = min(2 * block, _MAX_BLOCK)
    ledger = QueryLedger(spent.tolist(), global_oracle_calls=done, rounds=done)
    return SearchOutcome(path is not None, path, done, ledger)


# Paths the exhaustive scan judges per oracle call.
_SCAN_CHUNK = 1 << 16


def exhaustive_search(problem: GridProblem, cap: int = 10_000_000) -> SearchOutcome:
    """Deterministic classical baseline: scan the product space in
    lexicographic order, in chunks of tuples per oracle call, and stop at
    the first accept, charging one query per tuple scanned.  Worst case
    visits every tuple (the Theta(prod n_i) cost the amplified search is
    measured against); a problem with a bucket without marks is charged
    that full scan without asking the oracle."""
    sizes = problem.sizes
    space = math.prod(sizes)
    if space > cap:
        raise ValueError(f"search space {space} exceeds enumeration cap {cap}")
    ledger = QueryLedger([0] * problem.k, global_oracle_calls=space, rounds=1)
    if problem.has_empty_bucket:
        return SearchOutcome(False, None, 1, ledger)
    for first in range(0, space, _SCAN_CHUNK):
        rows = np.arange(first, min(first + _SCAN_CHUNK, space))
        paths = np.column_stack(np.unravel_index(rows, sizes))
        accepted = np.flatnonzero(problem.global_oracle(paths))
        if accepted.size:
            ledger.global_oracle_calls = first + int(accepted[0]) + 1
            return SearchOutcome(True, tuple(paths[accepted[0]].tolist()), 1, ledger)
    return SearchOutcome(False, None, 1, ledger)
