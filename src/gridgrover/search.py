"""Parallel Grover search over a product grid of independent buckets.

A problem is one marked set per bucket plus a classical global oracle.
Each round draws an iteration count j per bucket and measures the
register that j Grover iterations from uniform would hold; the global
oracle, a batch predicate over a ``(B, k)`` int64 array of paths, one
per row, accepts or rejects the assembled index tuples.  The
measurement is sampled from its closed form
(:func:`~gridgrover.grover.measure_closed_form_grid`): after j
iterations the marked indices share one probability and the unmarked
ones another, so no statevector is built and a draw costs O(log M)
whatever the bucket size.  The iteration budget ``m`` starts at 1 and
grows geometrically by a factor ``lam`` after every failed round, which
handles unknown marked counts without estimating them.

Draws use the inclusive range ``{0, ..., ceil(m-1)}``.  Once ``m``
exceeds ``sqrt(n_i)`` the draw for bucket ``i`` is capped at
``ceil(sqrt(n_i))`` so a long run keeps amplifying instead of
overshooting; ``strict_paper=True`` switches to the conservative variant
that leaves such buckets uniform (``j_i = 0``).

:func:`run_round` plays one round as a block of one on one ``Generator``,
k iteration counts in one call and k uniforms in the next, and judges
its path as a batch of one.  :func:`run_grid_search` plays blocks of
rounds at once: every iteration count of a block comes from one
vectorised ``integers`` call on a generator seeded with
``params.seed``, every measurement uniform from one ``random`` call on a
second generator jumped ahead of the first, so an outcome does not
depend on how rounds are cut into blocks.  The draw limits of every
round depend only on the problem's shape (sizes, ``lam``,
``strict_paper``), never on its seed or marks, so each shape keeps a
table of them that grows when a search first reaches past it, up to a
fixed size, and blocks slice it.  One call to
:func:`~gridgrover.grover.measure_closed_form_grid` measures all k
buckets of a block and one global-oracle call judges its paths; the
ledger charges one query per round up to the first accept.

The marked sets over-approximate the global oracle, so a problem with a
bucket that has no marks cannot succeed: :func:`run_grid_search` then
draws only the iteration counts, in full blocks from the first since
nothing can end it early, and :func:`exhaustive_search` charges its full
scan without running it; neither asks the oracle anything.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .grover import ClosedFormTables, MarkedSet, measure_closed_form_grid
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
    """Generator for one trial or block of trials, from a seed and indices.

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

    def __post_init__(self) -> None:
        self.marked = tuple(self.marked)
        if not self.marked:
            raise ValueError("grid problem needs at least one bucket")
        for ms in self.marked:
            if ms.size > MAX_BUCKET_SIZE:
                raise ValueError(
                    f"bucket size {ms.size} exceeds the limit 2**53 = {MAX_BUCKET_SIZE}"
                )

    @functools.cached_property
    def _tables(self) -> ClosedFormTables:
        # built on first use: a search that cannot pass never samples
        return ClosedFormTables.from_marks([ms.marked for ms in self.marked], self.sizes)

    @property
    def k(self) -> int:
        return len(self.marked)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(ms.size for ms in self.marked)

    @property
    def has_empty_bucket(self) -> bool:
        """Whether some bucket has no marks, so that no path can pass."""
        return not all(ms.count for ms in self.marked)

    @classmethod
    def product(cls, marked_sets: Sequence[MarkedSet]) -> "GridProblem":
        """Build a product-mode problem straight from marked sets."""
        sets = tuple(marked_sets)
        marks = tuple(np.append(ms.marked, np.iinfo(np.int64).max) for ms in sets)
        return cls(marked=sets, global_oracle=functools.partial(_in_every_bucket, marks))


@dataclass(frozen=True)
class ScheduleParams:
    """Knobs of the adaptive schedule.

    ``lam`` must satisfy 1 < lam < 4^k/(4^k - 1); ``None`` picks the
    midpoint default for the problem's k.  ``max_rounds=None`` resolves
    to 4*ceil(log_lam(max_i sqrt(n_i))) + 64; otherwise it must be an
    integer (not a bool) of at least 1.
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
        elif isinstance(self.max_rounds, bool) or not isinstance(self.max_rounds, numbers.Integral):
            raise ValueError(f"max_rounds must be an integer, got {self.max_rounds!r}")
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
    """Amplify and measure every bucket once at budget ``m`` (``+inf``
    caps every bucket) as a block of one round: the k iteration counts
    under :func:`_draw_limits` in one ``integers`` call on ``rng``, then
    the k uniforms in one ``random`` call, sampled in closed form; the
    path is judged as a one-row batch."""
    if math.isnan(m) or m < 1.0:
        raise ValueError(f"iteration budget m must be a number >= 1 or +inf, got {m!r}")
    j, paths = _draw_block(problem, _draw_limits([m], problem.sizes, strict_paper), rng, 1)
    return RoundResult(tuple(paths[0].tolist()), tuple(j[0].tolist()), bool(problem.global_oracle(paths)[0]))


def _draw_limits(budgets: Sequence[float], sizes: Sequence[int], strict_paper: bool) -> np.ndarray:
    """The exclusive ``integers`` bound ``hi + 1`` of every bucket's
    iteration count, one row per budget m: hi is ceil(m - 1), or, once
    m > sqrt(n_i), the cap ceil(sqrt(n_i)), 0 under ``strict_paper``."""
    roots = np.sqrt(np.array(sizes, dtype=np.float64))
    column = np.array(budgets, dtype=np.float64)[:, None]
    below_cap = np.ceil(np.minimum(column, roots) - 1.0).astype(np.int64) + 1
    return np.where(column > roots, 1 if strict_paper else np.ceil(roots).astype(np.int64) + 1, below_cap)


def _draw_block(
    problem: GridProblem, high: np.ndarray, rng: np.random.Generator, rounds: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(rounds, k)`` iteration counts and paths of ``rounds`` rounds
    under the bounds ``high``: the counts from one ``integers`` call on
    ``rng`` (none drawn where a bound is 1), then the uniforms from one."""
    j = rng.integers(0, high, size=(rounds, problem.k))
    return j, measure_closed_form_grid(problem._tables, j, rng.random(j.shape))


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


# Entries of round limits a problem shape keeps: a longer ramp keeps its
# first rows and every search that runs past them computes the rest.
_KEPT_LIMITS = 1 << 15


class _RoundLimits:
    """The exclusive ``integers`` bound ``hi + 1`` of every bucket's
    iteration count, one row per round, for one problem shape: the
    :func:`_draw_limits` of budgets m that start at 1 and are multiplied
    by ``lam`` after every round (``lam**r`` differs in the last bits).

    ``state`` holds the rows computed so far, a read-only table shared by
    every search of the shape, with the budget of the round after its
    last and whether m has passed every sqrt(n_i) there.  The table grows
    when a search first reaches past it, by that search's block, so no
    search computes rows past the blocks it draws, and stops growing at
    ``_KEPT_LIMITS`` entries or once m has passed every sqrt(n_i), after
    which every round draws under the caps.  ``state`` is replaced whole,
    never changed in place, so searches in several threads each read a
    consistent one.
    """

    def __init__(self, sizes: tuple[int, ...], lam: float, strict_paper: bool):
        self.sizes, self.lam, self.strict_paper = sizes, lam, strict_paper
        self.top = max(math.sqrt(n) for n in sizes)
        self.caps = _draw_limits([math.inf], sizes, strict_paper)[0]
        self.kept_rows = max(1, _KEPT_LIMITS // len(sizes))
        table = np.empty((0, len(sizes)), dtype=np.int64)
        table.setflags(write=False)
        self.state: tuple[np.ndarray, float, bool] = (table, 1.0, False)

    def _rows(self, m: float, count: int) -> tuple[np.ndarray, float]:
        """``count`` rows from budget m on, and the budget of the last."""
        # repeated m *= lam, as round by round: lam**r differs in the last bits
        budgets = list(itertools.accumulate(itertools.repeat(self.lam, count - 1), operator.mul, initial=m))
        return _draw_limits(budgets, self.sizes, self.strict_paper), budgets[-1]

    def _grown(self, rows: int) -> tuple[np.ndarray, float, bool]:
        """``state``, its table grown toward ``rows`` rows."""
        table, after, ramped = state = self.state
        missing = min(rows, self.kept_rows) - len(table)
        if missing > 0 and not ramped:
            more, last = self._rows(after, missing)
            table = np.concatenate([table, more])
            table.setflags(write=False)
            self.state = state = (table, last * self.lam, bool(last > self.top))
        return state

    def blocks(self, max_rounds: int, block: int) -> Iterator[np.ndarray]:
        """The rows of rounds 0 to ``max_rounds - 1``, in blocks of
        ``block`` rounds that double up to ``_MAX_BLOCK``."""
        done, m = 0, None
        while done < max_rounds:
            end = min(done + block, max_rounds)
            table, after, ramped = self._grown(end)
            high = table[done:end]
            if len(high) < end - done:
                rest = end - max(done, len(table))
                if ramped:
                    tail = np.broadcast_to(self.caps, (rest, len(self.caps)))
                else:  # past the kept rows of a long ramp
                    tail, last = self._rows(after if m is None else m, rest)
                    m = last * self.lam
                high = np.concatenate([high, tail])
            yield high
            done, block = end, min(2 * block, _MAX_BLOCK)


@functools.lru_cache(maxsize=16)
def _round_limits(sizes: tuple[int, ...], lam: float, strict_paper: bool) -> _RoundLimits:
    """The shared :class:`_RoundLimits` of a problem shape."""
    return _RoundLimits(sizes, lam, strict_paper)


def run_grid_search(problem: GridProblem, params: ScheduleParams) -> SearchOutcome:
    """Run rounds with geometrically growing budget until the global
    oracle accepts or ``max_rounds`` is exhausted.

    Identical (problem, params) give bit-identical outcomes.  The
    iteration counts are ``integers(0, hi + 1)`` draws on
    ``default_rng(params.seed)``, round by round and bucket by bucket
    (none where hi is 0), with ``hi + 1`` sliced from the table of round
    limits the problem's shape shares; the measurement uniforms are ``random()``
    draws on a ``Generator`` over that bit generator's ``jumped()`` copy.
    Rounds are drawn in blocks and each block is judged with one
    global-oracle call; the ledger charges one query per round up to and
    including the first accepted one, the paper's query count.  When a
    bucket has no marks no round can pass: the oracle is never asked, no
    measurement is drawn, the rounds are drawn in full blocks, and the
    miss is charged ``max_rounds`` rounds and queries with the iteration
    counts the rounds would have drawn.
    """
    lam, max_rounds = params.resolve(problem)
    limits = _round_limits(problem.sizes, lam, params.strict_paper)
    draws = np.random.default_rng(params.seed)
    measures = None if problem.has_empty_bucket else np.random.Generator(draws.bit_generator.jumped())
    spent, path, done = np.zeros(problem.k, dtype=np.int64), None, 0
    # nothing stops a search that cannot pass early: it takes full blocks
    for high in limits.blocks(max_rounds, _MAX_BLOCK if measures is None else _FIRST_BLOCK):
        j, accepted = draws.integers(0, high), np.empty(0, dtype=np.intp)
        if measures is not None:
            paths = measure_closed_form_grid(problem._tables, j, measures.random(high.shape))
            accepted = np.flatnonzero(problem.global_oracle(paths))
        # one query per round, up to and including the first accepted one
        used = int(accepted[0]) + 1 if accepted.size else len(high)
        spent += j[:used].sum(axis=0)
        done += used
        if accepted.size:
            path = tuple(paths[used - 1].tolist())
            break
    ledger = QueryLedger(spent.tolist(), global_oracle_calls=done, rounds=done)
    return SearchOutcome(path is not None, path, done, ledger)


# Paths per step of the exhaustive scan and of a cost table's build.
_SCAN_CHUNK = 1 << 16


def _path_chunks(sizes: tuple[int, ...]) -> Iterator[tuple[int, np.ndarray]]:
    """Every path of the product of ``range(n)`` for n in ``sizes``, in
    lexicographic order, ``_SCAN_CHUNK`` rows at a time: the first row's
    row-major index and the ``(B, k)`` int64 paths from there on."""
    space = math.prod(sizes)
    for first in range(0, space, _SCAN_CHUNK):
        rows = np.arange(first, min(first + _SCAN_CHUNK, space))
        yield first, np.column_stack(np.unravel_index(rows, sizes))


def exhaustive_search(problem: GridProblem, cap: int = 10_000_000) -> SearchOutcome:
    """Deterministic classical baseline: scan the product space in
    lexicographic order, in chunks of tuples per oracle call, and stop at
    the first accept, charging one query per tuple scanned.  Worst case
    visits every tuple (the Theta(prod n_i) cost the amplified search is
    measured against); a problem with a bucket without marks is charged
    that full scan without asking the oracle."""
    space = math.prod(problem.sizes)
    if space > cap:
        raise ValueError(f"search space {space} exceeds enumeration cap {cap}")
    ledger = QueryLedger([0] * problem.k, global_oracle_calls=space, rounds=1)
    if problem.has_empty_bucket:
        return SearchOutcome(False, None, 1, ledger)
    for first, paths in _path_chunks(problem.sizes):
        accepted = np.flatnonzero(problem.global_oracle(paths))
        if accepted.size:
            ledger.global_oracle_calls = first + int(accepted[0]) + 1
            return SearchOutcome(True, tuple(paths[accepted[0]].tolist()), 1, ledger)
    return SearchOutcome(False, None, 1, ledger)
