"""Real-amplitude simulator for Grover-style amplitude amplification.

A search register holds a real amplitude vector of arbitrary length (no
power-of-two restriction).  The phase-flip oracle and the inversion about
the mean are both real-linear maps, so a register prepared uniform never
leaves the real span and complex amplitudes are unnecessary.

Closed-form amplitudes after ``j`` iterations are available through
:func:`analytic_amplitudes` for the non-degenerate case ``0 < M < n``;
the statevector path handles the degenerate marked counts exactly.
:func:`measure_closed_form` samples the same measurement distribution
without building the register, one draw at a time as a single round
(:func:`~gridgrover.search.run_round`) needs it;
:func:`measure_closed_form_grid`, its array form and bit for bit the
same, samples all buckets of a block of rounds of
:func:`~gridgrover.search.run_grid_search` in one call.  The
statevector maps stay as the reference both are tested against.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "NORM_TOL",
    "EXACT_TOL",
    "Register",
    "MarkedSet",
    "RotationAngle",
    "uniform_init",
    "apply_oracle",
    "invert_about_mean",
    "grover_iterate",
    "analytic_amplitudes",
    "success_probability",
    "measure",
    "measure_closed_form",
    "ClosedFormTables",
    "measure_closed_form_grid",
]

# Componentwise tolerance for statevector-vs-analytic agreement, and the
# norm drift allowed on a register.
NORM_TOL = 1e-10
# Tolerance for identities that are exact up to float rounding.
EXACT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Register:
    """Real amplitude vector over ``n`` basis states, normalized to 1."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=float)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("register needs a non-empty 1-d amplitude vector")
        if not np.all(np.isfinite(amps)):
            raise ValueError("register amplitudes must be finite")
        norm = float(np.sum(amps * amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"register norm {norm!r} deviates from 1 by more than {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class MarkedSet:
    """Subset of a bucket's basis-state indices that are marked."""

    size: int
    marked: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("marked set needs size >= 1")
        marked = frozenset(int(i) for i in self.marked)
        for i in marked:
            if not 0 <= i < self.size:
                raise ValueError(f"marked index {i} outside [0, {self.size})")
        object.__setattr__(self, "marked", marked)

    @classmethod
    def from_indices(cls, size: int, indices: Iterable[int]) -> "MarkedSet":
        return cls(size=size, marked=frozenset(int(i) for i in indices))

    @property
    def count(self) -> int:
        return len(self.marked)

    def indicator(self) -> np.ndarray:
        """Boolean mask of length ``size``, True on marked indices."""
        mask = np.zeros(self.size, dtype=bool)
        if self.marked:
            mask[np.fromiter(self.marked, dtype=int)] = True
        return mask


@dataclass(frozen=True)
class RotationAngle:
    """Amplification angle theta = arcsin(sqrt(M/N)) for a bucket."""

    theta: float
    n: int
    marked_count: int

    @classmethod
    def from_counts(cls, n: int, marked_count: int) -> "RotationAngle":
        if n < 1:
            raise ValueError("bucket size must be >= 1")
        if not 0 <= marked_count <= n:
            raise ValueError("marked count must lie in [0, n]")
        theta = math.asin(math.sqrt(marked_count / n))
        return cls(theta=theta, n=n, marked_count=marked_count)


def uniform_init(n: int) -> Register:
    """Uniform superposition over ``n`` states, amplitude 1/sqrt(n) each."""
    if n < 1:
        raise ValueError("register size must be >= 1")
    return Register(np.full(n, 1.0 / math.sqrt(n)))


def apply_oracle(register: Register, marked: MarkedSet) -> Register:
    """Flip the sign of every marked amplitude."""
    if marked.size != register.n:
        raise ValueError("marked set size does not match register size")
    amps = register.amplitudes.copy()
    mask = marked.indicator()
    amps[mask] = -amps[mask]
    return Register(amps)


def invert_about_mean(register: Register) -> Register:
    """Map every amplitude a_k to 2*mean - a_k (the diffusion step)."""
    amps = register.amplitudes
    return Register(2.0 * amps.mean() - amps)


def grover_iterate(register: Register, marked: MarkedSet, times: int) -> Register:
    """Apply the oracle-then-diffusion step ``times`` times."""
    if times < 0:
        raise ValueError("iteration count must be >= 0")
    state = register
    for _ in range(times):
        state = invert_about_mean(apply_oracle(state, marked))
    return state


def analytic_amplitudes(n: int, marked_count: int, times: int) -> tuple[float, float]:
    """Closed-form (marked, unmarked) amplitudes after ``times`` iterations.

    Starting from the uniform state, every marked amplitude equals
    sin((2j+1) theta)/sqrt(M) and every unmarked amplitude equals
    cos((2j+1) theta)/sqrt(N-M).  Defined only for 0 < M < N; the
    degenerate counts are left to the statevector path.
    """
    if n < 2:
        raise ValueError("need n >= 2 for distinct marked and unmarked classes")
    if not 0 < marked_count < n:
        raise ValueError("analytic amplitudes need 0 < marked_count < n")
    if times < 0:
        raise ValueError("iteration count must be >= 0")
    theta = RotationAngle.from_counts(n, marked_count).theta
    phase = (2 * times + 1) * theta
    return (
        math.sin(phase) / math.sqrt(marked_count),
        math.cos(phase) / math.sqrt(n - marked_count),
    )


def success_probability(register: Register, marked: MarkedSet) -> float:
    """Probability that a measurement lands on a marked index."""
    if marked.size != register.n:
        raise ValueError("marked set size does not match register size")
    amps = register.amplitudes
    return float(np.sum(amps[marked.indicator()] ** 2))


def measure(register: Register, rng: np.random.Generator, shots: int | None = None):
    """Sample basis-state indices with probability amplitude^2.

    Non-destructive: the register is unchanged.  With ``shots=None`` a
    single int is returned, otherwise an int array of that length.
    """
    probs = register.amplitudes**2
    cum = np.cumsum(probs)
    cum /= cum[-1]
    u = rng.random() if shots is None else rng.random(shots)
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, register.n - 1)
    return int(idx) if shots is None else idx


@functools.lru_cache(maxsize=4096)
def _class_probabilities(count: int, n: int, times: int) -> tuple[float, float]:
    """Probability of each marked and of each unmarked index after ``times``
    iterations (uniform 1/n when ``count`` is 0 or n)."""
    if 0 < count < n:
        phase = (2 * times + 1) * math.asin(math.sqrt(count / n))
        return math.sin(phase) ** 2 / count, math.cos(phase) ** 2 / (n - count)
    return 1.0 / n, 1.0 / n


def measure_closed_form(marks: Sequence[int], n: int, times: int, u: float) -> int:
    """Index that ``measure(grover_iterate(uniform_init(n), marked, times))``
    returns for the uniform draw ``u``, without building the register.

    ``marks`` are the marked indices in increasing order.  After ``times``
    iterations every marked index has probability sin^2((2j+1) theta)/M
    and every unmarked one cos^2((2j+1) theta)/(n-M) (uniform 1/n when
    M is 0 or n), so the CDF in index order is piecewise linear between
    marks: a binary search over the marks finds the unmarked run holding
    ``u`` and a division finds the index inside it, in O(log M).
    """
    count = len(marks)
    p_marked, p_unmarked = _class_probabilities(count, n, times)

    def cdf_through(t: int) -> float:
        # CDF up to and including the t-th mark
        return (t + 1) * p_marked + (marks[t] - t) * p_unmarked

    # marks whose cumulative mass is already <= u lie below the draw
    below = bisect_right(range(count), u, key=cdf_through)
    start, mass = (marks[below - 1] + 1, cdf_through(below - 1)) if below else (0, 0.0)
    last = marks[below] if below < count else n - 1
    # p_unmarked > 0: the cosine of a nonzero double is never exactly 0
    return min(start + int((u - mass) / p_unmarked), last)


class ClosedFormTables(NamedTuple):
    """Sorted marks of k buckets as :func:`measure_closed_form_grid` reads
    them: row i of ``before`` is ``[-1, marks_i...]`` and of ``after``
    ``[marks_i..., n_i - 1]``, padded to the longest row."""

    before: np.ndarray
    after: np.ndarray
    count: np.ndarray
    size: tuple[int, ...]

    @classmethod
    def from_marks(cls, marks: Sequence[Sequence[int]], sizes: Sequence[int]) -> "ClosedFormTables":
        count = np.array([len(m) for m in marks], dtype=np.int64)
        before = np.full((count.size, int(count.max()) + 1), -1, dtype=np.int64)
        after = before.copy()
        for i, (m, n) in enumerate(zip(marks, sizes)):
            before[i, 1 : len(m) + 1] = after[i, : len(m)] = m
            after[i, len(m)] = n - 1
        return cls(before, after, count, tuple(int(n) for n in sizes))


def measure_closed_form_grid(
    tables: ClosedFormTables, times: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """:func:`measure_closed_form` for every row r and bucket i of the
    ``(B, k)`` arrays ``times`` and ``u``, bit for bit: the same float
    operations, run over arrays.

    The class probabilities come from ``math`` once per distinct (bucket,
    iteration count) (``np.sin`` need not match libm to the last bit), the
    binary search over the marks makes ``bisect_right``'s probes for all
    k*B draws in step, and the offset inside an unmarked run is clamped
    to the run before the cast to int (p_unmarked can be 1e-33).
    """
    k = tables.count.size
    keys = times * k + np.arange(k)
    levels, level_of = np.unique(keys.ravel(), return_inverse=True)
    counts = tables.count.tolist()
    probs = np.array([
        _class_probabilities(counts[i], tables.size[i], j)
        for j, i in zip(*(a.tolist() for a in np.divmod(levels, k)))
    ])[level_of.reshape(keys.shape)]
    p_marked, p_unmarked = probs[..., 0], probs[..., 1]
    bucket = np.arange(k)

    def cdf(b: np.ndarray) -> np.ndarray:
        # CDF up to and including the b-th mark, as cdf_through(b - 1)
        return b * p_marked + (tables.before[bucket, b] - (b - 1)) * p_unmarked

    lo, hi = np.zeros(keys.shape, dtype=np.int64), np.broadcast_to(tables.count, keys.shape)
    while (open_ := lo < hi).any():
        mid = (lo + hi) // 2
        left = u < cdf(np.minimum(mid + 1, tables.count))
        lo = np.where(open_ & ~left, mid + 1, lo)
        hi = np.where(open_ & left, mid, hi)
    start = tables.before[bucket, lo] + 1
    steps = np.minimum((u - cdf(lo)) / p_unmarked, tables.after[bucket, lo] - start)
    return start + steps.astype(np.int64)
