"""Real-amplitude simulator for Grover-style amplitude amplification.

A search register holds a real amplitude vector of arbitrary length (no
power-of-two restriction).  The phase-flip oracle and the inversion about
the mean are both real-linear maps, so a register prepared uniform never
leaves the real span and complex amplitudes are unnecessary.

Closed-form amplitudes after ``j`` iterations are available through
:func:`analytic_amplitudes` for the non-degenerate case ``0 < M < n``;
the statevector path handles the degenerate marked counts exactly.
:func:`measure_closed_form_grid` samples the same measurement
distribution without building the register, for all buckets of a block
of rounds in one call: the one sampler behind a single round
(:func:`~gridgrover.search.run_round`), a block of rounds of
:func:`~gridgrover.search.run_grid_search` and the lemma sweep.  The
statevector maps stay as the reference it is tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class MarkedSet:
    """Subset of a bucket's basis-state indices that are marked, given as
    any iterable of integers and held as one sorted, distinct, read-only
    int64 array that every consumer reads as is.  Compares by identity:
    an array has no single truth value to compare by."""

    size: int
    marked: np.ndarray = ()

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("marked set needs size >= 1")
        read = np.array if isinstance(self.marked, np.ndarray) else np.fromiter
        try:
            marked = read(self.marked, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"marked index outside [0, {self.size}): it does not fit in int64") from None
        if np.count_nonzero(marked[1:] <= marked[:-1]):  # a projection is sorted; np.unique is slower
            marked = np.sort(marked)
            marked = marked[np.concatenate([[True], marked[1:] != marked[:-1]])]
        if marked.size and not 0 <= marked[0] <= marked[-1] < self.size:
            bad = marked[0] if marked[0] < 0 else marked[-1]
            raise ValueError(f"marked index {bad} outside [0, {self.size})")
        marked.setflags(write=False)
        object.__setattr__(self, "marked", marked)

    @classmethod
    def from_indices(cls, size: int, indices: Iterable[int]) -> "MarkedSet":
        return cls(size=size, marked=indices)

    @property
    def count(self) -> int:
        return self.marked.size

    def indicator(self) -> np.ndarray:
        """Boolean mask of length ``size``, True on marked indices."""
        mask = np.zeros(self.size, dtype=bool)
        mask[self.marked] = True
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


class ClosedFormTables(NamedTuple):
    """Sorted marks of k buckets as :func:`measure_closed_form_grid` reads
    them, one row per bucket of M_i marks.  Entry b of ``below`` counts the
    unmarked indices below the b-th mark (0 for b = 0; +inf for b > M_i, up
    to a power-of-two width); entry b of ``first`` is the first index of
    the b-th unmarked run, between the b-th and the (b+1)-th mark, and of
    ``span`` the offset from there of the (b+1)-th mark (of n_i - 1 for the
    last run), the clamp of a draw in the run; their entries b > M_i are
    padding that no draw reads."""

    below: np.ndarray
    first: np.ndarray
    span: np.ndarray
    count: tuple[int, ...]
    size: tuple[int, ...]

    @classmethod
    def from_marks(cls, marks: Sequence[np.ndarray], sizes: Sequence[int]) -> "ClosedFormTables":
        count = tuple(len(m) for m in marks)
        widest = max(count)
        ends = np.full((len(count), widest + 2), -1, dtype=np.int64)
        for row, m, n in zip(ends, marks, sizes):  # -1, the sorted marks, then n_i - 1 to the end
            row[1 : len(m) + 1], row[len(m) + 1 :] = m, n - 1
        first, runs = ends[:, :-1] + 1, np.arange(widest + 1)
        # floats: every count is below 2**53, so exact, and +inf is a probe whose CDF no draw reaches
        below = np.full((len(count), 1 << widest.bit_length()), np.inf)
        np.subtract(first, runs, out=below[:, : widest + 1])
        np.copyto(below[:, : widest + 1], np.inf, where=runs > np.array(count)[:, None])
        return cls(below, first, ends[:, 1:] - first, count, tuple(int(n) for n in sizes))


def measure_closed_form_grid(
    tables: ClosedFormTables, times: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Index that :func:`measure` of the register t Grover iterations from
    uniform would hold returns for the uniform draw u, for every bucket i
    and row of the ``(B, k)`` arrays ``times`` (t) and ``u``.

    After t iterations every marked index has probability
    sin^2((2t+1) theta)/M and every unmarked one cos^2((2t+1) theta)/(n-M)
    (uniform 1/n when M is 0 or n), computed with ``math`` once per
    distinct (bucket, t) (``np.sin`` need not match libm to the last bit).
    The CDF through the b-th mark, ``b * p_marked + below[b] *
    p_unmarked``, never falls as b grows (both products and their sum
    round monotonically), so the number of marks whose CDF is at most u
    is found bit by bit, in ``max(count).bit_length()`` steps for all k*B
    draws at once; a probe past a bucket's last mark reads +inf and
    fails.  A division then finds the index inside the unmarked run after
    those marks, clamped to the run before the cast to int (p_unmarked
    can be 1e-33).
    """
    k = len(tables.count)
    keys = times * k + np.arange(k)
    levels, level_of = np.unique(keys.ravel(), return_inverse=True)
    p_marked, p_unmarked = np.array([
        _class_probabilities(tables.count[i], tables.size[i], j)
        for j, i in zip(*(a.tolist() for a in np.divmod(levels, k)))
    ]).T[:, level_of.reshape(keys.shape)]
    below = tables.below.ravel()
    row = np.arange(k) * tables.below.shape[1]
    marks = np.zeros(keys.shape, dtype=np.int64)
    for bit in reversed(range(max(tables.count).bit_length())):
        probe = marks + (1 << bit)
        passed = probe * p_marked + below[row + probe] * p_unmarked <= u
        marks = np.where(passed, probe, marks)
    mass = marks * p_marked + below[row + marks] * p_unmarked
    run = np.arange(k) * tables.first.shape[1] + marks
    steps = np.minimum((u - mass) / p_unmarked, tables.span.ravel()[run])
    return tables.first.ravel()[run] + steps.astype(np.int64)
