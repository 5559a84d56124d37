"""Scalar closed-form measurement sampler, the bit-for-bit reference that
``gridgrover.grover.measure_closed_form_grid`` and the round replays of
the search tests are checked against, next to the statevector.

Import it from a test module as ``from reference_sampler import
measure_closed_form`` (pytest puts ``tests/`` on ``sys.path``).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from gridgrover.grover import _class_probabilities


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
