"""Shrink a cost bracket by bisection, printing the round-by-round trace.

Cost of a path is 1 + sum of its indices, so on a single bucket of size 8
the minimum is 1.0 at path (0,).  Each round probes one or both halves of
the bracket with an inner search and keeps whichever half still contains
a solution.
"""

from gridgrover import CostTable, RangeProblemFamily, ScheduleParams, run_bisect
from gridgrover.cli import IndexSumCost

cost = IndexSumCost(sizes=(8,), offset=1.0)
family = RangeProblemFamily(CostTable.build((8,), cost))

result = run_bisect(
    family,
    family.cost_of,
    0.0,
    8.0,
    max_count=6,
    params=ScheduleParams(seed=7),
    backend="exhaustive",
)

print(f"{'round':>5} {'mid':>6} {'branch':>7} {'interval after':>16}")
for r in result.trace:
    lo, hi = r.interval
    print(f"{r.index:>5} {r.mid:>6.2f} {r.branch:>7} [{lo:.3f}, {hi:.3f}]")

print(f"\nfinal interval: [{result.interval.lower}, {result.interval.upper}]")
print(f"width: {result.interval.width}")
if result.witness is not None:
    print(f"cheapest accepted path: {result.witness.path} at cost {result.witness.cost}")
