"""Find the fastest descent path on a discretised brachistochrone board.

Every candidate curve starts at (0, 2), ends at (pi, 0), and is pinned to
one grid ordinate per interior column.  Descent time comes from the
quadrature of sqrt((1 + y'^2) / (2 g y)).
"""

from gridgrover import (
    BrachistochroneCost,
    CostTable,
    build_brachistochrone_grid,
    cycloid_descent_time,
    interpolate,
    straight_line_descent_time,
)

k, n = 3, 8
grid = build_brachistochrone_grid(k, n)
cost = BrachistochroneCost(grid)

print(f"{k} interior columns, {n} ordinates each, {n**k} candidate paths")
table = CostTable.build(grid.sizes, cost)
path, best = table.minimum()

line = straight_line_descent_time()
floor = cycloid_descent_time()
print(f"straight line: {line:.6f}")
print(f"best grid path {path}: {best:.6f}")
print(f"true cycloid:  {floor:.6f}  (unreachable floor)")

xs, ys = grid.node_points(path)
print("winning ordinates:", [round(float(y), 3) for y in ys[1:-1]])
curve = interpolate(grid, path)
print("interpolated midpoint height:", round(float(curve(1.5708)), 4))

# which ordinates per column appear in any path cheaper than the line?
# Path (5, 3, 1) puts every node on the line, so its cost is the line's
# time up to quadrature rounding; ending the strict window at that cost
# leaves the line out by construction instead of by rounding.
on_line = table.cost_of((5, 3, 1))
sets = table.marked_sets(0.0, on_line)
for i, ms in enumerate(sets):
    print(f"column {i}: {len(ms.marked)}/{n} ordinates occur in sub-line paths")
rate = table.cross_path_rate(0.0, on_line)
print(f"product-set members that are not actual solutions: {rate:.3f}")
