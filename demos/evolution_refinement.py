"""
Grid refinement study for frozen-coefficient evolution operators.

Builds the two-parameter solution operator R(t, s) for the damped wave
model with k = 3 modes at increasing grid resolution, then reports

  * the cocycle defect R(t, r) R(r, s) - R(t, s) on grid triples,
  * the gap to a much finer reference solution, which should shrink
    roughly like 1/n^2: each cell is frozen at its midpoint, the
    second-order exponential midpoint rule.
"""

import numpy as np

from evolver import build_evolution, cocycle_defect, get_model

model = get_model("wave-k3")
fam = model.family
T = fam.T

rng = np.random.default_rng(3)
x = rng.standard_normal(fam.dim)

# --- cocycle identity on grid-aligned triples ----------------------------

R = build_evolution(fam, 512)
print("cocycle defect |R(t,r)R(r,s) - R(t,s)| at n = 512")
for (a, b, c) in [(1.0, 0.5, 0.0), (0.75, 0.5, 0.25), (1.0, 0.75, 0.5)]:
    t, r, s = a * T, b * T, c * T
    gap = cocycle_defect(R, t, r, s)
    print(f"  t={a:.2f}T r={b:.2f}T s={c:.2f}T   defect = {gap:.3e}")
print()

# --- refinement against a fine reference ---------------------------------

ref = build_evolution(fam, 8192)
y_ref = ref.apply(T, 0.0, x)

print("refinement of R(T, 0) x against n = 8192 reference")
print(f"{'n':>6} {'error':>12} {'ratio':>8}")
prev = None
for n in (128, 256, 512, 1024, 2048):
    y = build_evolution(fam, n).apply(T, 0.0, x)
    err = float(np.linalg.norm(y - y_ref))
    ratio = "" if prev is None else f"{prev / err:8.2f}"
    print(f"{n:>6} {err:>12.3e} {ratio:>8}")
    prev = err
print("ratio near 4 means second-order convergence in the step size")
