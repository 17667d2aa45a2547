"""
Metric tuning and an energy audit for the damped wave discretization.

Part 1 sweeps mode counts k for two damping profiles and reports the
tuned metric weight eta together with the analytic and measured decay
rates; the measured rate should never fall below the analytic one.

Part 2 integrates the nonlinear k = 3 model and checks the energy
balance of the computed trajectory with a finite-difference audit,
quartering the residual under a paired refinement of grid and steps
(second order in the step size).
"""

import numpy as np

from evolver import (
    build_evolution,
    build_wave_model,
    energy_residual,
    get_model,
    mild_solve,
    select_eta,
)

T = 2.0 * np.pi

# --- part 1: tuned eta and decay rates -----------------------------------

print("tuned metric weight and decay rates")
print(f"{'damping':>22} {'k':>3} {'eta':>10} {'analytic':>10} {'numeric':>10}")
for label, beta in [
    ("beta = 1", lambda t: np.ones_like(np.asarray(t, dtype=float))),
    ("beta = 1+0.5cos(t)", lambda t: 1.0 + 0.5 * np.cos(2.0 * np.pi * np.asarray(t, dtype=float) / T)),
]:
    for k in (1, 3, 8):
        # interval length pi puts the stiffness eigenvalues at 1, 4, 9, ...
        sel = select_eta(build_wave_model(ell=np.pi, k=k, beta=beta, T=T))
        print(f"{label:>22} {k:>3} {sel.eta:>10.6f} "
              f"{sel.rate_analytic:>10.6f} {sel.rate_numeric:>10.6f}")
print()

# --- part 2: energy balance audit -----------------------------------------

cm = get_model("wave-k3")
model = cm.wave
x0 = np.zeros(model.dim)
x0[0] = 0.5
x0[model.k] = -0.2


def residual_at(grid, n):
    # the audit takes its forcing from the model's own nonlinearity
    traj = mild_solve(build_evolution(cm.family, n), cm.field, x0, grid=grid)
    return energy_residual(traj, model).max_energy_residual


print("energy balance residual for the nonlinear k = 3 model")
res0 = residual_at(1024, 2048)
res1 = residual_at(2048, 4096)
print(f"  grid 1024, steps 2048: {res0:.4e}")
print(f"  grid 2048, steps 4096: {res1:.4e}")
print(f"  reduction factor {res1 / res0:.3f} (near 0.25 is second-order)")
