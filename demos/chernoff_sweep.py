"""
Defect bound and product-formula convergence for contraction schemes.

Part 1 samples random contractions T on R^d and checks that the distance
between T^n x and x is controlled by sqrt(n) times the one-step defect.

Part 2 builds the resolvent scheme for a stable 3x3 generator and tabulates
the error of the n-fold power and the n-term sum against exp(t A) x.
"""

import numpy as np

from evolver import (
    ChernoffSequence,
    chernoff_defect,
    chernoff_power_limit,
    chernoff_sum_limit,
    mat_exp,
    resolvent_scheme,
)

rng = np.random.default_rng(42)

# --- part 1: sqrt(n) defect bound for random contractions ---------------

print("defect bound for random contractions")
print(f"{'dim':>4} {'n':>6} {'|T^n x - x|':>14} {'sqrt(n)|Tx - x|':>16}")
worst = 0.0
for trial in range(8):
    d = int(rng.integers(2, 7))
    M = rng.standard_normal((d, d))
    # scale below unit spectral norm so T is a strict contraction
    T = M / (1.05 * np.linalg.norm(M, 2))
    x = rng.standard_normal(d)
    n = int(rng.choice([4, 16, 64]))
    lhs, rhs = chernoff_defect(T, x, n)
    worst = max(worst, lhs - rhs)
    print(f"{d:>4} {n:>6} {lhs:>14.6e} {rhs:>16.6e}")
print(f"worst violation: {worst:.3e} (negative means the bound holds)")
print()

# --- part 2: resolvent scheme on a stable 3x3 generator -----------------

B = rng.standard_normal((3, 3))
A = B - 1.1 * np.linalg.norm(B, 2) * np.eye(3)

scheme = resolvent_scheme(lambda mu: A, 3)
seq = ChernoffSequence(t=1.0, mu0=1.0, ns=(16, 64, 256, 1024, 4096))
x = rng.standard_normal(3)
exact = mat_exp(A * 1.0) @ x

power = chernoff_power_limit(scheme, seq, x)
total = chernoff_sum_limit(scheme, seq, x)

print("resolvent scheme vs exp(A) x, t = 1")
print(f"{'n':>6} {'power error':>14} {'sum error':>14}")
for n, ep, es in zip(power.ns, power.errors, total.errors):
    print(f"{n:>6} {ep:>14.6e} {es:>14.6e}")
print(f"fitted order: power {power.rate:.3f}, sum {total.rate:.3f} "
      f"(first order: {power.shows_order(1, 1e-12)}, {total.shows_order(1, 1e-12)})")
print(f"reference |exp(A) x| = {np.linalg.norm(exact):.6f}")
