"""Independent numeric oracles used by the test suite.

The algorithms are chosen to be different from the library's own: a
truncated power series for the exponential (the library delegates to a
Pade kernel), the top eigenvalue of the Gram matrix M^T M for operator
norms (the library takes the SVD), scipy's generalized symmetric
eigensolver for dissipativity rates (the library reduces to a standard
problem by a Cholesky congruence), and classic RK4 time stepping for
transition matrices and semilinear paths (the library uses
frozen-coefficient products and trapezoid Picard sweeps).  The
step-by-step trapezoid loop is the reference for the library's chunked
scan sweep.
"""

import numpy as np
import scipy.linalg


def series_expm(M, t=1.0, terms=30):
    """exp(t * M) by scaled Taylor series: scale so ||tM|| <= 0.5, square back."""
    A = np.asarray(M, dtype=float) * t
    d = A.shape[0]
    nrm = np.linalg.norm(A, 2)
    s = max(0, int(np.ceil(np.log2(nrm / 0.5))) if nrm > 0.5 else 0)
    B = A / (2.0 ** s)
    E = np.eye(d)
    term = np.eye(d)
    for j in range(1, terms + 1):
        term = term @ B / j
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def gram_norm(M):
    """Spectral norm as the square root of the top eigenvalue of M^T M."""
    A = np.asarray(M, dtype=float)
    return float(np.sqrt(max(np.linalg.eigvalsh(A.T @ A)[-1], 0.0)))


def eigh_rate(M, G=None):
    """Dissipativity rate: minus the top eigenvalue of (G M + M^T G)/2 against G."""
    A = np.asarray(M, dtype=float)
    G = np.eye(A.shape[0]) if G is None else np.asarray(G, dtype=float)
    S = 0.5 * (G @ A + A.T @ G)
    return float(-scipy.linalg.eigh(S, G, eigvals_only=True)[-1])


def rk4_transition(A, t1, t0, steps):
    """Transition matrix of z' = A(t) z from t0 to t1 by classic RK4."""
    d = np.asarray(A(t0)).shape[0]
    R = np.eye(d)
    h = (t1 - t0) / steps
    for i in range(steps):
        t = t0 + i * h
        k1 = A(t) @ R
        k2 = A(t + 0.5 * h) @ (R + 0.5 * h * k1)
        k3 = A(t + 0.5 * h) @ (R + 0.5 * h * k2)
        k4 = A(t + h) @ (R + h * k3)
        R = R + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return R


def rk4_path(A, F, x0, t1, steps, lam=1.0):
    """Final state of x' = A(t) x + lam F(t, x) from 0 to t1 by classic RK4."""
    x = np.asarray(x0, dtype=float).copy()

    def rhs(t, z):
        return np.asarray(A(t)) @ z + lam * np.asarray(F(t, z), dtype=float)

    h = t1 / steps
    for i in range(steps):
        t = i * h
        k1 = rhs(t, x)
        k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = rhs(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def loop_sweep(E, x, w, lam, h):
    """One trapezoid pass of the variation-of-constants formula, step by step.

    E: (m, d, d) one-step evolution operators on the grid.
    x: (..., d) initial states; w: (m+1, ..., d) forcing samples.
    """
    m = E.shape[0]
    out = np.empty((m + 1,) + x.shape)
    out[0] = x
    z = x
    J = np.zeros_like(x)
    for i in range(m):
        weight = 0.5 * h if i == 0 else h
        J = (J + weight * w[i]) @ E[i].T
        z = z @ E[i].T
        out[i + 1] = z + lam * (J + 0.5 * h * w[i + 1])
    return out
