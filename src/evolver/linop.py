"""Dense linear-operator substrate: exponentials, norms, resolvents, and
damped_newton, the one Newton loop of degree and mild.fixed_point, which
takes each map's values and exact Jacobians from one evaluator call.

The exponential is a truncated Taylor polynomial, evaluated by Horner's
rule with scaling and squaring; it takes matrix products alone, no
linear solve.

Matrices and vectors are plain numpy arrays (float64).  Dimensions are
capped at MAX_DIM; everything here is small and dense by design.  Norms
are Euclidean/spectral; weighted metrics live with the modules that own
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Callable

import numpy as np

from .errors import InvalidInputError, SingularResolventError

MAX_DIM = 256

COND_LIMIT = 1e12


def as_matrix(M, stack: bool = False) -> np.ndarray:
    """Validate and return M as a square float64 array.

    With stack=True, M must be an (m, d, d) stack of square matrices and
    is validated once as a whole.  Raises InvalidInputError on
    non-square shapes, non-finite entries, or dimension outside
    [1, MAX_DIM].
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != (3 if stack else 2) or A.shape[-1] != A.shape[-2]:
        kind = "stack of square matrices" if stack else "square matrix"
        raise InvalidInputError(f"expected a {kind}, got shape {A.shape}")
    d = A.shape[-1]
    if d < 1 or d > MAX_DIM:
        raise InvalidInputError(f"matrix dimension {d} outside [1, {MAX_DIM}]")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError("matrix has non-finite entries")
    return A


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and return x as a 1-d float64 array, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InvalidInputError(f"expected a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("vector has non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise InvalidInputError(f"vector length {v.shape[0]} != expected {dim}")
    return v


# Taylor degrees m and theta_m, the largest x with sum_{j>m} x^j / j! <= 2^-53,
# truncated toward zero: on ||B||_1 <= theta_m the truncation error
# ||exp(B) - T_m(B)||_1 <= sum_{j>m} ||B||_1^j / j! is at most 2^-53
# (Al-Mohy and Higham, 2011)
TAYLOR_DEGREES = (4, 6, 9, 12, 16, 20, 25, 30)
TAYLOR_THETA = np.array([1.678e-3, 1.776e-2, 0.1148, 0.3352, 0.8246, 1.504, 2.558, 3.781])


def _taylor(B: np.ndarray, s: np.ndarray, m: int) -> np.ndarray:
    """T_m(B_i / 2^s_i)^(2^s_i) for every slice i of a (k, d, d) stack.

    Horner X <- (X + I/j!) B from X = B/m! gives T_m - I in m - 1
    products, alternating between two buffers.  I is added once, after
    the polynomial and before squaring; this correction form keeps
    near-identity steps accurate.  No linear solve.
    """
    k, d = B.shape[:2]
    if s.any():
        B = B * np.exp2(-s)[:, None, None]   # exact: a power of two
    X, Y = np.empty((k, d, d)), np.empty((k, d, d))
    np.multiply(B, 1 / factorial(m), out=X)
    diag_X, diag_Y = X.reshape(k, -1)[:, ::d + 1], Y.reshape(k, -1)[:, ::d + 1]
    for j in range(m - 1, 0, -1):
        diag_X += 1 / factorial(j)
        np.matmul(X, B, out=Y)
        X, Y, diag_X, diag_Y = Y, X, diag_Y, diag_X
    diag_X += 1.0
    for i in range(1, s.max() + 1):
        sel = s >= i
        X[sel] = X[sel] @ X[sel]
    return X


def _expm_stack(A: np.ndarray) -> np.ndarray:
    """exp of every slice of an (m, d, d) stack, each with its own degree and scaling."""
    norms = np.abs(A).sum(axis=-2).max(axis=-1)
    # level i: the smallest degree TAYLOR_DEGREES[i] whose theta bounds the norm
    level = np.searchsorted(TAYLOR_THETA[:-1], norms)
    squarings = np.ceil(np.log2(np.maximum(norms, TAYLOR_THETA[-1]) / TAYLOR_THETA[-1])).astype(int)
    levels = set(level.tolist())
    if len(levels) == 1:
        return _taylor(A, squarings, TAYLOR_DEGREES[level[0]])
    out = np.empty_like(A)
    for i in levels:
        idx = np.flatnonzero(level == i)
        out[idx] = _taylor(A[idx], squarings[idx], TAYLOR_DEGREES[i])
    return out


def mat_exp(M, t: float = 1.0) -> np.ndarray:
    """exp(t*M) by scaling and squaring with a truncated Taylor kernel.

    M may be one matrix or an (m, d, d) stack; a stack is validated once
    and exponentiated in one batched pass.  Each slice B = t*M_i gets the
    smallest degree m in TAYLOR_DEGREES whose theta_m bounds ||B||_1, so
    the truncated tail sum_{j>m} ||B||_1^j / j! is at most 2^-53 (Al-Mohy
    and Higham, 2011); above theta_30 it gets degree 30 on B / 2^s,
    s = ceil(log2(||B||_1 / theta_30)), squared back s times.  The
    polynomial is evaluated by Horner's rule in matrix products alone.
    Slices are grouped by degree and each is squared only as often as its
    own scaling needs.  Because the degree and scaling depend on the slice
    alone, every slice equals its single-matrix result bit for bit, and
    small-norm step stacks stay on the cheap low degrees.  Satisfies the
    semigroup law mat_exp(M, s + t) = mat_exp(M, t) @ mat_exp(M, s) up to
    roundoff and mat_exp(M, 0) = I exactly.
    """
    stacked = np.ndim(M) == 3
    A = as_matrix(M, stack=stacked)
    if not np.isfinite(t):
        raise InvalidInputError("time argument must be finite")
    if t == 0.0:
        return np.broadcast_to(np.eye(A.shape[-1]), A.shape).copy()
    # 1.0 * A == A exactly, so skipping the product only saves a copy
    B = A if t == 1.0 else t * A
    return _expm_stack(B) if stacked else _expm_stack(B[None])[0]


def mat_power(M, n) -> np.ndarray:
    """M^n by binary powering: one matrix, or an (m, d, d) stack with one
    exponent for all slices or an (m,) array of per-slice exponents.

    All slices advance in lockstep over the bits of their exponents, so a
    stack costs O(log max n) batched products.  Each slice forms
    result @ square, least significant bit first; for n = 3 that is
    T (T T), where np.linalg.matrix_power forms (T T) T.  M^0 = I.
    Raises InvalidInputError unless every exponent is an integer >= 0; a
    boolean is not one, alone or in a list that numpy would coerce to int.
    """
    stacked = np.ndim(M) == 3
    A = as_matrix(M, stack=stacked)
    A = A if stacked else A[None]
    e = np.asarray(n)
    if e.dtype.kind not in "iu" or any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(n, dtype=object).flat):
        raise InvalidInputError(f"powers must be integers, got {n!r}")
    e = e.astype(np.int64)
    if e.ndim > int(stacked) or (e.ndim == 1 and e.shape[0] != A.shape[0]):
        raise InvalidInputError(f"expected one power or {A.shape[0]}, got shape {e.shape}")
    if np.any(e < 0):
        raise InvalidInputError("powers must be nonnegative")
    e = np.broadcast_to(e, A.shape[:1]).copy()
    out = np.broadcast_to(np.eye(A.shape[-1]), A.shape).copy()
    Z, live = A.copy(), np.flatnonzero(e > 0)
    while live.size:
        odd = live[e[live] & 1 == 1]
        out[odd] = out[odd] @ Z[odd]
        e[live] >>= 1
        live = live[e[live] > 0]
        Z[live] = Z[live] @ Z[live]
    return out if stacked else out[0]


def operator_norm(M):
    """Spectral norm, the largest singular value from the SVD: a float for
    one matrix, the (m,) norms from one batched SVD for an (m, d, d) stack."""
    stacked = np.ndim(M) == 3
    norms = np.linalg.svd(as_matrix(M, stack=stacked), compute_uv=False)[..., 0]
    return norms if stacked else float(norms)


def row_norms(X) -> np.ndarray:
    """Euclidean norms of the rows of an (m, d) array.

    Each row takes one dot product with itself, as np.linalg.norm of a
    single vector does, so every norm equals its one-vector result bit
    for bit (an axis reduction can round differently).
    """
    X = np.asarray(X, dtype=float)
    return np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0])


def resolvent(M, mu: float) -> np.ndarray:
    """(mu*I - M)^{-1}.

    Raises SingularResolventError when mu*I - M has 2-norm condition
    number above COND_LIMIT.  The result satisfies
    ||(mu*I - M) @ result - I|| <= 1e-10 for well-conditioned inputs.
    """
    A = as_matrix(M)
    if not np.isfinite(mu):
        raise InvalidInputError("resolvent parameter must be finite")
    d = A.shape[0]
    S = mu * np.eye(d) - A
    cond = np.linalg.cond(S)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularResolventError(
            f"mu = {mu} is (numerically) in the spectrum: cond = {cond:.3e}"
        )
    return np.linalg.solve(S, np.eye(d))


# how a damped_newton start ended
CONVERGED, SINGULAR, STALLED, ESCAPED, OUT_OF_ITERATIONS = range(5)


@dataclass
class NewtonRecord:
    """Per-start outcome of damped_newton: row k of each array is start k.

    x, gx, jac: final iterates, G and its Jacobian there; residual: |G(x)|;
    status: CONVERGED, SINGULAR, STALLED, ESCAPED or OUT_OF_ITERATIONS;
    jacobians, halvings (rejected trial steps): counts; cond: cond(J) of
    the last Jacobian (nan before any); history: (K, iterations + 1)
    residuals at the start and after each accepted step, nan where a start
    took no step.
    """

    x: np.ndarray
    gx: np.ndarray
    jac: np.ndarray
    residual: np.ndarray
    status: np.ndarray
    jacobians: np.ndarray
    halvings: np.ndarray
    cond: np.ndarray
    history: np.ndarray


def damped_newton(Gj, X, tol: float, max_iter: int, tries: int,
                  keep: Callable | None = None, start=None) -> NewtonRecord:
    """Damped Newton on G(x) = 0 from each row of X (K, d), in lockstep.

    Gj maps (k, d) rows to the pair (G, J) of (k, d) values and (k, d, d)
    Jacobians, from one call.  Each iteration solves J s = -G(x) at every
    running start and tries
    x + alpha s for alpha = 1, 1/2, ... (tries trials), accepting the first
    that lowers |G|; an accepted trial brings its own Jacobian, so every
    iteration makes one Gj call per trial and none for J.  A start ends
    converged (|G(x)| <= tol), singular (cond(J) > COND_LIMIT, no step
    taken), stalled (no trial lowered |G|), escaped (an accepted step left
    keep) or out of iterations.  tol = 0 with tries = 1 polishes: full
    steps until |G| stops falling.  start: the pair (G, J) at X when the
    caller already holds it, in place of the first Gj call.
    """
    X = np.array(X, dtype=float)
    gx, J = (np.array(a, dtype=float) for a in (Gj(X) if start is None else start))
    res = np.linalg.norm(gx, axis=-1)
    # a start runs while its status reads out of iterations
    status = np.where(res <= tol, CONVERGED, OUT_OF_ITERATIONS)
    jacobians = np.zeros(len(X), dtype=int)
    halvings = np.zeros(len(X), dtype=int)
    cond = np.full(len(X), np.nan)
    history = [res.copy()]
    for _ in range(max_iter):
        idx = np.flatnonzero(status == OUT_OF_ITERATIONS)
        if idx.size == 0:
            break
        jacobians[idx] += 1
        finite = np.all(np.isfinite(J[idx]), axis=(1, 2))
        cond[idx] = np.inf
        cond[idx[finite]] = np.linalg.cond(J[idx[finite]])
        ok = cond[idx] <= COND_LIMIT
        status[idx[~ok]] = SINGULAR
        idx = idx[ok]
        if idx.size == 0:
            break
        step = np.linalg.solve(J[idx], -gx[idx][..., None])[..., 0]
        before, pending = res[idx], idx
        for i in range(tries):
            cand = X[pending] + 0.5 ** i * step
            cvals, cjac = (np.asarray(a, dtype=float) for a in Gj(cand))
            cres = np.linalg.norm(cvals, axis=-1)
            better = cres < res[pending]
            sel = pending[better]
            X[sel], gx[sel], J[sel], res[sel] = (
                cand[better], cvals[better], cjac[better], cres[better])
            halvings[pending[~better]] += 1
            pending, step = pending[~better], step[~better]
            if pending.size == 0:
                break
        status[pending] = STALLED
        moved = idx[res[idx] < before]
        status[moved[res[moved] <= tol]] = CONVERGED
        if keep is not None:
            status[moved[~keep(X[moved])]] = ESCAPED
        history.append(np.full(len(X), np.nan))
        history[-1][moved] = res[moved]
    return NewtonRecord(x=X, gx=gx, jac=J, residual=res, status=status,
                        jacobians=jacobians, halvings=halvings, cond=cond,
                        history=np.stack(history, axis=1))
