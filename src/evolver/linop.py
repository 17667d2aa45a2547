"""Dense linear-operator substrate: exponentials, norms, resolvents, and
damped_newton, the one Newton loop of degree and mild.fixed_point, which
takes each map's values and exact Jacobians from one evaluator call.

Matrices and vectors are plain numpy arrays (float64).  Dimensions are
capped at MAX_DIM; everything here is small and dense by design.  Norms
are Euclidean/spectral; weighted metrics live with the modules that own
them.
"""

from __future__ import annotations

from dataclasses import dataclass
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


# Higham (2005), Table 2.3: theta_m is the largest 1-norm for which the
# unscaled degree-m Pade approximant of exp is accurate to unit roundoff
PADE_DEGREES = (3, 5, 7, 9, 13)
PADE_THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1,
                       9.504178996162932e-1, 2.097847961257068e0,
                       5.371920351148152e0])
# coefficients b_0 .. b_m of the degree-m Pade numerator p_m(x) = sum b_k x^k
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}


def _pade(A: np.ndarray, m: int) -> np.ndarray:
    """Degree-m Pade approximant r_m(A) = q_m(A)^{-1} p_m(A) on an (k, d, d) stack.

    p_m(A) = V + U and q_m(A) = V - U, with U the odd and V the even part.
    """
    b = _PADE_COEFFS[m]
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    if m == 13:
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    else:
        powers = [A2]   # A^2, A^4, ..., A^(m - 1)
        while len(powers) < m // 2:
            powers.append(powers[-1] @ A2)
        U = A @ sum((b[2 * k + 3] * P for k, P in enumerate(powers)), b[1] * eye)
        V = sum((b[2 * k + 2] * P for k, P in enumerate(powers)), b[0] * eye)
    # q^{-1} p = I + 2 q^{-1} U: adding the small correction to I keeps
    # the result accurate near the identity
    return 2.0 * np.linalg.solve(V - U, U) + eye


def _scaled_pade(A: np.ndarray, s: np.ndarray, m: int) -> np.ndarray:
    """r_m(A_i / 2^s_i)^(2^s_i) for every slice i of an (k, d, d) stack."""
    if s.any():
        A = A * np.exp2(-s)[:, None, None]   # exact: a power of two
    X = _pade(A, m)
    for k in range(1, s.max() + 1):
        sel = s >= k
        if sel.all():
            X = X @ X
        else:
            X[sel] = X[sel] @ X[sel]
    return X


def _expm_stack(A: np.ndarray) -> np.ndarray:
    """exp of every slice of an (m, d, d) stack, each with its own degree and scaling."""
    norms = np.abs(A).sum(axis=-2).max(axis=-1)
    # level i: the smallest degree PADE_DEGREES[i] whose theta bounds the norm
    level = np.searchsorted(PADE_THETA[:-1], norms)
    squarings = np.ceil(np.log2(np.maximum(norms, PADE_THETA[-1]) / PADE_THETA[-1])).astype(int)
    levels = set(level.tolist())
    if len(levels) == 1:
        return _scaled_pade(A, squarings, PADE_DEGREES[level[0]])
    out = np.empty_like(A)
    for i in levels:
        idx = np.flatnonzero(level == i)
        out[idx] = _scaled_pade(A[idx], squarings[idx], PADE_DEGREES[i])
    return out


def mat_exp(M, t: float = 1.0) -> np.ndarray:
    """exp(t*M) by scaling and squaring with a Pade kernel (Higham, 2005).

    M may be one matrix or an (m, d, d) stack; a stack is validated once
    and exponentiated in one batched pass.  Each slice B = t*M_i gets the
    smallest degree m in (3, 5, 7, 9, 13) whose theta_m bounds ||B||_1;
    above theta_13 it gets degree 13 on B / 2^s, s = ceil(log2(||B||_1 /
    theta_13)), squared back s times.  Slices are grouped by degree and
    each is squared only as often as its own scaling needs.  Because the
    degree and scaling depend on the slice alone, every slice equals its
    single-matrix result bit for bit, and small-norm step stacks stay on
    the cheap low degrees.  Satisfies the semigroup law
    mat_exp(M, s + t) = mat_exp(M, t) @ mat_exp(M, s) up to roundoff and
    mat_exp(M, 0) = I exactly.
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
