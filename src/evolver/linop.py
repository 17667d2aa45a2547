"""Dense linear-operator substrate: exponentials, norms, resolvents.

Matrices and vectors are plain numpy arrays (float64).  Dimensions are
capped at MAX_DIM; everything here is small and dense by design.  Norms
are Euclidean/spectral; weighted metrics live with the modules that own
them.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

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


def mat_exp(M, t: float = 1.0) -> np.ndarray:
    """exp(t*M) by scaling-and-squaring with a Pade kernel.

    M may be one matrix or an (m, d, d) stack; a stack is validated once
    and exponentiated slice by slice in one call, each slice bit-for-bit
    equal to its single-matrix result.  Satisfies the semigroup law
    mat_exp(M, s + t) = mat_exp(M, t) @ mat_exp(M, s) up to roundoff and
    mat_exp(M, 0) = I exactly.
    """
    A = as_matrix(M, stack=np.ndim(M) == 3)
    if not np.isfinite(t):
        raise InvalidInputError("time argument must be finite")
    if t == 0.0:
        return np.broadcast_to(np.eye(A.shape[-1]), A.shape).copy()
    # 1.0 * A == A exactly, so skipping the product only saves a copy
    return scipy.linalg.expm(A if t == 1.0 else t * A)


def operator_norm(M) -> float:
    """Spectral norm: the largest singular value, from the SVD."""
    return float(np.linalg.svd(as_matrix(M), compute_uv=False)[0])


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
