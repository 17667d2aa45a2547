"""Contraction semigroups and product-formula approximation schemes.

A scheme is a parametrized family of contractions L(lam, mu) whose
derivative at lam = 0 is a generator A^(mu).  Powers L(lam_n, mu_n)^{k_n}
approximate the limit semigroup exp(t A^(mu0)) when k_n -> infinity,
k_n * lam_n -> t and mu_n -> mu0; the matching Riemann sums approximate
the time integral of the semigroup orbit.  This module tabulates both
limits and the square-root defect bound for contractions, one at a
time or a whole stack at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInputError, InvalidMetricError, PreconditionError
from .linop import (
    as_matrix,
    as_vector,
    mat_exp,
    mat_power,
    operator_norm,
    resolvent,
    row_norms,
)

CONTRACTION_SLACK = 1e-12

# a table shows order p when its fitted rate reaches this share of p
ORDER_SHARE = 0.9


def metric_cholesky(G) -> np.ndarray:
    """Cholesky factor L (G = L L^T) of an SPD metric; raises InvalidMetricError."""
    A = as_matrix(G)
    if not np.allclose(A, A.T, atol=1e-12, rtol=0.0):
        raise InvalidMetricError("metric is not symmetric")
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise InvalidMetricError("metric is not positive definite") from None


def metric_operator_norm(M, G):
    """Operator norm of M on (R^d, <.,.>_G) via congruence to Euclidean: a
    float for one matrix, the (m,) norms for an (m, d, d) stack."""
    stacked = np.ndim(M) == 3
    A = as_matrix(M, stack=stacked)
    L = metric_cholesky(G)
    norms = np.linalg.norm(L.T @ A @ np.linalg.inv(L).T, 2, axis=(-2, -1))
    return norms if stacked else float(norms)


def metric_norm(x, G) -> float:
    """sqrt(x^T G x)."""
    v = np.asarray(x, dtype=float)
    return float(np.sqrt(max(v @ (np.asarray(G, dtype=float) @ v), 0.0)))


def dissipativity_rate(M, G=None):
    """Largest omega with <x, M x>_G <= -omega <x, x>_G for all x.

    Equals minus the top eigenvalue of the G-symmetrized generator
    S = (G M + M^T G)/2 against G, found as the top eigenvalue of the
    Cholesky congruence L^{-1} S L^{-T} (G = L L^T).  M is one matrix
    (returns a float) or an (m, d, d) stack (returns the (m,) rates from
    one batched symmetric eigensolve).  G defaults to the identity.
    """
    stacked = np.ndim(M) == 3
    A = as_matrix(M, stack=stacked)
    d = A.shape[-1]
    G = np.eye(d) if G is None else np.asarray(G, dtype=float)
    if G.shape != (d, d):
        raise InvalidInputError("metric dimension does not match the generator")
    L_inv = np.linalg.inv(metric_cholesky(G))
    S = 0.5 * (G @ A + np.swapaxes(A, -1, -2) @ G)
    rates = -np.linalg.eigvalsh(L_inv @ S @ L_inv.T)[..., -1]
    return rates if stacked else float(rates)


@dataclass(frozen=True)
class ChernoffScheme:
    """Product-formula scheme L(lam, mu) with parametrized limit generator.

    L: (lam, mu) -> contraction matrix, defined for small lam >= 0
    limit_generator: mu -> matrix A^(mu), the lam-derivative of L at 0
    dim: state dimension
    """

    L: Callable[[float, float], np.ndarray]
    limit_generator: Callable[[float], np.ndarray]
    dim: int


@dataclass(frozen=True)
class ChernoffSequence:
    """Index sequences (k_n, lam_n, mu_n) for the power and sum limits.

    kind "kn=n": k_n = n, lam_n = t/n, effective time t.
    kind "kn=ceil": lam_n = t/n, k_n = ceil(1/lam_n), effective time 1.
    mu_n = mu0 + mu_drift/n drifts toward mu0.
    """

    t: float
    mu0: float
    ns: tuple[int, ...]
    kind: str = "kn=n"
    mu_drift: float = 0.0

    def __post_init__(self):
        if self.kind not in ("kn=n", "kn=ceil"):
            raise InvalidInputError(f"unknown sequence kind {self.kind!r}")
        if self.t <= 0 or not np.isfinite(self.t):
            raise InvalidInputError("sequence time must be positive and finite")
        if not self.ns or any(n < 1 for n in self.ns):
            raise InvalidInputError("sequence indices must be a nonempty list of n >= 1")

    @property
    def effective_time(self) -> float:
        """lim k_n * lam_n: t for kind 'kn=n', 1 for kind 'kn=ceil'."""
        return self.t if self.kind == "kn=n" else 1.0

    def triples(self):
        """Yield (n, k_n, lam_n, mu_n)."""
        for n in self.ns:
            lam = self.t / n
            k = n if self.kind == "kn=n" else int(np.ceil(1.0 / lam))
            yield n, k, lam, self.mu0 + self.mu_drift / n


@dataclass
class ConvergenceTable:
    """Tabulated approximation errors along a sequence.

    rate: least-squares slope of log(error) against log(n) (nan if degenerate).
    """

    ns: list[int] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)
    target: np.ndarray | None = None

    @property
    def rate(self) -> float:
        pos = [(n, e) for n, e in zip(self.ns, self.errors) if e > 0]
        if len(pos) < 2:
            return float("nan")
        ln = np.log([n for n, _ in pos])
        le = np.log([e for _, e in pos])
        return float(-np.polyfit(ln, le, 1)[0])

    def shows_order(self, p: float, floor: float) -> str | None:
        """How the table shows convergence at order p: "order" when
        rate >= ORDER_SHARE * p, else "floor" when the finest (last) error
        is at most floor, where errors are roundoff and a fitted slope is
        noise, else None.  An empty or non-finite table shows nothing."""
        if not np.all(np.isfinite(self.errors)):
            return None
        if self.rate >= ORDER_SHARE * p:
            return "order"
        return "floor" if self.errors and self.errors[-1] <= floor else None


def chernoff_defect(T_op, x, n):
    """Square-root defect bound for one contraction T or a stack of them.

    Returns (lhs, rhs) with
        lhs = ||exp(n (T - I)) x - T^n x||,
        rhs = sqrt(n) ||x - T x||.
    The bound lhs <= rhs holds for every contraction; callers get both
    sides so tests can assert it.  T_op is one (d, d) matrix with x (d,)
    and an integer n (returns two floats), or an (m, d, d) stack with x
    (m, d) and n (m,) per slice (returns two (m,) arrays).  The stack
    takes one batched spectral norm, one stacked mat_exp and one
    mat_power, and every slice equals its single call bit for bit.
    Raises PreconditionError, naming the first slice, when some
    ||T_i|| > 1 + 1e-12, and InvalidInputError for an n that is not an
    integer >= 0.
    """
    stacked = np.ndim(T_op) == 3
    T = as_matrix(T_op, stack=stacked)
    if stacked:
        v = np.asarray(x, dtype=float)
        if v.shape != T.shape[:-1] or not np.all(np.isfinite(v)):
            raise InvalidInputError(f"expected finite vectors of shape {T.shape[:-1]}, "
                                    f"got shape {v.shape}")
    else:
        T, v = T[None], as_vector(x, T.shape[0])[None]
    norms = operator_norm(T)
    bad = np.flatnonzero(norms > 1.0 + CONTRACTION_SLACK)
    if bad.size:
        raise PreconditionError(f"T[{bad[0]}] is not a contraction: norm {norms[bad[0]]:.17g}")
    Tn = mat_power(T, n)
    k = np.broadcast_to(np.asarray(n), T.shape[:1])
    E = mat_exp(k[:, None, None] * (T - np.eye(T.shape[-1])))
    col = v[..., None]
    lhs = row_norms((E @ col - Tn @ col)[..., 0])
    rhs = np.sqrt(k) * row_norms(v - (T @ col)[..., 0])
    return (lhs, rhs) if stacked else (float(lhs[0]), float(rhs[0]))


def _contractions(scheme: ChernoffScheme, seq: ChernoffSequence):
    """The (len(ns), d, d) stack of L(lam_n, mu_n) along seq, with the
    arrays of n, k_n and lam_n; raises PreconditionError at the first
    L(lam_n, mu_n) that is not a contraction."""
    triples = list(seq.triples())
    Ls = as_matrix([scheme.L(lam, mu) for _, _, lam, mu in triples], stack=True)
    norms = operator_norm(Ls)
    bad = np.flatnonzero(norms > 1.0 + CONTRACTION_SLACK)
    if bad.size:
        _, _, lam, mu = triples[bad[0]]
        raise PreconditionError(f"scheme is not contractive at lam={lam}, mu={mu}")
    ns, ks, lams, _ = zip(*triples)
    return Ls, list(ns), np.array(ks), np.array(lams)


def chernoff_power_limit(scheme: ChernoffScheme, seq: ChernoffSequence, x) -> ConvergenceTable:
    """Tabulate ||L(lam_n, mu_n)^{k_n} x - exp(t A^(mu0)) x|| along seq.

    t is the sequence's effective time.  Each L(lam_n, mu_n) is checked
    to be a contraction (PreconditionError otherwise).  All powers come
    from one mat_power call, O(log max k_n) batched products.
    """
    v = as_vector(x, scheme.dim)
    t = seq.effective_time
    A0 = as_matrix(scheme.limit_generator(seq.mu0))
    target = mat_exp(A0, t) @ v
    Ls, ns, ks, _ = _contractions(scheme, seq)
    errors = np.linalg.norm(mat_power(Ls, ks) @ v - target, axis=-1)
    return ConvergenceTable(ns=ns, errors=errors.tolist(), target=target)


def chernoff_sum_limit(scheme: ChernoffScheme, seq: ChernoffSequence, x) -> ConvergenceTable:
    """Tabulate the Riemann-sum limit toward the integrated orbit.

    Compares lam_n * sum_{k < k_n} L(lam_n, mu_n)^k x against
    integral_0^t exp(tau A^(mu0)) x dtau, computed exactly (up to the
    exponential's roundoff) as the top-right column of
    exp(t [[A^(mu0), x], [0, 0]]) (Van Loan, 1978).  The sums are the
    top-right blocks of [[L, I], [0, I]]^{k_n}, from one mat_power call.
    """
    v = as_vector(x, scheme.dim)
    d = scheme.dim
    t = seq.effective_time
    A0 = as_matrix(scheme.limit_generator(seq.mu0))
    block = np.block([[A0, v[:, None]], [np.zeros((1, d + 1))]])
    target = mat_exp(block, t)[:-1, -1]
    Ls, ns, ks, lams = _contractions(scheme, seq)
    eye = np.broadcast_to(np.eye(d), Ls.shape)
    sums = mat_power(np.block([[Ls, eye], [np.zeros_like(Ls), eye]]), ks)[:, :d, d:]
    errors = np.linalg.norm(lams[:, None] * (sums @ v) - target, axis=-1)
    return ConvergenceTable(ns=ns, errors=errors.tolist(), target=target)


def resolvent_scheme(A_of_mu: Callable[[float], np.ndarray], dim: int) -> ChernoffScheme:
    """Scheme L(lam, mu) = (I - lam A^(mu))^{-1} (implicit Euler step).

    L raises SingularResolventError where I - lam A^(mu) is numerically
    singular.
    """

    def L(lam, mu):
        return resolvent(lam * as_matrix(A_of_mu(mu)), 1.0)

    return ChernoffScheme(L=L, limit_generator=A_of_mu, dim=dim)
