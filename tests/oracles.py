"""Independent numeric oracles used by the test suite.

The algorithms are chosen to be different from the library's own, and
nothing here imports the library.  The library is numpy-only; the
oracles may use scipy and mpmath:

* the exponential: a truncated power series, scipy's expm, and mpmath's
  expm at 40 digits (the library runs a batched truncated-Taylor kernel
  in numpy);
* operator norms: the top eigenvalue of the Gram matrix M^T M (the
  library takes the SVD);
* dissipativity rates and metric constants: scipy's generalized
  symmetric eigensolver (the library reduces to a standard problem by a
  Cholesky congruence or a diagonal scaling);
* integrals of the generator gap: scipy's adaptive quadrature (the
  library uses a fixed composite Gauss-Legendre rule);
* transition matrices and semilinear paths: classic RK4 time stepping
  (the library uses frozen-coefficient products and trapezoid Picard
  sweeps).  The step-by-step trapezoid loop is the reference for the
  library's chunked scan sweep;
* R(t, s) of a built system: a walk over its cells one pair at a time,
  multiplying one piece per cell (the library locates a whole batch of
  pairs at once and multiplies them in lockstep);
* expressions: a recursive walk of the AST on every evaluation (the
  library compiles each AST once into a tree of closures), and a
  printer back to source for roundtrip tests (the library only parses);
* fixed points of a contractive period map: direct iteration
  x <- Phi(x) (the library runs damped Newton on Phi(x) - x);
* product-formula tables and matrix powers: k_n matrix-vector products
  in a loop, and numpy's matrix_power (the library powers a whole stack
  by lockstep binary squaring, the sums through a block matrix);
* Jacobians: central differences (fd_eval; every library field and map
  carries its exact derivative, from exprlang.diff_expr, closed forms or
  the variational rows of a period-map solve).
"""

import mpmath
import numpy as np
import scipy.integrate
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


def mp_expm_error(X, A, dps=40):
    """||X - exp(A)||_1 / ||exp(A)||_1 with exp(A) from mpmath at dps digits."""
    with mpmath.workdps(dps):
        E = mpmath.expm(mpmath.matrix(np.asarray(A, dtype=float).tolist()))
        diff = mpmath.matrix(np.asarray(X, dtype=float).tolist()) - E
        return float(mpmath.mnorm(diff, 1) / mpmath.mnorm(E, 1))


def gap_integral(A1, A2, T):
    """integral_0^T ||A1(r) - A2(r)||_2 dr by adaptive quadrature on scalar r."""
    def integrand(r):
        return np.linalg.norm(np.asarray(A1(r), dtype=float) - np.asarray(A2(r), dtype=float), 2)

    total, _ = scipy.integrate.quad(integrand, 0.0, T, epsabs=0.0, epsrel=1e-13, limit=500)
    return float(total)


def pencil_extremes(G, G0):
    """Smallest and largest eigenvalue of the symmetric-definite pencil (G, G0)."""
    w = scipy.linalg.eigh(G, G0, eigvals_only=True)
    return float(w[0]), float(w[-1])


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


def loop_power_limit(L, triples, x, target):
    """||L(lam, mu)^k x - target|| per (n, k, lam, mu), applying L k times."""
    errors = []
    for _, k, lam, mu in triples:
        Lm = np.asarray(L(lam, mu), dtype=float)
        approx = np.asarray(x, dtype=float).copy()
        for _ in range(k):
            approx = Lm @ approx
        errors.append(float(np.linalg.norm(approx - target)))
    return errors


def loop_sum_limit(L, triples, x, target):
    """||lam sum_{j < k} L(lam, mu)^j x - target|| per (n, k, lam, mu), term by term."""
    errors = []
    for _, k, lam, mu in triples:
        Lm = np.asarray(L(lam, mu), dtype=float)
        w = np.asarray(x, dtype=float).copy()
        acc = np.zeros_like(w)
        for _ in range(k):
            acc += w
            w = Lm @ w
        errors.append(float(np.linalg.norm(lam * acc - target)))
    return errors


def walk_operator(R, t, s, expm, snap):
    """R(t, s) of a frozen-coefficient system, walking its cells one by one.

    R supplies nodes, n, h, T, dim, steps (whole-cell exponentials),
    prefix (R(t_k, 0)) and family.A.  Every piece of cell j, whole or
    partial, is frozen at the cell's midpoint t_j + h/2; the walk states
    that rule itself instead of reading the library's.  expm(M, a) is the
    exponential the system was built with, passed in so the walk can be
    compared with the library bit for bit.  A time within
    snap * max(1, T) of a node counts as on it.  Expects
    0 <= s <= t <= T up to that snap.
    """
    tol = snap * max(1.0, R.T)
    t, s = min(max(t, 0.0), R.T), min(max(s, 0.0), R.T)

    def locate(u):
        # cell index of u, and whether u sits on a grid node
        j = min(int(round(u / R.h)), R.n)
        if abs(u - R.nodes[j]) <= tol:
            return j, True
        return min(int(u / R.h), R.n - 1), False

    if t - s <= tol:
        return np.eye(R.dim)
    jt, t_on = locate(t)
    j, s_on = locate(s)
    if s_on and j == 0 and t_on:
        return R.prefix[jt].copy()
    P = np.eye(R.dim)
    first = True
    cur = R.nodes[j] if s_on else s
    while cur < t - tol:
        cell_end = R.nodes[j + 1]
        seg_end = min(cell_end, t)
        whole = abs(cur - R.nodes[j]) <= tol and abs(seg_end - cell_end) <= tol
        F = R.steps[j] if whole else expm(R.family.A(R.nodes[j] + R.h / 2), seg_end - cur)
        P = F.copy() if first else F @ P
        first = False
        cur = cell_end
        j += 1
    return P


def picard_fixed_point(phi, x, tol, max_iter=200):
    """Fixed point of a contractive map by direct iteration x <- phi(x).

    Returns (x, iterations) once the update |phi(x) - x| is at most tol;
    raises AssertionError after max_iter iterations.
    """
    x = np.asarray(x, dtype=float)
    for it in range(1, max_iter + 1):
        fx = np.asarray(phi(x), dtype=float)
        step = float(np.linalg.norm(fx - x))
        x = fx
        if step <= tol:
            return x, it
    raise AssertionError(f"direct iteration stalled at update {step:.3e}")


def fd_eval(g, X, h):
    """g at each row of X (K, d) and its central-difference Jacobians (K, d, d).

    The rows [x, x + h e_i, x - h e_i] of every x go to g as one batch of
    K (2d + 1) points.  h: one step for all rows, or a (K,) step per row.
    """
    K, d = X.shape
    h = np.reshape(h, (-1, 1, 1))
    shift = h * np.eye(d)[None, :, :]
    rows = np.concatenate([X[:, None, :], X[:, None, :] + shift,
                           X[:, None, :] - shift], axis=1)     # (K, 2d + 1, d)
    vals = np.asarray(g(rows.reshape(-1, d)), dtype=float).reshape(K, 2 * d + 1, d)
    J = (vals[:, 1:d + 1, :] - vals[:, d + 1:, :]).transpose(0, 2, 1) / (2.0 * h)
    return vals[:, 0, :], J


def fd_pair(g, h=1e-6):
    """The evaluator X -> fd_eval(g, X, h), the pair a degree's Newton takes."""
    return lambda X: fd_eval(g, X, h)


def _walk_log(a):
    if np.any(np.asarray(a) <= 0):
        raise ValueError("log of a number <= 0")
    return np.log(a)


_WALK_FUNCTIONS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": _walk_log,
    "tanh": np.tanh, "abs": np.abs, "sign": np.sign,
    "min": np.minimum, "max": np.maximum,
}


def walk_expr(e, bindings=None):
    """Value of an expression AST by recursive walking, pi always bound.

    Dispatches on node class names (Num, Var, Neg, Bin, Call), so it needs
    nothing from the library, and raises ValueError where evaluation is
    undefined: division by zero, zero to a negative power, a fractional
    power of a negative base, log of a number <= 0, an unbound variable.
    """
    env = {"pi": np.pi}
    if bindings:
        env.update(bindings)
    out = _walk(e, env)
    return float(out) if np.ndim(out) == 0 else out


def _walk(e, env):
    kind = type(e).__name__
    if kind == "Num":
        return e.value
    if kind == "Var":
        if e.name not in env:
            raise ValueError(f"unbound variable {e.name!r}")
        return env[e.name]
    if kind == "Neg":
        return -_walk(e.arg, env)
    if kind == "Call":
        return _WALK_FUNCTIONS[e.fn](*(_walk(arg, env) for arg in e.args))
    a = _walk(e.lhs, env)
    b = _walk(e.rhs, env)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    if e.op == "/":
        if np.any(np.asarray(b) == 0):
            raise ValueError("division by zero")
        return a / b
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    if np.any((aa == 0) & (bb < 0)):
        raise ValueError("division by zero (zero base, negative exponent)")
    with np.errstate(invalid="ignore"):
        res = np.power(aa, bb)
    if np.any(np.isnan(res)):
        raise ValueError("invalid power (negative base, fractional exponent)")
    return res if res.ndim else float(res)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(e):
    kind = type(e).__name__
    if kind == "Bin":
        return _PREC[e.op]
    if kind == "Neg" or (kind == "Num" and e.value < 0):
        return _PREC["neg"]
    return _PREC["atom"]


def format_expr(e):
    """Minimally parenthesized source of an expression AST that reparses to it.

    The printer the roundtrip and diff_expr tests read their ASTs back
    through; like walk_expr it dispatches on node class names.
    """
    kind = type(e).__name__
    if kind == "Num":
        return repr(e.value)
    if kind == "Var":
        return e.name
    if kind == "Neg":
        inner = format_expr(e.arg)
        return f"-({inner})" if _prec(e.arg) < _PREC["neg"] else f"-{inner}"
    if kind == "Call":
        return f"{e.fn}({','.join(format_expr(a) for a in e.args)})"
    p = _PREC[e.op]
    lhs = format_expr(e.lhs)
    rhs = format_expr(e.rhs)
    if e.op == "^":
        # right-assoc: wrap equal precedence on the left, and the exponent
        # only when it is looser than a signed factor
        wrap_lhs, wrap_rhs = _prec(e.lhs) <= p, _prec(e.rhs) < _PREC["neg"]
    else:
        # left-assoc: an equal-precedence right child must keep its parens
        # or the reparse would rebalance the tree
        wrap_lhs, wrap_rhs = _prec(e.lhs) < p, _prec(e.rhs) <= p
    lhs = f"({lhs})" if wrap_lhs else lhs
    rhs = f"({rhs})" if wrap_rhs else rhs
    return f"{lhs}{e.op}{rhs}"
