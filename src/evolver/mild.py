"""Mild solutions of semilinear problems and their period maps.

For an evolution system R built from a dissipative family and a
nonlinear field F, the mild solution with initial state x solves

    u(t) = R(t, 0) x + lam * integral_0^t R(t, s) F(s, u(s)) ds.

The integral is evaluated by composite trapezoid on a uniform grid and
the fixed point is found by Picard iteration in the sup norm.  One
trapezoid pass over m grid steps is an affine recurrence along the step
operators, evaluated as a two-level chunked prefix scan: about
2 sqrt(m) batched numpy steps instead of m Python-level ones.  Its
state-independent half (the transposed steps and their in-chunk prefix
products) and a workspace of scan buffers and state paths, which each
pass and its sup-norm gap fill in place, are built once per solve.  The
steps and the scan buffer are stored position major (in-chunk position,
then chunk), so each of the scan's local steps works on one contiguous
slab across all chunks.  It
only multiplies step operators and never inverts one, since the inverse
of a strongly damped step would amplify roundoff.  period_map is the
translation along trajectories Phi_T^lam of u' = lam (A u + F); its
fixed points, the T-periodic states, are found by the one damped-Newton
kernel (linop.damped_newton).  PeriodMap.linearize returns Phi_T^lam and
its Jacobian from one solve: each point rides with d tangent rows that
start at the identity and follow the variational equation
V' = lam (A V + DF(t, u) V) through the same trapezoid passes, which
gives the exact derivative of the discrete map up to Picard tolerance
(1 + d rows per point).  A map's Picard grid is its system's own
subdivision, and it builds its scan plan once, from R.steps.  Its
gap_lipschitz bounds x - Phi_T^lam(x) for the degree's cell exclusion.

All state-space operations broadcast over leading axes, so a batch of
initial states (B, d) is propagated in one sweep.  Field callables must
broadcast the same way and be node-local: the value at node i depends
only on t_i and x_i, since each pass evaluates the field over blocks of
whole time nodes into a buffer the solve owns (a field that returns the
wrong shape raises InvalidInputError).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateFixedPointError,
    InvalidInputError,
)
from .evolsys import (
    EvolutionSystem,
    GeneratorFamily,
    affine_family,
    build_evolution,
    uniform_nodes,
)
from .linop import CONVERGED, SINGULAR, STALLED, as_vector, damped_newton

DEFAULT_GRID = 2048

PICARD_TOL = 1e-10
PICARD_MAX_ITER = 200

_FIELD_BLOCK = 1 << 14
"""State doubles per field call in a Picard pass (128 KiB).

A block this size keeps a field's temporaries small enough that the
allocator reuses them instead of returning them to the kernel and
faulting them in again on the next pass.  Measured with getrusage on a
2-core host, a repeated default wave-periodic run takes 2.6k minor
faults at 2^14 against 48.7k for one call over the whole path, and 41k
at 2^15; at 2^10 per-call overhead doubles a continuation run (batches
up to 208 states: 0.94 s against 0.46 s).
"""


@dataclass(frozen=True)
class NonlinearField:
    """Nonlinearity F(t, x) with its Lipschitz constant and its Jacobian in x.

    F: (t, x) -> array shaped broadcast_shapes(t, x.shape[:-1]) + (d,),
       once trailing axes of t that face x's component axis are dropped
       (t is a scalar or a column such as ts[:, None]); it broadcasts over
       leading axes of x and is node-local: over a column of times t_i
       against states x_i, the value at node i depends only on t_i and
       x_i, since a solve evaluates F in blocks of whole nodes.
    lipschitz: L with ||F(t, x) - F(t, y)|| <= L ||x - y||
    jacobian: (t, x) -> DF(t, x), shaped like F(t, x) with one more axis
       of length d (entry [..., i, j] is dF_i / dx_j), broadcasting and
       node-local like F.
    """

    F: Callable
    lipschitz: float
    jacobian: Callable

    def __call__(self, t, x):
        return self.F(t, x)


def field_jacobian(F) -> Callable:
    """F.jacobian; raises InvalidInputError for a field that carries none."""
    jacobian = getattr(F, "jacobian", None)
    if not callable(jacobian):
        raise InvalidInputError("the field carries no jacobian")
    return jacobian


@dataclass
class Trajectory:
    """A state path on a uniform time grid.

    states has shape (m+1, d) for a single initial state or (m+1, B, d)
    for a batch.  iterations/residual record the Picard solve that
    produced it (zero for directly assembled paths).
    """

    times: np.ndarray
    states: np.ndarray
    lam: float = 1.0
    iterations: int = 0
    residual: float = 0.0

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _eval_field(F, times: np.ndarray, states: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """F at every node, written into out (shaped like states).

    F is called on consecutive blocks of whole time nodes, times as a
    column, each block holding about _FIELD_BLOCK state doubles.  For a
    node-local field the result equals that of one call over all nodes.
    """
    tcol = times.reshape((-1,) + (1,) * (states.ndim - 1))
    step = max(1, _FIELD_BLOCK // states[0].size)
    for i in range(0, len(times), step):
        block = states[i:i + step]
        w = np.asarray(F(tcol[i:i + step], block), dtype=float)
        if w.shape != block.shape:
            raise InvalidInputError(
                f"field returned shape {w.shape}, expected {block.shape}"
            )
        out[i:i + step] = w
    return out


def _scan_plan(E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The state-independent half of _sweep for the steps E (m, d, d).

    Cuts the m steps into C chunks of L = round(sqrt(m)) and pads the
    tail with identity steps; step i = c L + j is position j of chunk c.
    Returns (M, P): M (L, C, d, d) holds the transposed steps position
    major, M[j, c] = E_i^T, so the scan's step j reads one contiguous
    slab; P (C, L, d, d) holds the in-chunk prefix products chunk major,
    P[c, j] = M[0, c] ... M[j, c], in the path's order.  Only products of
    steps are formed, so no step operator is ever inverted.
    """
    m, d = E.shape[0], E.shape[-1]
    L = max(1, round(m ** 0.5))
    C = -(-m // L)
    full = (C - 1) * L
    M = np.empty((L, C, d, d))
    chunks = M.swapaxes(0, 1)
    chunks[:C - 1] = E[:full].transpose(0, 2, 1).reshape(C - 1, L, d, d)
    chunks[C - 1, :m - full] = E[full:].transpose(0, 2, 1)
    chunks[C - 1, m - full:] = np.eye(d)
    P = np.empty((C, L, d, d))
    P[:, 0] = M[0]
    for j in range(1, L):
        np.matmul(P[:, j - 1], M[j], out=P[:, j])
    return M, P


def _workspace(plan, m: int, shape: tuple) -> tuple:
    """Buffers (U, Y, out) for _sweep over m steps of states shaped (..., d).

    U (L, C, B, d) is the scan buffer, position major like the plan's
    steps, Y (C, B, d) the chunk carries and out (m+1,) + shape the path,
    for B states per node.
    """
    L, C, _, d = plan[0].shape
    B = int(np.prod(shape[:-1]))
    return np.empty((L, C, B, d)), np.empty((C, B, d)), np.empty((m + 1,) + shape)


def _sweep(plan: tuple[np.ndarray, np.ndarray], x: np.ndarray, w: np.ndarray,
           lam: float, h: float, work=None) -> np.ndarray:
    """One trapezoid pass of the variation-of-constants formula.

    plan: _scan_plan of the (m, d, d) one-step evolution operators E_i.
    x: (..., d) initial states; w: (m+1, ..., d) forcing samples.
    work: a _workspace (U, Y, out) to run in, or None for a fresh one.

    The pass is the affine recurrence y_0 = x,
    y_{i+1} = (y_i + lam c_i w_i) E_i^T with c_0 = h/2 and c_i = h, and
    returns out[0] = x, out[i+1] = y_{i+1} + lam (h/2) w_{i+1}.  It runs
    as a two-level scan: a local pass over the L in-chunk positions,
    batched across all C chunks, yields each chunk's states started from
    zero; a sequential pass over the chunk boundaries carries the true
    chunk-start states; one matmul against the in-chunk prefix products
    adds each carry to its chunk.  That is L + C, about 2 sqrt(m), steps
    at Python level instead of m, and since the affine maps compose
    forwards it needs no inverse of a step.  The scan buffer is position
    major, so each local step adds and multiplies one contiguous (C, B, d)
    slab; the forcing goes in and the in-chunk states come out through
    its chunk-major (C, L) view, in the path's order.

    Every stage writes into the workspace with out= ufuncs and matmuls,
    overwriting what it held, so a pass allocates nothing of the path's
    size; the result is its out buffer.  w is only read and may alias
    anything but the workspace.
    """
    M, P = plan
    L, C, d = M.shape[0], M.shape[1], M.shape[-1]
    m = w.shape[0] - 1
    B = x.size // d
    full = (C - 1) * L
    U, Y, out = _workspace(plan, m, x.shape) if work is None else work
    # U[j, c] starts as the forcing term lam c_i w_i of step i = c L + j
    # and becomes the state after that step, started from zero in chunk c;
    # the identity steps that pad the last chunk carry no forcing
    chunks = U.swapaxes(0, 1)
    wb = w.reshape(m + 1, B, d)
    np.multiply(wb[:full].reshape(C - 1, L, B, d), lam * h, out=chunks[:C - 1])
    np.multiply(wb[full:m], lam * h, out=chunks[C - 1, :m - full])
    U[0, 0] *= 0.5
    chunks[C - 1, m - full:] = 0.0
    for j in range(L):
        if j:
            U[j] += U[j - 1]
        np.matmul(U[j], M[j], out=U[j])
    Y[0] = x.reshape(B, d)
    for c in range(C - 1):
        np.matmul(Y[c], P[c, L - 1], out=Y[c + 1])
        Y[c + 1] += U[L - 1, c]
    # out[1:] = (Y P + U) + lam (h/2) w[1:], the last chunk cut at step m
    path = out.reshape(m + 1, B, d)
    body, tail = path[1:full + 1].reshape(C - 1, L, B, d), path[full + 1:]
    np.matmul(Y[:C - 1, None], P[:C - 1], out=body)
    np.matmul(Y[C - 1], P[C - 1, :m - full], out=tail)
    body += chunks[:C - 1]
    tail += chunks[C - 1, :m - full]
    head = U.reshape(-1)[:w[1:].size].reshape(w[1:].shape)
    np.multiply(w[1:], 0.5 * lam * h, out=head)
    out[1:] += head
    out[0] = x
    return out


def _gap(new: np.ndarray, old: np.ndarray, scratch: np.ndarray) -> float:
    """max |new_i - old_i| over paths that share row 0, computed in scratch.

    One sqrt of the largest in-place sum of squares; as sqrt is monotone and
    correctly rounded, this is np.max(np.linalg.norm(new - old, axis=-1))
    exactly for d < 8 (numpy sums 8 or more components pairwise).
    """
    m = new.shape[0] - 1
    diff = scratch[:m].reshape(new[1:].shape)
    np.subtract(new[1:], old[1:], out=diff)
    np.square(diff, out=diff)
    total = diff[..., 0]
    for k in range(1, diff.shape[-1]):
        total += diff[..., k]
    return float(np.sqrt(total.max()))


def _variational(F: Callable, jacobian: Callable) -> Callable:
    """The field of the variational system on states Z (..., 1 + d, d).

    Row 0 of Z is a state u and rows 1..d tangent vectors V; the field is
    F(t, u) on row 0 and V DF(t, u)^T on the rest, node-local like F.
    Times come as the solve's column, whose last axis faces Z's row axis
    and is dropped before F and jacobian see them.
    """
    def G(t, Z):
        t = t[..., 0]
        u = Z[..., 0, :]
        out = np.empty(Z.shape)
        out[..., 0, :] = F(t, u)
        # a contiguous DF^T keeps every small product on the BLAS path
        DFt = np.swapaxes(jacobian(t, u), -1, -2).copy()
        np.matmul(Z[..., 1:, :], DFt, out=out[..., 1:, :])
        return out

    return G


def mild_solve(R: EvolutionSystem, F, x0, lam: float = 1.0,
               grid: int = DEFAULT_GRID, tol: float = PICARD_TOL,
               max_iter: int = PICARD_MAX_ITER, *, _plan=None) -> Trajectory:
    """Picard iteration for the mild solution on [0, T].

    Starts from the constant path and iterates u <- Sigma(x0, F(., u), lam)
    until the sup-norm update is below tol; every pass evaluates the field
    into one forcing path and runs in one workspace whose two state paths
    swap roles.  Raises ConvergenceError (with the last update size) after
    max_iter sweeps or on blow-up, and ResourceLimitError for a grid above
    MAX_SUBDIVISION, the cap that uniform_nodes shares with n.  _plan is
    the _scan_plan of R's steps on this grid when the caller holds it
    (a PeriodMap builds its own once); None builds it here.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape[-1] != R.dim:
        raise InvalidInputError("state dimension mismatch")
    times = uniform_nodes(R.T, grid)
    if x.size == 0:
        return Trajectory(times=times, states=np.empty((grid + 1,) + x.shape), lam=lam)
    plan = _scan_plan(R.step_operators(times)) if _plan is None else _plan
    h = R.T / grid
    U, Y, new = _workspace(plan, grid, x.shape)
    flat = U.reshape((-1,) + U.shape[2:])
    states = np.empty_like(new)
    states[...] = x
    w = np.empty_like(new)
    gap = np.inf
    blowup = 1e8 * (1.0 + float(np.max(np.linalg.norm(x, axis=-1))))
    for it in range(1, max_iter + 1):
        _eval_field(F, times, states, w)
        _sweep(plan, x, w, lam, h, (U, Y, new))
        gap = _gap(new, states, flat)
        states, new = new, states
        if gap < tol:
            return Trajectory(times=times, states=states, lam=lam,
                              iterations=it, residual=gap)
        if not np.isfinite(gap) or gap > blowup:
            raise ConvergenceError(
                f"Picard iteration diverged after {it} sweeps (update {gap:.3e})",
                residual=gap,
            )
    raise ConvergenceError(
        f"Picard iteration did not reach {tol:.1e} in {max_iter} sweeps "
        f"(last update {gap:.3e})",
        residual=gap,
    )


@dataclass(frozen=True)
class PeriodMap:
    """Phi_T^lam on the system R of lam A: phi(x) = mild_solve(R, F, x, lam=lam,
    grid=R.n), whose .final is Phi_T^lam(x) for a state or a batch (..., d).
    Its step operators are R.steps, and every solve of the map runs on one
    scan plan of them, built at its first solve."""

    R: EvolutionSystem
    F: Callable
    lam: float

    @cached_property
    def _plan(self):
        return _scan_plan(self.R.steps)

    def __call__(self, x) -> Trajectory:
        return mild_solve(self.R, self.F, x, lam=self.lam, grid=self.R.n,
                          _plan=self._plan)

    def linearize(self, X) -> tuple[Trajectory, np.ndarray]:
        """Phi_T^lam at each row of X (K, d) and its Jacobians (K, d, d), from
        one solve.

        The solve carries states (K, 1 + d, d): row 0 is the point and rows
        1..d start at the identity under the tangent field V DF(t, u)^T, so
        row 1 + j ends at DPhi e_j, the derivative of the discrete trapezoid
        map in direction e_j up to Picard tolerance.  Returns the path of
        the points, states (m + 1, K, d), and DPhi.  Raises
        InvalidInputError when F carries no jacobian.
        """
        X = np.asarray(X, dtype=float)
        K, d = X.shape
        G = _variational(self.F, field_jacobian(self.F))
        Z = np.concatenate([X[:, None, :], np.broadcast_to(np.eye(d), (K, d, d))], axis=1)
        traj = mild_solve(self.R, G, Z, lam=self.lam, grid=self.R.n, _plan=self._plan)
        J = traj.final[:, 1:].swapaxes(-1, -2)
        return replace(traj, states=traj.states[:, :, 0]), J

    def gap_lipschitz(self) -> tuple[float, float]:
        """(Lip, slack): |g(x) - g(y)| <= Lip |x - y| + slack for the computed
        g(x) = x - phi(x).final, or (inf, 0) when no bound holds.

        On _sweep's pass u_{i+1} = E_i (u_i + lam h/2 F_i) + lam h/2 F_{i+1},
        with L = F.lipschitz, q = lam h L / 2 < 1, a_i = |E_i|_2 and
        b_i = |E_i - I|_2, solutions from x and y stay within D_i |x - y|,
        D_0 = 1, D_{i+1} = a_i (1 + q) / (1 - q) D_i; Lip is the smaller of
        1 + D_m and the O(lam) sum S of their steps' changes, (b_i + a_i q)
        D_i + q D_{i+1}.  Picard contracts in the sup norm by kappa < 1,
        kappa = max_i P_i, P_0 = 0, P_{i+1} = a_i P_i + (a_i + 1) q, so a solve
        stopped below PICARD_TOL is within kappa / (1 - kappa) PICARD_TOL of
        the discrete map at each of the two points.
        """
        q = 0.5 * self.lam * self.R.h * getattr(self.F, "lipschitz", np.inf)
        if not q < 1.0:
            return np.inf, 0.0
        E = self.R.steps
        a = np.linalg.norm(E, 2, axis=(1, 2)).tolist()
        b = np.linalg.norm(E - np.eye(E.shape[-1]), 2, axis=(1, 2)).tolist()
        r = (1.0 + q) / (1.0 - q)
        D, S, P, kappa = 1.0, 0.0, 0.0, 0.0
        for ai, bi in zip(a, b):
            S += (bi + ai * q + ai * r * q) * D
            D *= ai * r
            P = ai * P + (ai + 1.0) * q
            kappa = max(kappa, P)
        if not kappa < 1.0:
            return np.inf, 0.0
        return min(S, 1.0 + D), 2.0 * kappa / (1.0 - kappa) * PICARD_TOL


def period_map(family: GeneratorFamily, F, lam: float, grid: int) -> PeriodMap:
    """The translation along trajectories Phi_T^lam of u' = lam (A u + F).

    Builds R = build_evolution(affine_family(family, lam), grid) once and
    returns the PeriodMap x -> mild_solve(R, F, x, lam=lam, grid=grid):
    one subdivision serves both R and the trapezoid sum.
    """
    return PeriodMap(build_evolution(affine_family(family, lam), grid), F, lam)


@dataclass
class FixedPointResult:
    """Outcome of a period-map fixed-point solve: history holds the residual
    at each of the iterations iterates (accepted Newton steps plus one),
    trajectory the path from x over [0, T] that the last solve computed."""

    x: np.ndarray
    residual: float
    iterations: int
    history: list
    trajectory: Trajectory


def fixed_point(phi: PeriodMap, x_init, tol: float = 1e-8,
                max_iter: int = 60) -> FixedPointResult:
    """Fixed point of a period map phi (see period_map): a T-periodic state.

    damped_newton on G(x) = phi(x).final - x from x_init as a batch of
    one, with 8 trial steps; every evaluation is one phi.linearize solve
    of the point with its exact Jacobian, so the solve makes
    1 + accepted steps + halvings solves.  Newton ends on an evaluation of
    its last iterate, whose path is kept as the result's trajectory.
    Raises DegenerateFixedPointError when DPhi - I is numerically singular
    (cond > COND_LIMIT), ConvergenceError when ||phi(x).final - x|| does
    not reach tol (the step stalled or max_iter iterations ran out), and
    InvalidInputError when phi's field has no jacobian.
    """
    x = as_vector(x_init)
    last = []

    def Gj(X):
        traj, J = phi.linearize(X)
        last[:] = [X, traj]
        return traj.final - X, J - np.eye(X.shape[-1])

    rec = damped_newton(Gj, x[None], tol, max_iter, tries=8)
    res = float(rec.residual[0])
    history = [float(r) for r in rec.history[0] if not np.isnan(r)]
    if rec.status[0] == SINGULAR:
        raise DegenerateFixedPointError(
            f"period-map Jacobian is singular at iteration {rec.jacobians[0]} "
            f"(cond = {rec.cond[0]:.3e})",
            residual=res,
        )
    if rec.status[0] != CONVERGED:
        why = (f"stalled at residual {res:.3e} after {len(history)} iterations"
               if rec.status[0] == STALLED else f"did not reach {tol:.1e} in "
               f"{max_iter} iterations (residual {res:.3e})")
        raise ConvergenceError(f"newton-on-map {why}", residual=res)
    X, traj = last
    assert np.array_equal(X[0], rec.x[0]), "Newton ended off its last evaluation"
    return FixedPointResult(x=rec.x[0], residual=res, iterations=len(history),
                            history=history, trajectory=replace(traj, states=traj.states[:, 0]))
