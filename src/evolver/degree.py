"""Brouwer degree on balls and boxes via the regular-value representation.

deg(g, U) = sum of sign det Dg(z) over the zeros z of g in U, provided g
does not vanish on the boundary and every zero is regular.  Zeros are
located by linop.damped_newton from the centers of a lattice of cells
covering U, skipping cells that a Lipschitz bound of g, if given, rules out,
polished by it to the residual floor, and clustered; the boundary
condition is screened on a sample cloud.  g is called on batches: the
boundary cloud with the cell centers once, then each Newton trial
evaluates its points with their exact Jacobians in one call of the
caller's evaluator (a period map passes PeriodMap.linearize, so each call
is one solve; averaged_map returns its own).  In d = 1 the zero sum is
checked against the endpoint degree.  For planar fields winding_number_2d
gives an independent value by accumulating the argument of g along the
boundary loop.

Fields must be vectorized: g applied to an (..., d) array of points
returns an (..., d) array of values.  Degree computations are capped at
d <= 4 (the lattice of Newton starts grows like grid^d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateZeroError,
    InadmissibleRegionError,
    InvalidInputError,
    OracleFailureError,
    SingularResolventError,
)
from .linop import COND_LIMIT, CONVERGED, SINGULAR, damped_newton

MAX_DEGREE_DIM = 4

CLUSTER_RADIUS = 1e-6
DET_FLOOR = 1e-8
MAX_NEWTON = 60
# both relative to 1 + max |g| on the boundary samples
ZERO_TOL = 1e-8        # residual at which a Newton start has found a zero
BOUNDARY_DELTA = 1e-6  # admissibility margin
WINDING_SAMPLES = 256
WINDING_MAX_SAMPLES = 2 ** 20


@dataclass(frozen=True)
class Region:
    """Open ball or axis-aligned open box in R^d."""

    kind: str
    center: np.ndarray | None = None
    radius: float = 0.0
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    @staticmethod
    def ball(center, radius: float) -> "Region":
        c = np.atleast_1d(np.asarray(center, dtype=float))
        if not (np.all(np.isfinite(c)) and np.isfinite(radius) and radius > 0):
            raise InvalidInputError("ball needs finite center and radius > 0")
        return Region(kind="ball", center=c, radius=float(radius))

    @staticmethod
    def box(lo, hi) -> "Region":
        a = np.atleast_1d(np.asarray(lo, dtype=float))
        b = np.atleast_1d(np.asarray(hi, dtype=float))
        if a.shape != b.shape or not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
            raise InvalidInputError("box corners must be finite, same shape")
        if not np.all(b > a):
            raise InvalidInputError("box needs hi > lo componentwise")
        return Region(kind="box", lo=a, hi=b)

    @property
    def dim(self) -> int:
        return len(self.center) if self.kind == "ball" else len(self.lo)

    @property
    def midpoint(self) -> np.ndarray:
        return self.center.copy() if self.kind == "ball" else 0.5 * (self.lo + self.hi)

    def contains(self, x):
        """Strict membership, vectorized over leading axes of x."""
        p = np.asarray(x, dtype=float)
        if self.kind == "ball":
            return np.linalg.norm(p - self.center, axis=-1) < self.radius
        return np.all((p > self.lo) & (p < self.hi), axis=-1)

    def boundary_samples(self, m: int) -> np.ndarray:
        """(M, d) boundary points, a closed loop when d == 2; for d >= 3 drawn
        by a generator seeded with 0, so the cloud is deterministic."""
        d = self.dim
        if d == 1:
            return np.stack(self.bounds)
        if self.kind == "ball":
            if d == 2:
                th = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
                return self.center + self.radius * np.stack([np.cos(th), np.sin(th)], axis=-1)
            rng = np.random.default_rng(0)
            dirs = rng.standard_normal((m, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            axes = np.concatenate([np.eye(d), -np.eye(d)])
            return self.center + self.radius * np.concatenate([dirs, axes])
        if d == 2:
            # the loop lo -> (x1, y0) -> hi -> (x0, y1), max(m // 4, 2) per edge
            (x0, y0), (x1, y1) = self.lo, self.hi
            c = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]])
            u = np.linspace(0.0, 1.0, max(m // 4, 2), endpoint=False)[:, None]
            return np.concatenate([a + u * (b - a) for a, b in zip(c, c[1:])])
        rng = np.random.default_rng(0)
        per_face = max(m // (2 * d), 1)
        pts = []
        for axis in range(d):
            for val in (self.lo[axis], self.hi[axis]):
                q = self.lo + rng.random((per_face, d)) * (self.hi - self.lo)
                q[:, axis] = val
                pts.append(q)
        return np.concatenate(pts)

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Corners (lo, hi) of the smallest box holding U."""
        if self.kind == "ball":
            return self.center - self.radius, self.center + self.radius
        return self.lo, self.hi

    def cell_centers(self, res: int) -> np.ndarray:
        """(K, d) centers of the cells of a res^d grid over bounds meeting U."""
        lo, hi = self.bounds
        half = (hi - lo) / (2 * res)
        axes = [np.linspace(a, b, res, endpoint=False) + h for a, b, h in zip(lo, hi, half)]
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
        if self.kind == "ball":
            gap = np.maximum(np.abs(pts - self.center) - half, 0.0)
            pts = pts[np.linalg.norm(gap, axis=1) < self.radius]
        return pts


@dataclass
class DegreeReport:
    """Degree value with its evidence; cells counts lattice cells, starts Newton runs."""

    value: int
    zeros: np.ndarray
    signs: np.ndarray
    dets: np.ndarray
    boundary_min: float
    delta: float
    cells: int
    starts: int


def _boundary_screen(vals: np.ndarray, samples: np.ndarray):
    """Values vals = g(samples) on boundary samples, screened against the
    admissibility margin.

    Returns (boundary_min, delta, scale): scale is max |g| on the samples
    and delta = BOUNDARY_DELTA (1 + scale).  Raises InadmissibleRegionError,
    carrying boundary_min = min |g|, when that minimum is <= delta.
    """
    norms = np.linalg.norm(vals, axis=-1)
    scale = float(np.max(norms))
    delta = BOUNDARY_DELTA * (1.0 + scale)
    worst = int(np.argmin(norms))
    bmin = float(norms[worst])
    if bmin <= delta:
        raise InadmissibleRegionError(
            f"field nearly vanishes on the boundary: |g| = {bmin:.3e} "
            f"<= delta = {delta:.3e} at {samples[worst]}",
            point=samples[worst], value=vals[worst], boundary_min=bmin,
        )
    return bmin, delta, scale


def brouwer_degree(g, U: Region, grid: int = 16, boundary_m: int = 256,
                   lipschitz: float = np.inf, slack: float = 0.0, *,
                   evaluate) -> DegreeReport:
    """Degree of g on U by multi-start damped Newton and sign-summed Jacobians.

    grid: lattice cells per axis over U.bounds; a start finds a zero when
    damped_newton brings |g| to tol = ZERO_TOL (1 + max boundary |g|) within
    4 spans of U's midpoint.  Given |g(x) - g(y)| <= lipschitz |x - y| +
    slack, a cell with |g(center)| > lipschitz rho + slack + tol, rho its
    half-diagonal, holds no zero and starts no Newton (exclusion: Franek
    and Ratschan, Math. Comp. 84, 2015); g then sees the boundary samples
    and the cell centers as one batch, else the samples alone.  Newton
    makes one call per trial of evaluate: (k, d) points -> the pair
    (g, Dg) of (k, d) values and (k, d, d) Jacobians.  The admissibility
    margin is BOUNDARY_DELTA (1 + max boundary |g|) on the boundary_m
    samples.  In d = 1 the samples are the endpoints, and the zero sum
    must equal (sign g(hi) - sign g(lo)) / 2.
    Raises InadmissibleRegionError on boundary (near-)zeros,
    DegenerateZeroError when polishing a located zero meets cond(Dg) >
    COND_LIMIT or leaves |det Dg| < DET_FLOOR, OracleFailureError when a
    d = 1 zero sum contradicts the endpoints, InvalidInputError for d > 4.
    The computation is deterministic: fixed start lattice, zeros sorted
    before clustering and summation.
    """
    d = U.dim
    if d > MAX_DEGREE_DIM:
        raise InvalidInputError(
            f"degree computations are capped at d <= {MAX_DEGREE_DIM}, got {d}"
        )
    samples = U.boundary_samples(boundary_m)
    cells = U.cell_centers(grid)
    bounded = bool(np.isfinite(lipschitz))
    vals = np.asarray(g(np.concatenate([samples, cells]) if bounded else samples),
                      dtype=float)
    bvals = vals[:len(samples)]
    boundary_min, delta, scale = _boundary_screen(bvals, samples)
    tol = ZERO_TOL * (1.0 + scale)
    lo, hi = U.bounds
    span, mid = float(np.max(hi - lo)), U.midpoint
    live = np.ones(len(cells), dtype=bool)
    if bounded:
        rho = 0.5 * float(np.linalg.norm(hi - lo)) / grid
        live = np.linalg.norm(vals[len(samples):], axis=-1) <= lipschitz * rho + slack + tol
    zeros, dets = np.empty((0, d)), np.empty(0)
    if live.any():
        search = damped_newton(
            evaluate, cells[live], tol=tol, max_iter=MAX_NEWTON, tries=7,
            keep=lambda X: np.linalg.norm(X - mid, axis=-1) <= 4.0 * span)
        hits = np.flatnonzero((search.status == CONVERGED) & U.contains(search.x))
        hits = hits[_cluster(search.x[hits])]
        if hits.size:
            # polish to the residual floor: a degenerate zero creeps on toward
            # the true zero until its Jacobian turns singular or fails DET_FLOOR;
            # it starts from the values and Jacobians the search ended with
            polish = damped_newton(evaluate, search.x[hits], tol=0.0, max_iter=MAX_NEWTON,
                                   tries=1, start=(search.gx[hits], search.jac[hits]))
            bad = polish.x[(polish.status == SINGULAR) & U.contains(polish.x)]
            if bad.size:
                raise DegenerateZeroError(f"zero at {bad[0]} has cond(Dg) > {COND_LIMIT:.0e}")
            kept = _cluster(polish.x)
            kept = kept[U.contains(polish.x[kept])]
            zeros, dets = polish.x[kept], np.linalg.det(polish.jac[kept])
    small = np.abs(dets) < DET_FLOOR
    if np.any(small):
        z = zeros[int(np.where(small)[0][0])]
        raise DegenerateZeroError(
            f"zero at {z} has |det Dg| = {np.abs(dets).min():.3e} < {DET_FLOOR}"
        )
    signs = np.sign(dets).astype(int)
    value = int(signs.sum())
    if d == 1:
        # the samples are [lo, hi]: the degree on an interval is read off its ends
        g_lo, g_hi = bvals[:, 0]
        edge = int(np.sign(g_hi) - np.sign(g_lo)) // 2
        if value != edge:
            raise OracleFailureError(
                f"zero sum {value} contradicts the endpoint degree {edge}: "
                f"g(lo) = {g_lo:.6e}, g(hi) = {g_hi:.6e}"
            )
    return DegreeReport(value=value, zeros=zeros, signs=signs,
                        dets=dets, boundary_min=boundary_min, delta=delta,
                        cells=len(cells), starts=int(live.sum()))


def _cluster(points: np.ndarray) -> np.ndarray:
    """Greedy clustering with radius CLUSTER_RADIUS; deterministic order.

    In lexicographic order, each unlabelled point founds a cluster of the
    unlabelled points within the radius; returns the founders' row indices
    into points, in that order, so a caller keeps what it holds at them.
    """
    order = np.lexsort(points.T[::-1])
    pts = points[order]
    label = np.full(len(pts), -1)
    for i in range(len(pts)):
        if label[i] < 0:
            near = np.linalg.norm(pts - pts[i], axis=1) <= CLUSTER_RADIUS
            label[near & (label < 0)] = i
    return order[np.unique(label)]


def winding_number_2d(g, U: Region) -> int:
    """Winding number of a planar field along the boundary loop of U.

    Accumulates the argument increment of g between consecutive boundary
    samples, doubling the sample count from WINDING_SAMPLES until every
    step turns by less than pi/2.  Raises OracleFailureError beyond 2^20
    samples and InadmissibleRegionError if |g| dips below
    BOUNDARY_DELTA * (1 + max |g|) on the loop.
    Independent of the Newton-based degree computation.
    """
    if U.dim != 2:
        raise InvalidInputError("winding numbers need d = 2")
    m = WINDING_SAMPLES
    while True:
        samples = U.boundary_samples(m)
        vals = np.asarray(g(samples), dtype=float)
        _boundary_screen(vals, samples)
        ang = np.arctan2(vals[:, 1], vals[:, 0])
        ang = np.append(ang, ang[0])
        step = np.diff(ang)
        step = (step + np.pi) % (2.0 * np.pi) - np.pi
        if np.max(np.abs(step)) < 0.5 * np.pi:
            total = float(np.sum(step)) / (2.0 * np.pi)
            w = int(np.round(total))
            if abs(total - w) > 0.1:
                raise OracleFailureError(
                    f"winding accumulation did not close up: {total}"
                )
            return w
        m *= 2
        if m > WINDING_MAX_SAMPLES:
            raise OracleFailureError(
                f"winding refinement exceeded {WINDING_MAX_SAMPLES} samples"
            )


def averaged_map(A_hat, F_hat, DF_hat):
    """The averaged map g(x) = x + A_hat^{-1} F_hat(x) with its evaluator.

    Returns (g, evaluate): g is vectorized over x, and evaluate maps (k, d)
    points to (g, I + A_hat^{-1} DF_hat), DF_hat(x) being the (..., d, d)
    Jacobian of F_hat.  The zeros of g are those of A_hat x + F_hat(x).
    Raises SingularResolventError when A_hat is too ill conditioned to
    invert.
    """
    A = np.asarray(A_hat, dtype=float)
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularResolventError(
            f"averaged generator is numerically singular (cond = {cond:.3e})"
        )

    def g(x):
        x = np.asarray(x, dtype=float)
        fx = np.asarray(F_hat(x), dtype=float)
        return x + np.linalg.solve(A, fx.reshape(-1, fx.shape[-1]).T).T.reshape(fx.shape)

    def evaluate(X):
        return g(X), np.eye(len(A)) + np.linalg.solve(A, DF_hat(X))

    return g, evaluate
