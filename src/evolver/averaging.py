"""Averaging of periodic families and the small-period degree principle.

For a T-periodic pair (A(t), F(t, x)) the averaged pair is

    A_hat = (1/T) integral_0^T A(t) dt,
    F_hat(x) = (1/T) integral_0^T F(t, x) dt.

Zeros of A_hat x + F_hat(x) organize the T-periodic states of
u' = lam (A(t) u + F(t, u)) for small lam > 0: fixed points of the period
map branch from them, and the degree of I - Phi_T^lam on a region U
agrees with the degree of the averaged field once lam is below an
empirically detected threshold.  This module tabulates both effects and
computes monodromy matrices for linearized nondegeneracy checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .degree import DegreeReport, Region, averaged_map, brouwer_degree
from .errors import (
    EvolverError,
    InadmissibleRegionError,
    InvalidInputError,
    OracleFailureError,
    ResourceLimitError,
)
from .evolsys import MAX_SUBDIVISION, GeneratorFamily, affine_family, build_evolution
from .mild import field_jacobian, fixed_point, period_map

QUAD_TOL = 1e-10    # Simpson doubling stops when two levels agree this closely
QUAD_START = 16     # intervals of the first Simpson level
DEGREE_GRID = 8     # start lattice per axis of averaging_degree_check's degrees
DEGREE_BOUNDARY = 128   # boundary samples of those degrees
RUNG_TOL = 1e-10    # each branching rung solves ||Phi_T^lam(x) - x|| to this


def _simpson_weights(m: int) -> np.ndarray:
    """Composite Simpson weights [1, 4, 2, ..., 2, 4, 1] for m intervals."""
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _simpson_doubling(sample, T: float):
    """Composite Simpson with interval doubling until two levels agree to
    QUAD_TOL, starting from QUAD_START intervals.

    sample(ts) -> stacked values at the nodes ts; returns (mean, m_used).
    No level finer than MAX_SUBDIVISION intervals is sampled, so a
    non-convergent integrand costs under 2 * MAX_SUBDIVISION nodes before
    OracleFailureError.
    """
    def level(m):
        ts = np.linspace(0.0, T, m + 1)
        vals = sample(ts)
        w = _simpson_weights(m).reshape((m + 1,) + (1,) * (vals.ndim - 1))
        # composite Simpson divided by T: the mean is sum(w v) / (3 m)
        return np.sum(w * vals, axis=0) / (3.0 * m)

    m = QUAD_START
    prev = level(m)
    while m < MAX_SUBDIVISION:
        m *= 2
        cur = level(m)
        if float(np.max(np.abs(cur - prev))) <= QUAD_TOL:
            return cur, m
        prev = cur
    raise OracleFailureError(
        f"Simpson refinement did not reach {QUAD_TOL:.1e} by m = {m}"
    )


def average_generator(family: GeneratorFamily) -> np.ndarray:
    """Time average (1/T) integral of A(t), adaptive Simpson to QUAD_TOL."""
    mean, _ = _simpson_doubling(family.stack, family.T)
    return mean


@dataclass(frozen=True)
class AveragedField:
    """Averaged pair with a frozen quadrature rule for fast re-evaluation.

    The Simpson node count is fixed at construction (doubled until two
    levels agree at the probe states), so F_hat is pure and deterministic.
    DF_hat is F_hat's exact Jacobian, the mean of F.jacobian on the same
    nodes and weights.  F_hat has F's Lipschitz bound (inf for none):
    Simpson weights are positive.
    """

    A_hat: np.ndarray
    F_hat: Callable
    DF_hat: Callable
    T: float
    nodes: int
    lipschitz: float

    @property
    def map_lipschitz(self) -> float:
        """Lipschitz bound 1 + |A_hat^{-1}|_2 lipschitz of averaged_map."""
        return float(1.0 + self.lipschitz / np.linalg.svd(self.A_hat)[1][-1])


def averaged_pair(family: GeneratorFamily, F, probes=None) -> AveragedField:
    """Build the averaged pair (A_hat, F_hat) and DF_hat for a family and
    field; DF_hat raises InvalidInputError when F has no jacobian."""
    A_hat = average_generator(family)
    if probes is None:
        probes = np.zeros((1, family.dim))
    probes = np.atleast_2d(np.asarray(probes, dtype=float))

    def sample(fn, ts, x, tail=()):
        # fn at every node ts[i] and state x, one broadcast call:
        # (len(ts),) + x.shape + tail
        vals = np.asarray(fn(ts.reshape((-1,) + (1,) * x.ndim), x[None, ...]), dtype=float)
        if vals.shape != (len(ts),) + x.shape + tail:
            raise InvalidInputError(f"field returned shape {vals.shape}, "
                                    f"expected {(len(ts),) + x.shape + tail}")
        return vals

    _, m = _simpson_doubling(lambda ts: sample(F, ts, probes), family.T)
    ts = np.linspace(0.0, family.T, m + 1)
    w = _simpson_weights(m) / (3.0 * m)

    def mean(fn, x, tail=()):
        # chunk batches so the (nodes, batch, d) + tail intermediate stays
        # small; an empty batch is its own (empty) mean
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, x.shape[-1])
        step = max(1, 2_000_000 // (len(ts) * x.shape[-1] * int(np.prod(tail))))
        parts = [np.tensordot(w, sample(fn, ts, flat[i:i + step], tail), axes=(0, 0))
                 for i in range(0, len(flat), step)]
        return np.concatenate(parts or [flat]).reshape(x.shape + tail)

    def F_hat(x):
        return mean(F, x)

    def DF_hat(x):
        return mean(field_jacobian(F), x, (family.dim,))

    return AveragedField(A_hat=A_hat, F_hat=F_hat, DF_hat=DF_hat, T=family.T, nodes=m,
                         lipschitz=getattr(F, "lipschitz", np.inf))


@dataclass
class BranchingRow:
    lam: float
    ok: bool
    x: np.ndarray | None = None
    defect: float = float("nan")
    residual: float = float("nan")
    iterations: int = 0
    error: str = ""


@dataclass
class BranchingReport:
    """Fixed points of the period map along a descending lam ladder."""

    rows: list
    averaged: AveragedField

    @property
    def defects(self) -> list[float]:
        return [r.defect for r in self.rows if r.ok]


def branching_experiment(family: GeneratorFamily, F, lambdas: Sequence[float],
                         U: Region, grid: int = 1024) -> BranchingReport:
    """Track the period-map fixed point along the ladder lambdas, in the
    given order (the branching experiment requires it descending), and
    measure its averaged-field defect ||A_hat x_lam + F_hat(x_lam)||.

    The defect decays like O(lam): fixed points accumulate on the zero
    of the averaged field.  Each rung solves ||Phi_T^lam(x) - x|| to
    RUNG_TOL on the period map at subdivision grid; a failed solve marks
    its row and the sweep continues (warm starts skip the failed rung); a
    ResourceLimitError ends the sweep.
    """
    lams = [float(l) for l in lambdas]
    if any(l <= 0 for l in lams):
        raise InvalidInputError("lambda values must be positive")
    avg = averaged_pair(family, F, probes=U.midpoint)
    rows: list[BranchingRow] = []
    x_start = U.midpoint
    for lam in lams:
        try:
            fp = fixed_point(period_map(family, F, lam, grid), x_start, tol=RUNG_TOL)
        except ResourceLimitError:
            raise
        except EvolverError as exc:
            rows.append(BranchingRow(lam=lam, ok=False, error=str(exc)))
            continue
        defect = float(np.linalg.norm(avg.A_hat @ fp.x + avg.F_hat(fp.x)))
        rows.append(BranchingRow(lam=lam, ok=True, x=fp.x, defect=defect,
                                 residual=fp.residual, iterations=fp.iterations))
        x_start = fp.x
    return BranchingReport(rows=rows, averaged=avg)


def monodromy(family: GeneratorFamily, F_inf, lam: float, n: int = 1024) -> np.ndarray:
    """Fundamental matrix over [0, T] of z' = lam (A(t) + F_inf(t)) z.

    F_inf: map t -> matrix (the linearization of the field at infinity),
    broadcasting over time like A or constant.  The family
    lam (A + F_inf) is built with the frozen-coefficient product at
    subdivision n.
    """
    if lam < 0:
        raise InvalidInputError("lam must be nonnegative")
    system = build_evolution(affine_family(family, lam, F_inf), n)
    return system.prefix[n].copy()


def unit_eigenvalue_gap(M) -> float:
    """min |eig(M) - 1|: distance of the spectrum from the periodicity eigenvalue."""
    eigs = np.linalg.eigvals(np.asarray(M, dtype=float))
    return float(np.min(np.abs(eigs - 1.0)))


@dataclass
class AveragingRow:
    lam: float
    boundary_ok: bool
    boundary_min: float
    degree: int | None = None
    agrees: bool | None = None
    error: str = ""


@dataclass
class AveragingDegreeReport:
    """Degree of I - Phi_T^lam against the averaged degree, per lam.

    averaged is the pair whose degree d0 is; reference = (-1)^d sign det
    A_hat d0 = deg(-(A_hat . + F_hat), U) is what every rung is compared
    against.
    """

    d0: int
    reference: int
    d0_report: DegreeReport
    rows: list
    lambda0: float | None
    averaged: AveragedField

    @property
    def verdict(self) -> bool:
        if self.lambda0 is None:
            return False
        return all(
            r.degree == self.reference for r in self.rows
            if r.boundary_ok and r.lam <= self.lambda0 + 1e-15
        )


def averaging_degree_check(family: GeneratorFamily, F, U: Region,
                           lambdas: Sequence[float],
                           grid: int = 256) -> AveragingDegreeReport:
    """Compare deg(I - Phi_T^lam, U) with the averaged degree along lambdas.

    d0 = deg(x + A_hat^{-1} F_hat(x), U), and the averaging principle's
    degree deg(-(A_hat x + F_hat(x)), U) = (-1)^d sign det A_hat d0 is the
    reference of every rung (the factor is +1 when the eigenvalues of
    A_hat have negative real parts).  For each lam, brouwer_degree
    computes the degree of x - Phi_T(x), both on a DEGREE_GRID lattice with
    DEGREE_BOUNDARY boundary samples.  Newton takes exact Jacobians: d0's
    from averaged_map, each rung's from one PeriodMap.linearize solve per
    trial, so F needs its jacobian.  Both prune Newton starts by the maps'
    Lipschitz bounds (AveragedField.map_lipschitz,
    PeriodMap.gap_lipschitz), sound when F honours F.lipschitz.  A rung
    whose boundary fails its screen (a suspected fixed point of Phi_T on
    the boundary) is recorded with boundary_ok False and the screened
    min |x - Phi_T(x)|, and a rung that fails otherwise keeps boundary_ok
    True, with boundary_min nan and the error text.  The empirical
    threshold lambda0 is the largest sampled lam such that it and every
    smaller sampled lam yield a degree.  Equality with the reference is
    expected for all sampled lam <= lambda0.
    """
    avg = averaged_pair(family, F, probes=U.midpoint)
    g, evaluate = averaged_map(avg.A_hat, avg.F_hat, avg.DF_hat)
    d0_report = brouwer_degree(g, U, grid=DEGREE_GRID, boundary_m=DEGREE_BOUNDARY,
                               lipschitz=avg.map_lipschitz, evaluate=evaluate)
    factor = (-1) ** family.dim * int(np.linalg.slogdet(avg.A_hat)[0])
    reference = factor * d0_report.value
    rows: list[AveragingRow] = []
    for lam in map(float, lambdas):
        phi = period_map(family, F, lam, grid)
        lip, slack = phi.gap_lipschitz()

        def evaluate(X):
            traj, J = phi.linearize(X)
            return X - traj.final, np.eye(X.shape[-1]) - J

        try:
            rep = brouwer_degree(lambda x: x - phi(x).final, U,
                                 grid=DEGREE_GRID, boundary_m=DEGREE_BOUNDARY,
                                 lipschitz=lip, slack=slack, evaluate=evaluate)
        except InadmissibleRegionError as exc:
            rows.append(AveragingRow(lam=lam, boundary_ok=False,
                                     boundary_min=exc.boundary_min,
                                     error="boundary fixed point suspected"))
        except EvolverError as exc:
            rows.append(AveragingRow(lam=lam, boundary_ok=True,
                                     boundary_min=float("nan"), error=str(exc)))
        else:
            rows.append(AveragingRow(lam=lam, boundary_ok=True,
                                     boundary_min=rep.boundary_min, degree=rep.value,
                                     agrees=(rep.value == reference)))
    lambda0 = None
    for row in sorted(rows, key=lambda r: r.lam):
        if not (row.boundary_ok and row.degree is not None):
            break
        lambda0 = row.lam
    return AveragingDegreeReport(d0=d0_report.value, reference=reference,
                                 d0_report=d0_report, rows=rows, lambda0=lambda0,
                                 averaged=avg)
