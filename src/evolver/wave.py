"""Galerkin sections of a damped wave equation with periodic coefficients.

The scalar model is

    u_tt + beta(t) u_t + A u + f(t, u) = 0,   u(0) = u(ell) = 0,

truncated to the first k Dirichlet sine modes of A = -d^2/dx^2 on (0, ell)
(eigenvalues lam_i = (i pi / ell)^2).  In mode coordinates z = (a, b) the
first-order form has the block family

    A(t) = [[0, I], [-Lam, -beta(t) I]],

which is dissipative in the shifted energy inner product

    <(u1, v1), (u2, v2)>_eta = (u1, u2)_{1/2} + (v1 + eta u1, v2 + eta u2)_0

for suitable eta in (0, 1].  The nonlinearity enters the velocity slot,
F(t, (u, v)) = (0, -N_f(t, u)), with N_f projected onto the modes by
sine collocation at 4k interior nodes (exact on the resolved modes).

build_wave_model assembles a WaveModel once: it selects eta, builds the
one generator family with the eta metric G as family.metric, and sets up
the collocation.  Everything else reads that model: select_eta computes
the family's decay rates in G, nonlinear_field lifts f, and
energy_residual audits the energy balance with the model's own forcing.
The module also checks the eigenmode invariance of the evolution system,
runs linearized nondegeneracy diagnostics, and locates T-periodic states
by shooting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .averaging import average_generator, monodromy, unit_eigenvalue_gap
from .errors import ConfigError, InvalidInputError
from .evolsys import GeneratorFamily, affine_family, build_evolution, cell_tags
from .mild import (
    DEFAULT_GRID,
    FixedPointResult,
    NonlinearField,
    Trajectory,
    fixed_point,
    period_map,
)
from .semigroup import dissipativity_rate, metric_norm

MAX_MODES = 64


def eta_metric_matrix(eigs, eta: float) -> np.ndarray:
    """G with z^T G z = sum_i lam_i a_i^2 + sum_i (b_i + eta a_i)^2."""
    lam = np.asarray(eigs, dtype=float)
    eye = np.eye(len(lam))
    return np.block([[np.diag(lam + eta ** 2), eta * eye], [eta * eye, eye]])


@dataclass(frozen=True)
class WaveModel:
    """A k-mode Galerkin section of the damped wave problem."""

    ell: float
    k: int
    eigs: np.ndarray
    beta: Callable[[float], float]
    T: float
    f: Callable | None
    f_inf: float
    lipschitz: float
    beta0: float
    gamma: float
    eta: float
    family: GeneratorFamily
    colloc_matrix: np.ndarray
    colloc_weight: float
    f_s: Callable | None = None

    @property
    def dim(self) -> int:
        return 2 * self.k


@dataclass(frozen=True)
class EtaSelection:
    """Result of the damping-shift optimization."""

    eta: float
    rate_analytic: float
    rate_numeric: float


def _beta_at(beta, t) -> np.ndarray:
    """beta at the times t, shaped like t; a constant beta may return a scalar."""
    vals = np.asarray(beta(t), dtype=float)
    if vals.shape not in ((), np.shape(t)):
        raise InvalidInputError(
            f"beta returned shape {vals.shape} for times of shape {np.shape(t)}"
        )
    return np.broadcast_to(vals, np.shape(t))


def _block_generator(eigs, beta):
    """A(t) = [[0, I], [-Lam, -beta(t) I]], batched over t."""
    lam = np.asarray(eigs, dtype=float)
    k = len(lam)
    eye = np.eye(k)
    base = np.zeros((2 * k, 2 * k))
    base[:k, k:] = eye
    base[k:, :k] = -np.diag(lam)

    def A(t):
        damp = _beta_at(beta, t)[..., None, None] * eye
        out = np.broadcast_to(base, damp.shape[:-2] + base.shape).copy()
        out[..., k:, k:] = -damp
        return out

    return A


def _mode_eigs(ell: float, k: int) -> np.ndarray:
    """Stiffness eigenvalues (i pi / ell)^2 of the first k sine modes."""
    return (np.arange(1, k + 1) * np.pi / ell) ** 2


def build_wave_model(ell: float, k: int, beta, T: float, f=None,
                     f_inf: float = 0.0, lipschitz: float = 0.0,
                     f_s=None) -> WaveModel:
    """Assemble the k-mode model: eta metric, generator family, collocation.

    beta: callable t -> damping coefficient, must stay positive on [0, T];
    it broadcasts over an array of times (a constant may return a scalar)
    f: callable (t, s) -> scalar nonlinearity, broadcasting over arrays s
    f_inf: asymptotic slope of f; must keep distance > 1e-6 from both
    {lam_i} and {-lam_i}, else the linearized problem can be resonant
    lipschitz: Lipschitz constant of f in s, carried to the lifted field
    f_s: callable (t, s) -> df/ds, broadcasting like f; required with f,
    since the lifted field carries its exact Jacobian

    beta is screened for positivity on 2049 uniform nodes of [0, T], which
    also give beta0 = min beta and gamma = max(beta + 1) / sqrt(lam_1).
    eta maximizes the analytic rate (see select_eta) and is kept as
    model.eta; the eta metric G is kept only as family.metric.
    """
    if not (np.isfinite(ell) and ell > 0):
        raise InvalidInputError("domain length ell must be positive")
    if k < 1 or k > MAX_MODES:
        raise InvalidInputError(f"mode count k must lie in [1, {MAX_MODES}]")
    if not (np.isfinite(T) and T > 0):
        raise InvalidInputError("period T must be positive")
    if f is not None and f_s is None:
        raise InvalidInputError("a nonlinearity f needs its derivative f_s")
    eigs = _mode_eigs(ell, k)

    beta_vals = _beta_at(beta, np.linspace(0.0, T, 2049))
    if not np.all(np.isfinite(beta_vals)):
        raise InvalidInputError("damping beta produced non-finite values")
    beta0 = float(np.min(beta_vals))
    if beta0 <= 0.0:
        raise InvalidInputError(
            f"damping must stay positive: min beta = {beta0} on the sampled grid"
        )
    gamma = float(np.max(beta_vals + 1.0) / np.sqrt(eigs[0]))

    dist = min(float(np.min(np.abs(f_inf - eigs))),
               float(np.min(np.abs(f_inf + eigs))))
    if dist <= 1e-6:
        raise InvalidInputError(
            f"asymptotic slope f_inf = {f_inf} is within 1e-6 of the spectrum"
        )

    # the rate's two lines eta/2 and beta0 - eta (1 + gamma^2/2) cross here
    eta = min(1.0, beta0 / (1.5 + gamma ** 2 / 2.0))
    if not (np.isfinite(eta) and eta > 0):
        raise ConfigError(f"no admissible damping shift: beta0 = {beta0}")
    family = GeneratorFamily(dim=2 * k, A=_block_generator(eigs, beta), T=T,
                             metric=eta_metric_matrix(eigs, eta))

    M = 4 * k
    Phi = np.sqrt(2.0 / ell) * np.sin(
        np.outer(np.arange(1, M + 1), np.arange(1, k + 1)) * np.pi / (M + 1)
    )
    return WaveModel(
        ell=float(ell), k=int(k), eigs=eigs, beta=beta, T=float(T), f=f,
        f_inf=float(f_inf), lipschitz=float(lipschitz), beta0=beta0,
        gamma=gamma, eta=float(eta), family=family, colloc_matrix=Phi,
        colloc_weight=ell / (M + 1), f_s=f_s,
    )


def select_eta(model: WaveModel) -> EtaSelection:
    """The model's damping shift eta and its two decay rates in the eta metric.

    The analytic rate min(eta/2, beta0 - eta - eta gamma^2/2) is the
    minimum of a rising and a falling line, so its maximum over (0, 1] is
    at eta = min(1, beta0 / (3/2 + gamma^2/2)), in closed form; the model
    is built in that metric.  The numeric rate, the least dissipativity
    rate of the family's generators at 257 uniform nodes of [0, T], is
    computed here.  It is authoritative; the analytic one is its certified
    lower bound.
    """
    eta = model.eta
    rate = min(eta / 2.0, model.beta0 - eta - eta * model.gamma ** 2 / 2.0)
    gens = model.family.stack(np.linspace(0.0, model.family.T, 257))
    rate_numeric = float(np.min(dissipativity_rate(gens, model.family.metric)))
    return EtaSelection(eta=eta, rate_analytic=float(rate), rate_numeric=rate_numeric)


def project_nonlinearity(model: WaveModel, t, a):
    """Mode coefficients of x -> f(t, u(x)) for u = sum a_i phi_i.

    Collocation at the 4k sine nodes; exact for integrands in the span
    of the resolved modes.  Batched over leading axes of a.
    """
    if model.f is None:
        raise InvalidInputError("model has no nonlinearity")
    a = np.asarray(a, dtype=float)
    u_vals = a @ model.colloc_matrix.T
    f_vals = np.asarray(model.f(t, u_vals), dtype=float)
    return model.colloc_weight * (f_vals @ model.colloc_matrix)


def nonlinear_field(model: WaveModel) -> NonlinearField:
    """The state-space lift F(t, (a, b)) = (0, -N_f(t, a)) of the nonlinearity.

    N_f(t, a) = w C^T f(t, C a) for the collocation matrix C and weight w,
    so the field's Jacobian is -w C^T diag(f_s(t, C a)) C in the velocity
    rows and position columns, and zero elsewhere.
    """
    k = model.k
    C, w = model.colloc_matrix, model.colloc_weight
    # row m of CC holds -w C[m, i] C[m, j] over (i, j): one product with the
    # slopes at all nodes gives every -w C^T diag(f_s) C
    CC = (-w * C[:, :, None] * C[:, None, :]).reshape(len(C), k * k)

    def F(t, z):
        z = np.asarray(z, dtype=float)
        c = project_nonlinearity(model, t, z[..., :k])
        out = np.empty(c.shape[:-1] + z.shape[-1:])
        out[..., :k] = 0.0
        np.negative(c, out=out[..., k:])
        return out

    def jacobian(t, z):
        u = np.asarray(z, dtype=float)[..., :k] @ C.T
        fs = np.asarray(model.f_s(t, u), dtype=float)
        # t broadcasts as it does in F, also when f_s is free of t and s
        shape = np.broadcast_shapes(np.shape(t), fs.shape, u.shape)
        out = np.zeros(shape[:-1] + (2 * k, 2 * k))
        slopes = np.broadcast_to(fs, shape).reshape(-1, len(C))
        out[..., k:, :k] = (slopes @ CC).reshape(shape[:-1] + (k, k))
        return out

    # |N_f(a) - N_f(b)| <= L w |C|_2^2 |a - b| for N_f(a) = w C^T f(t, C a)
    lip = model.lipschitz * w * np.linalg.norm(C, 2) ** 2
    return NonlinearField(F=F, lipschitz=float(lip), jacobian=jacobian)


@dataclass
class EnergyReport:
    """Finite-difference audit of the energy balance along a trajectory.

    energy_residual[i] compares d/dt (|u|_{1/2}^2 + |v|_0^2)/2 with
    -beta(t) |v|_0^2 + (f, v)_0 at interior nodes; position_residual
    audits d/dt |u|_0^2 / 2 = (u, v)_0.
    """

    times: np.ndarray
    energy_residual: np.ndarray
    position_residual: np.ndarray

    @property
    def max_energy_residual(self) -> float:
        return float(np.max(np.abs(self.energy_residual)))

    @property
    def max_position_residual(self) -> float:
        return float(np.max(np.abs(self.position_residual)))


def energy_residual(traj: Trajectory, model: WaveModel) -> EnergyReport:
    """Check the energy identity on a computed trajectory of the model.

    The forcing (f, v)_0 is the velocity slot of the model's own field,
    -project_nonlinearity along the path, and zero when model.f is None.
    Central differences need at least 3 nodes.  The residual scales like
    O(grid step^2), the order of the central differences and of the
    trapezoid sweep, plus the frozen-coefficient error of the evolution
    build, which is O(h^ORDER) in its step h.
    """
    z = np.asarray(traj.states, dtype=float)
    if z.ndim != 2 or z.shape[1] != model.dim:
        raise InvalidInputError("trajectory must be a single path of 2k states")
    if len(z) < 3:
        raise InvalidInputError("energy audit needs a path of at least 3 nodes")
    k = model.k
    a = z[:, :k]
    b = z[:, k:]
    times = traj.times
    h = times[1] - times[0]
    lam = model.eigs
    E = 0.5 * ((a ** 2) @ lam + np.sum(b ** 2, axis=1))
    P = 0.5 * np.sum(a ** 2, axis=1)
    dE = (E[2:] - E[:-2]) / (2.0 * h)
    dP = (P[2:] - P[:-2]) / (2.0 * h)
    beta_vals = _beta_at(model.beta, times[1:-1])
    rhs = -beta_vals * np.sum(b[1:-1] ** 2, axis=1)
    if model.f is not None:
        forcing = -project_nonlinearity(model, times[:, None], a)
        rhs = rhs + np.sum(forcing[1:-1] * b[1:-1], axis=1)
    pos_rhs = np.sum(a[1:-1] * b[1:-1], axis=1)
    return EnergyReport(
        times=times[1:-1],
        energy_residual=dE - rhs,
        position_residual=dP - pos_rhs,
    )


def _embed(z: np.ndarray, k_small: int, k_big: int) -> np.ndarray:
    """Zero-pad (..., 2 k_small) section states into (..., 2 k_big)."""
    out = np.zeros(z.shape[:-1] + (2 * k_big,))
    out[..., :k_small] = z[..., :k_small]
    out[..., k_big:k_big + k_small] = z[..., k_small:]
    return out


def spectral_invariance_gap(model: WaveModel, k: int, k_big: int,
                            pairs: Sequence[tuple[float, float]], n: int = 256,
                            coupling=None) -> float:
    """How far the k_big-mode section fails to restrict to the k-mode one.

    Both sections take the model's ell, beta and T (not its k).  Builds
    both evolution systems once at subdivision n, takes R(t, s) at all
    pairs from one operators call per system, and returns the max over
    the (t, s) pairs and the 2k basis states e of
    || R_k_big(t, s) embed(e) - embed(R_k(t, s) e) ||.
    pairs must be nonempty; the result is exactly the max of the
    single-pair gaps.  For the diagonal damped wave family the modes
    never couple, so the gap is roundoff-level; a nonzero k_big x k_big
    coupling matrix C, whose leading block -C[:m, :m] shifts the damping
    block of the m-mode section through affine_family, destroys the
    invariance and serves as a negative control.
    """
    if not 1 <= k < k_big <= MAX_MODES:
        raise InvalidInputError(f"need 1 <= k < k' <= {MAX_MODES}")
    pairs = list(pairs)
    if not pairs:
        raise InvalidInputError("need at least one (t, s) pair")

    def system(m):
        family = GeneratorFamily(dim=2 * m, T=model.T,
                                 A=_block_generator(_mode_eigs(model.ell, m), model.beta))
        if coupling is not None:
            shift = np.pad(-np.asarray(coupling, dtype=float)[:m, :m], ((m, 0), (m, 0)))
            family = affine_family(family, B=lambda t: shift)
        return build_evolution(family, n)

    t, s = np.array(pairs, dtype=float).reshape(-1, 2).T
    # row e of R(t, s)^T is R(t, s) e, the image of basis state e
    small = system(k).operators(t, s).swapaxes(-1, -2)
    big = _embed(np.eye(2 * k), k, k_big) @ system(k_big).operators(t, s).swapaxes(-1, -2)
    diff = np.linalg.norm(big - _embed(small, k, k_big), axis=-1)
    return float(np.max(diff))


@dataclass
class NondegeneracyRow:
    lam: float
    unit_gap: float
    det_defect: float
    det_bound: float


@dataclass
class NondegeneracyReport:
    """Linearized-at-infinity diagnostics for the periodic problem.

    kernel_sigma_min is the smallest singular value of A_hat + F_inf_hat
    (zero means the averaged linearization has a kernel); each row holds
    the distance of the monodromy spectrum from 1 at one lam, and how far
    log |det M| is from Liouville's lam h sum_j tr A(t_j + h/2), which the
    frozen product satisfies exactly since tr F_inf = 0, with the bound
    det_bound that distance is held to.
    """

    f_inf: float
    kernel_sigma_min: float
    kernel_ok: bool
    rows: list

    @property
    def verdict(self) -> bool:
        return self.kernel_ok and all(r.unit_gap > 1e-8 and r.det_defect <= r.det_bound
                                      for r in self.rows)


def linear_nondegeneracy(model: WaveModel, lambdas: Sequence[float],
                         f_inf: float | None = None,
                         n: int = 1024) -> NondegeneracyReport:
    """Monodromy and averaged-kernel checks for the linearization at infinity.

    The lift of the asymptotic slope is F_inf(u, v) = (0, -f_inf u).
    A smallest singular value or unit-eigenvalue gap at or below 1e-8 is
    a detected resonance, and a det_defect above the row's det_bound
    1e-8 (1 + lam |S|), with S = h sum_j tr A(t_j + h/2) over the cell
    tags the product freezes at, a monodromy lost to roundoff; either
    yields a failing verdict, not an exception.
    """
    fi = model.f_inf if f_inf is None else float(f_inf)
    fam, k = model.family, model.k
    B = np.zeros((2 * k, 2 * k))
    B[k:, :k] = -fi * np.eye(k)
    sig = np.linalg.svd(average_generator(fam) + B, compute_uv=False)
    kernel_sigma_min = float(sig[-1])
    kernel_ok = kernel_sigma_min > 1e-8
    traces = np.trace(fam.stack(cell_tags(fam.T, n)), axis1=1, axis2=2)
    S = fam.T / n * float(np.sum(traces))
    rows = []
    for lam in lambdas:
        M = monodromy(fam, lambda t: B, float(lam), n=n)
        gap = unit_eigenvalue_gap(M)
        det_defect = float(abs(np.linalg.slogdet(M)[1] - lam * S))
        rows.append(NondegeneracyRow(lam=float(lam), unit_gap=gap, det_defect=det_defect,
                                     det_bound=1e-8 * (1.0 + lam * abs(S))))
    return NondegeneracyReport(f_inf=fi, kernel_sigma_min=kernel_sigma_min,
                               kernel_ok=kernel_ok, rows=rows)


@dataclass
class WavePeriodicResult:
    """A located T-periodic state with its trajectory and eta-norm residual."""

    trajectory: Trajectory
    fixed_point: FixedPointResult
    residual_eta: float


def find_periodic_wave(model: WaveModel, lam: float = 1.0, grid: int = DEFAULT_GRID,
                       fp_tol: float = 1e-10) -> WavePeriodicResult:
    """Locate a T-periodic state of z' = lam (A(t) z + F(t, z)) by shooting.

    Newton on the period map Phi_T^lam at subdivision grid from the
    origin; the reported residual is ||z(T) - z(0)|| in the eta metric,
    on the path of the Newton solve's last evaluation (no further solve).
    """
    if model.f is None:
        raise InvalidInputError("model has no nonlinearity to solve with")
    phi = period_map(model.family, nonlinear_field(model), lam, grid)
    fp = fixed_point(phi, np.zeros(model.dim), tol=fp_tol)
    traj = fp.trajectory
    residual = metric_norm(traj.final - fp.x, model.family.metric)
    return WavePeriodicResult(trajectory=traj, fixed_point=fp,
                              residual_eta=residual)
