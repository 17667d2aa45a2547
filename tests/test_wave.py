import numpy as np
import pytest

from evolver import (
    InvalidInputError,
    NonlinearField,
    build_evolution,
    build_wave_model,
    dissipativity_rate,
    energy_residual,
    eta_metric_matrix,
    find_periodic_wave,
    get_model,
    linear_nondegeneracy,
    metric_norm,
    mild_solve,
    nonlinear_field,
    period_map,
    select_eta,
    spectral_invariance_gap,
)
from evolver.averaging import monodromy
from evolver.wave import MAX_MODES, project_nonlinearity

from oracles import fd_eval, pencil_extremes


def test_build_validation():
    ok = dict(ell=np.pi, k=1, beta=lambda t: 1.0, T=2.0 * np.pi)
    with pytest.raises(InvalidInputError):
        build_wave_model(**{**ok, "ell": 0.0})
    with pytest.raises(InvalidInputError):
        build_wave_model(**{**ok, "k": 0})
    with pytest.raises(InvalidInputError):
        build_wave_model(**{**ok, "k": MAX_MODES + 1})
    with pytest.raises(InvalidInputError):
        build_wave_model(**{**ok, "T": -1.0})
    with pytest.raises(InvalidInputError):
        build_wave_model(**{**ok, "beta": lambda t: np.cos(t)})  # dips below zero


def test_build_rejects_resonant_f_inf():
    # eigenvalue lam_1 = 1 on (0, pi): f_inf within 1e-6 of +-1 is refused
    for bad in (1.0, -1.0, 1.0 + 1e-9):
        with pytest.raises(InvalidInputError):
            build_wave_model(np.pi, 1, lambda t: 1.0, 2.0 * np.pi,
                             f=lambda t, u: bad * u, f_inf=bad, lipschitz=abs(bad),
                             f_s=lambda t, u: np.full(np.shape(u), bad))


def test_eigenvalues_frozen():
    model = build_wave_model(np.pi, 3, lambda t: 1.0, 2.0 * np.pi)
    assert np.allclose(model.eigs, [1.0, 4.0, 9.0], atol=1e-12)
    model2 = build_wave_model(2.0, 2, lambda t: 1.0, 1.0)
    assert np.allclose(model2.eigs, [(np.pi / 2.0) ** 2, np.pi ** 2])
    assert model.dim == 6


def test_eta_metric_matrix_frozen():
    G = eta_metric_matrix([1.0], 0.5)
    assert np.allclose(G, [[1.25, 0.5], [0.5, 1.0]], atol=1e-14)


@pytest.mark.parametrize("ell, k", [(np.pi, 1), (np.pi, 3), (2.0, 8), (np.pi, MAX_MODES)])
@pytest.mark.parametrize("eta", [0.05, 0.5, 1.0])
def test_eta_metric_constants_match_generalized_eigh(ell, k, eta):
    # c_lo ||z||_E <= ||z||_eta <= c_hi ||z||_E against the energy norm
    # G0 = diag(lam, 1): mode i contributes the 2 x 2 pencil with trace
    # 2 + eta^2 / lam_i and determinant 1, so the extremes come from lam_1
    # and c_lo = 1 / c_hi
    eigs = (np.arange(1, k + 1) * np.pi / ell) ** 2
    G = eta_metric_matrix(eigs, eta)
    lo, hi = pencil_extremes(G, np.diag(np.concatenate([eigs, np.ones(k)])))
    tr = 2.0 + eta ** 2 / eigs[0]
    c_hi2 = 0.5 * (tr + np.sqrt(tr * tr - 4.0))
    assert hi == pytest.approx(c_hi2, rel=1e-14)
    assert lo == pytest.approx(1.0 / c_hi2, rel=1e-14)


def test_eta_inner_first_mode():
    # |(a, b)|_eta^2 = lam_1 a^2 + (b + eta a)^2 = 1 + eta^2 at (1, 0)
    model = build_wave_model(np.pi, 1, lambda t: 1.0, 2.0 * np.pi)
    eta = model.eta
    e1 = np.array([1.0, 0.0])
    assert metric_norm(e1, model.family.metric) == pytest.approx(np.sqrt(1.0 + eta ** 2))


def test_select_eta_closed_form_k1_constant_damping():
    # beta0 = 1, gamma = max(beta + 1)/sqrt(lam_1) = 2:
    # optimum of min(eta/2, beta0 - eta - eta gamma^2/2) is eta* = 2/7, rate 1/7
    model = build_wave_model(np.pi, 1, lambda t: 1.0, 2.0 * np.pi)
    sel = select_eta(model)
    assert model.gamma == pytest.approx(2.0, abs=1e-12)
    assert sel.eta == pytest.approx(2.0 / 7.0, abs=1e-9)
    assert sel.rate_analytic == pytest.approx(1.0 / 7.0, abs=1e-9)
    assert sel.rate_numeric >= sel.rate_analytic - 1e-9


def test_select_eta_matches_grid_scan():
    model = build_wave_model(np.pi, 2, lambda t: 1.0 + 0.5 * np.cos(t), 2.0 * np.pi)
    sel = select_eta(model)
    b0, g = model.beta0, model.gamma
    etas = np.linspace(1e-5, min(1.0, b0 / (1.0 + g * g / 2.0)) - 1e-5, 20001)
    rates = np.minimum(etas / 2.0, b0 - etas - etas * g * g / 2.0)
    assert sel.rate_analytic >= rates.max() - 1e-7


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("beta", [lambda t: 1.0, lambda t: 1.0 + 0.5 * np.cos(t)],
                         ids=["constant", "cos"])
def test_select_eta_and_omega_match_the_closed_forms(k, beta):
    # recompute eta and both rates, the numeric one the rate omega of the
    # family, from their formulas: beta0, gamma on 2049 nodes, the numeric
    # rate on 257 nodes of [0, T]
    T = 2.0 * np.pi
    model = build_wave_model(np.pi, k, beta, T)
    eigs = (np.arange(1, k + 1) * np.pi / np.pi) ** 2
    b = np.broadcast_to(beta(np.linspace(0.0, T, 2049)), (2049,))
    beta0 = float(np.min(b))
    gamma = float(np.max(b + 1.0) / np.sqrt(eigs[0]))
    eta = min(1.0, beta0 / (1.5 + gamma ** 2 / 2.0))
    ts = np.linspace(0.0, T, 257)
    A = np.zeros((len(ts), 2 * k, 2 * k))
    A[:, :k, k:] = np.eye(k)
    A[:, k:, :k] = -np.diag(eigs)
    A[:, k:, k:] = -(np.broadcast_to(beta(ts), ts.shape)[:, None, None] * np.eye(k))
    rate = float(np.min(dissipativity_rate(A, eta_metric_matrix(eigs, eta))))
    sel = select_eta(model)
    assert (model.beta0, model.gamma) == (beta0, gamma)
    assert sel.eta == eta == model.eta
    assert sel.rate_analytic == min(eta / 2.0, beta0 - eta - eta * gamma ** 2 / 2.0)
    assert sel.rate_numeric == rate
    assert np.array_equal(model.family.metric, eta_metric_matrix(eigs, eta))


def test_energy_residual_takes_the_models_own_forcing():
    # the balance d/dt E = -beta |b|^2 + (f, b) with f the velocity slot of F
    cm = get_model("wave-k3")
    model, k = cm.wave, cm.wave.k
    x0 = np.zeros(model.dim)
    x0[0], x0[k] = 0.5, -0.2
    traj = period_map(cm.family, cm.field, 1.0, 256)(x0)
    rep = energy_residual(traj, model)
    t, z = traj.times, traj.states
    a, b = z[:, :k], z[:, k:]
    h = t[1] - t[0]
    E = 0.5 * ((a ** 2) @ model.eigs + np.sum(b ** 2, axis=1))
    f_path = cm.field(t[:, None], z)[:, k:]
    beta = np.broadcast_to(model.beta(t[1:-1]), t[1:-1].shape)
    rhs = -beta * np.sum(b[1:-1] ** 2, axis=1) + np.sum(f_path[1:-1] * b[1:-1], axis=1)
    assert np.array_equal(rep.energy_residual, (E[2:] - E[:-2]) / (2.0 * h) - rhs)
    assert np.array_equal(rep.times, t[1:-1])
    # central differences need an interior node
    short = period_map(cm.family, cm.field, 1.0, 1)(x0)
    with pytest.raises(InvalidInputError, match="at least 3 nodes"):
        energy_residual(short, model)


def test_collocation_projection_is_exact_on_modes():
    model = build_wave_model(np.pi, 3, lambda t: 1.0, 2.0 * np.pi,
                             f=lambda t, u: u, f_inf=0.5, lipschitz=1.0,
                             f_s=lambda t, u: np.ones(np.shape(u)))
    rng = np.random.default_rng(51)
    a = rng.standard_normal((5, 3))
    assert np.allclose(project_nonlinearity(model, 0.0, a), a, atol=1e-12)


def test_nonlinear_field_lives_in_velocity_slot():
    cm = get_model("wave-k3")
    model = cm.wave
    F = nonlinear_field(model)
    rng = np.random.default_rng(52)
    z = rng.standard_normal(6)
    out = F(0.3, z)
    assert np.allclose(out[:3], 0.0)
    assert np.allclose(out[3:], -project_nonlinearity(model, 0.3, z[:3]), atol=1e-14)


def test_energy_identity_linear_unforced():
    # constant damping: dE/dt = -beta |b|^2 along the linear flow
    model = build_wave_model(np.pi, 1, lambda t: 1.0, 2.0 * np.pi)
    R = build_evolution(model.family, 2048)
    zero = lambda t, z: np.zeros_like(z)
    traj = mild_solve(R, zero, np.array([0.5, 0.0]), grid=2048)
    rep = energy_residual(traj, model)
    assert rep.max_energy_residual < 1e-4
    assert rep.max_position_residual < 1e-4


def test_spectral_invariance_and_coupled_control():
    model = build_wave_model(np.pi, 1, lambda t: 1.0 + 0.5 * np.cos(t), 2.0 * np.pi)
    gap = spectral_invariance_gap(model, 1, 2, [(2.0 * np.pi, 0.0)], n=128)
    assert gap <= 1e-10
    coupled = spectral_invariance_gap(model, 1, 2, [(2.0 * np.pi, 0.0)], n=128,
                                      coupling=0.1 * np.ones((2, 2)))
    assert coupled > 1e-8
    for k, k_big in ((2, 1), (2, 2), (0, 2), (1, MAX_MODES + 1)):
        with pytest.raises(InvalidInputError):
            spectral_invariance_gap(model, k, k_big, [(1.0, 0.0)])


def test_spectral_invariance_pairs():
    model = build_wave_model(np.pi, 3, lambda t: 1.0 + 0.5 * np.cos(t), 2.0 * np.pi)
    C = 0.1 * np.ones((2, 2))
    pairs = [(2.0 * np.pi, 0.0), (3.1, 0.4), (1.0, 1.0), (5.5, 2.25)]
    for coupling in (None, C):
        many = spectral_invariance_gap(model, 1, 2, pairs, n=128, coupling=coupling)
        singles = [spectral_invariance_gap(model, 1, 2, [p], n=128, coupling=coupling)
                   for p in pairs]
        assert many == max(singles)
    # an empty list would report a vacuous 0.0 gap
    with pytest.raises(InvalidInputError):
        spectral_invariance_gap(model, 1, 2, [], n=128)


def test_nondegeneracy_between_eigenvalues():
    model = get_model("wave-k3").wave  # eigenvalues 1, 4, 9
    report = linear_nondegeneracy(model, [0.25, 0.5, 1.0], f_inf=2.5, n=256)
    assert report.kernel_ok
    assert report.kernel_sigma_min > 0.5
    assert all(r.unit_gap > 1e-8 and r.det_defect <= r.det_bound for r in report.rows)
    assert report.verdict


def test_nondegeneracy_detects_resonance():
    # f_inf at -lam_1 puts the averaged block on the kernel
    model = get_model("wave-k3").wave
    report = linear_nondegeneracy(model, [0.5], f_inf=-1.0, n=256)
    assert not report.kernel_ok
    assert report.kernel_sigma_min < 1e-8
    assert not report.verdict


def test_nondegeneracy_fails_monodromies_that_break_liouville():
    # the frozen product keeps det M = exp(lam h sum_j tr A(t_j)) exactly;
    # at f_inf = 1e20 roundoff swamps M while its unit gap still passes
    model = get_model("wave-k3").wave
    for f_inf, ok in ((2.5, True), (1e6, True), (1e20, False)):
        rows = linear_nondegeneracy(model, [0.1, 1.0], f_inf=f_inf, n=512).rows
        assert [r.det_defect <= r.det_bound for r in rows] == [ok, ok]
        assert all(r.unit_gap > 1e-8 for r in rows)
    assert max(r.det_defect for r in rows) > 1e2
    # tr A = -k beta(t) with beta = 1 + 0.5 cos t, whose node sum is n: S = -k T
    B = np.zeros((6, 6))
    B[3:, :3] = -2.5 * np.eye(3)
    M = monodromy(model.family, lambda t: B, 1.0, n=512)
    assert np.log(abs(np.linalg.det(M))) == pytest.approx(-3 * model.family.T, abs=1e-12)


def test_find_periodic_wave_small_residual():
    model = get_model("wave-k3").wave
    result = find_periodic_wave(model, lam=1.0, grid=512)
    assert result.residual_eta <= 1e-6
    assert result.fixed_point.residual <= 1e-10
    z0 = result.trajectory.states[0]
    zT = result.trajectory.states[-1]
    # the eta norm from its definition: sum lam_i a_i^2 + (b_i + eta a_i)^2
    a, b = (zT - z0)[:model.k], (zT - z0)[model.k:]
    eta = model.eta
    ref = np.sqrt(model.eigs @ a ** 2 + np.sum((b + eta * a) ** 2))
    assert result.residual_eta == pytest.approx(ref, rel=1e-12)


def _wave_jacobian_gap(field, lam=1.0):
    # max |exact - central difference| / max |central difference| of DPhi_T
    cm = get_model("wave-k3")
    phi = period_map(cm.family, field, lam, 256)
    X = np.random.default_rng(13).uniform(-0.8, 0.8, size=(2, cm.dim))
    _, J = phi.linearize(X)
    _, ref = fd_eval(lambda rows: phi(rows).final, X, 1e-5)
    return np.abs(J - ref).max() / np.abs(ref).max()


def test_wave_field_jacobian_needs_its_slope_factor():
    # -w C^T diag(f_s(t, C a)) C in the velocity rows; dropping f_s leaves
    # -w C^T C, the Jacobian of f(s) = s, which the period map exposes
    cm = get_model("wave-k3")
    model = cm.wave
    C, w, k = model.colloc_matrix, model.colloc_weight, model.k

    def without_slope(t, z):
        out = np.zeros(np.shape(z)[:-1] + (2 * k, 2 * k))
        out[..., k:, :k] = -w * C.T @ C
        return out

    assert _wave_jacobian_gap(cm.field) <= 1e-6
    mutant = NonlinearField(F=cm.field.F, lipschitz=cm.field.lipschitz, jacobian=without_slope)
    assert _wave_jacobian_gap(mutant) > 1e-2
    # the field's own Jacobian against central differences of the field
    z = np.random.default_rng(14).uniform(-1.0, 1.0, size=(3, 2 * k))
    t = np.array([[0.3], [1.7], [4.0]])
    _, ref = fd_eval(lambda rows: cm.field(np.repeat(t, 2 * model.dim + 1, axis=0), rows), z, 1e-6)
    assert np.allclose(cm.field.jacobian(t, z), ref, rtol=0.0, atol=1e-8)
    # a model with f must be built with f_s
    with pytest.raises(InvalidInputError, match="f_s"):
        build_wave_model(np.pi, 3, lambda t: 1.0, 2.0 * np.pi, f=model.f)


def test_wave_k1_jacobian_is_the_monodromy_to_second_order():
    # f is affine, so DPhi_T is the monodromy of the linearization, up to the
    # trapezoid rule's O(h^2); beta is constant, so R itself is exact
    cm = get_model("wave-k1")
    x = np.array([[0.3, -0.2]])
    B = cm.field.jacobian(0.0, x[0])
    errs = []
    for grid in (256, 512):
        phi = period_map(cm.family, cm.field, 1.0, grid)
        errs.append(np.abs(phi.linearize(x)[1][0]
                           - monodromy(cm.family, lambda t: B, 1.0, n=256)).max())
    assert errs[0] <= 1e-6
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_periodic_wave_newton_converges_quadratically():
    result = find_periodic_wave(get_model("wave-k3").wave, lam=1.0, grid=512)
    h = result.fixed_point.history
    assert len(h) == 4 and h[-1] <= 1e-13
    # each step squares the residual, up to a constant
    assert all(b <= 0.1 * a ** 2 for a, b in zip(h[1:], h[2:]))


def test_find_periodic_wave_affine_matches_linear_oracle():
    # affine forcing: the discrete period map is z -> M z + b, so its fixed
    # point solves (I - M) z = b; probe M and b from the map itself
    model = build_wave_model(
        np.pi, 1, lambda t: 1.0, 2.0 * np.pi,
        f=lambda t, u: 0.2 * u + 0.3 * np.cos(t), f_inf=0.2, lipschitz=0.2,
        f_s=lambda t, u: np.full(np.shape(u), 0.2),
    )
    n = 256
    R = build_evolution(model.family, n)
    F = nonlinear_field(model)
    d = model.dim

    def phi(z):
        return mild_solve(R, F, z, grid=n, tol=1e-13).final

    b = phi(np.zeros(d))
    M = np.stack([phi(np.eye(d)[j]) - b for j in range(d)], axis=-1)
    z_star = np.linalg.solve(np.eye(d) - M, b)
    got = find_periodic_wave(model, lam=1.0, grid=n, fp_tol=1e-11)
    assert np.linalg.norm(got.fixed_point.x - z_star) <= 1e-8
