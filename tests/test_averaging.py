import numpy as np
import pytest
import scipy.integrate

from evolver import (
    GeneratorFamily,
    InvalidInputError,
    NonlinearField,
    OracleFailureError,
    Region,
    average_generator,
    averaged_pair,
    averaging_degree_check,
    branching_experiment,
    brouwer_degree,
    fixed_point,
    get_model,
    monodromy,
    period_map,
    unit_eigenvalue_gap,
)
from evolver.catalog import AVERAGING_LADDER, model_from_config
from evolver.degree import averaged_map

from oracles import fd_pair

# the scalar catalog model u' = lam(-u + 2 + sin(2 pi t)) has averaged pair
# A_hat = -1, F_hat = 2, zero x* = 2, and periodic starts
# x_lam = 2 - 2 pi lam / (lam^2 + 4 pi^2)
def _defect_closed_form(lam):
    return 2.0 * np.pi * lam / (lam ** 2 + 4.0 * np.pi ** 2)


def _gap_pair(phi):
    # x - Phi_T(x) and its Jacobians from phi's variational rows
    def evaluate(X):
        traj, J = phi.linearize(X)
        return X - traj.final, np.eye(X.shape[-1]) - J

    return evaluate


def test_average_generator_scalar():
    fam = GeneratorFamily(
        dim=1, A=lambda t: -(2.0 + np.sin(2.0 * np.pi * t))[..., None, None], T=1.0
    )
    assert average_generator(fam)[0, 0] == pytest.approx(-2.0, abs=1e-10)


def test_average_generator_matches_quad_oracle():
    def A(t):
        t = np.asarray(t, dtype=float)
        return np.stack([
            np.stack([-2.0 - np.sin(2.0 * np.pi * t),
                      0.3 * np.cos(2.0 * np.pi * t) ** 2], axis=-1),
            np.stack([np.exp(-t), np.full_like(t, -1.0)], axis=-1),
        ], axis=-2)

    fam = GeneratorFamily(dim=2, A=A, T=1.0)
    got = average_generator(fam)
    for i in range(2):
        for j in range(2):
            ref, _ = scipy.integrate.quad(lambda t: A(t)[i, j], 0.0, 1.0,
                                          epsabs=1e-12)
            assert got[i, j] == pytest.approx(ref, abs=1e-9)


def _constant_family(T=1.0):
    return GeneratorFamily(dim=1, A=lambda t: np.full(np.shape(t) + (1, 1), -1.0), T=T)


def test_average_field_closed_form():
    # the mean of cos^2(2 pi t) over m >= 3 uniform nodes is exactly 1/2
    F = lambda t, x: x * np.cos(2.0 * np.pi * t) ** 2
    X = np.array([[1.0], [3.0], [-2.0]])
    got = averaged_pair(_constant_family(), F, 16).F_hat(X)
    assert np.allclose(got, X / 2.0, atol=1e-14)


def test_simpson_refinement_has_a_cost_guard():
    # a jump in A at T/3 never lands on a dyadic node, so the levels never agree
    T = 1.0
    calls = [0]

    def A(t):
        calls[0] += np.size(t)   # nodes sampled
        return np.where(np.asarray(t) < T / 3.0, -1.0, -2.0)[..., None, None]

    with pytest.raises(OracleFailureError):
        average_generator(GeneratorFamily(dim=1, A=A, T=T))
    assert 0 < calls[0] <= 2 ** 15 + 64


# kinks in t in both A and F, off every grid node
_KINKED = {"A": [["-1-0.5*abs(sin(2*pi*t/T)+0.3)"]],
           "F": ["abs(cos(2*pi*t/T)-0.4)*tanh(s)+0.2"], "lipschitz": 1,
           "region": {"center": [0.0], "radius": 2.0}}


@pytest.mark.parametrize("grid", [64, 256, 1024])
def test_the_averaged_pair_is_the_period_maps_small_lam_limit(grid):
    # G(lam) = (x - Phi_T^lam(x)) / lam tends to G_0 = -T (A_hat x + F_hat(x))
    # of the pair at the map's own grid, and the Richardson value
    # 2 G(lam / 2) - G(lam) removes the O(lam) term
    cm = model_from_config(_KINKED)
    X = np.array([[-1.5], [0.0], [0.5], [1.5]])

    def G(lam):
        return (X - period_map(cm.family, cm.field, lam, grid)(X).final) / lam

    avg = averaged_pair(cm.family, cm.field, grid)
    G0 = -cm.family.T * (X @ avg.A_hat.T + avg.F_hat(X))
    assert np.abs(2.0 * G(5e-4) - G(1e-3) - G0).max() <= 1e-6


def test_averaged_pair_catalog_scalar():
    cm = get_model("scalar-linear")
    avg = averaged_pair(cm.family, cm.field, 256)
    assert avg.A_hat[0, 0] == pytest.approx(-1.0, abs=1e-10)
    assert avg.F_hat(np.array([0.7]))[0] == pytest.approx(2.0, abs=1e-10)
    # batched evaluation agrees with single points
    X = np.array([[0.1], [2.0], [-1.0]])
    batch = avg.F_hat(X)
    for i in range(3):
        assert batch[i, 0] == pytest.approx(avg.F_hat(X[i])[0], abs=1e-12)


def test_averaged_pair_on_the_wave_field():
    # f = 0.2 s + 0.3 cos t: the cos t forcing averages out, and the
    # collocation projection of 0.2 a phi_1 is exactly 0.2 a
    cm = get_model("wave-k1")
    avg = averaged_pair(cm.family, cm.field, 256)
    X = np.array([[0.3, -0.2], [0.0, 0.0], [1.0, 2.0]])
    want = np.stack([np.zeros(3), -0.2 * X[:, 0]], axis=-1)
    assert np.allclose(avg.F_hat(X), want, atol=1e-10)
    assert np.allclose(avg.F_hat(X[0]), want[0], atol=1e-10)


def test_averaged_field_with_wrong_shape_is_rejected():
    cm = get_model("scalar-linear")
    # right at single times, wrong over the node column the grid rule samples
    bad = NonlinearField(F=lambda t, x: np.zeros(np.shape(x)), lipschitz=0.0,
                         jacobian=lambda t, x: np.zeros(np.shape(x) + (1,)))
    avg = averaged_pair(cm.family, bad, 256)
    with pytest.raises(InvalidInputError, match="expected"):
        avg.F_hat(np.array([0.5]))


def test_mu_rescale_fixed_points_match_at_endpoints():
    # the deformation A_mu = -mu + (1 - mu) A toward -1 leaves the scalar
    # model's constant A = -1 as it is, so both ends use its own family.
    # At mu = 1 the deformed system u' = lam(-u + x*) has exactly x* = 2
    # as its periodic start; at mu = 0 the original one approaches it as lam -> 0
    cm = get_model("scalar-linear")
    avg = averaged_pair(cm.family, cm.field, 256)

    def comp(t, x):
        fx = np.asarray(avg.F_hat(np.asarray(x, dtype=float)), dtype=float)
        flat = fx.reshape(-1, fx.shape[-1])
        return -np.linalg.solve(avg.A_hat, flat.T).T.reshape(fx.shape)

    def comp_jacobian(t, x):
        return -np.linalg.solve(avg.A_hat, avg.DF_hat(np.asarray(x, dtype=float)))

    comparison = NonlinearField(F=comp, lipschitz=0.0, jacobian=comp_jacobian)
    fp1 = fixed_point(period_map(cm.family, comparison, 0.5, 512), [0.0], tol=1e-10)
    assert fp1.x[0] == pytest.approx(2.0, abs=1e-5)
    lam = 0.01
    fp0 = fixed_point(period_map(cm.family, cm.field, lam, 512), [2.0], tol=1e-10)
    assert fp0.x[0] == pytest.approx(2.0 - _defect_closed_form(lam), abs=1e-4)
    assert abs(fp0.x[0] - 2.0) < 3.0 * lam  # O(lam) branch gap


def test_monodromy_scalar_closed_form():
    # scalar time-ordered products commute: M = exp(lam int (a + b))
    fam = GeneratorFamily(
        dim=1, A=lambda t: -(1.0 + 0.5 * np.cos(2.0 * np.pi * t))[..., None, None], T=1.0
    )
    B = lambda t: (0.25 * np.sin(2.0 * np.pi * t))[..., None, None]
    M = monodromy(fam, B, 0.8, n=1024)
    assert M[0, 0] == pytest.approx(np.exp(-0.8), abs=1e-12)
    with pytest.raises(InvalidInputError):
        monodromy(fam, B, -1.0)


def test_unit_eigenvalue_gap():
    assert unit_eigenvalue_gap(np.diag([0.5, 2.0])) == pytest.approx(0.5)
    assert unit_eigenvalue_gap(np.eye(3)) == 0.0


def test_branching_ladder_validation():
    # the ladder's order is checked with the config (tests/test_cli.py)
    cm = get_model("scalar-linear")
    with pytest.raises(InvalidInputError):
        branching_experiment(cm.family, cm.field, [1.0, -0.5], cm.region)


def test_branching_scalar_defects_follow_closed_form():
    cm = get_model("scalar-linear")
    lams = [1.0, 0.1, 0.01]
    report = branching_experiment(cm.family, cm.field, lams, cm.region, grid=512)
    assert all(r.ok for r in report.rows)
    for row in report.rows:
        assert row.x[0] == pytest.approx(2.0 - _defect_closed_form(row.lam), abs=1e-4)
        assert row.defect == pytest.approx(_defect_closed_form(row.lam), abs=1e-4)
    assert report.defects[-1] / report.defects[0] < 2e-2
    assert report.defects == sorted(report.defects, reverse=True)


def test_averaging_degree_scalar_quick():
    cm = get_model("scalar-linear")
    report = averaging_degree_check(cm.family, cm.field, cm.region, [0.3, 0.1])
    assert report.d0 == 1
    assert report.lambda0 == pytest.approx(0.3)
    assert report.verdict
    for row in report.rows:
        assert row.boundary_ok and row.degree == 1 and row.agrees


def test_averaging_degree_solves_the_boundary_once_per_rung(monkeypatch):
    # every period-map evaluation is a mild.mild_solve call, made by period_map;
    # a rung's first solve holds the boundary cloud, then its cell centers
    import evolver.mild as mild

    cm = get_model("rotation-damped-2d")
    cloud = cm.region.boundary_samples(128)
    solve = mild.mild_solve
    systems = []
    rows = {"boundary": 0, "all": 0}

    def counted(R, F, x0, *args, **kwargs):
        x = np.asarray(x0)
        rows["all"] += x.size // x.shape[-1]
        lead = x.ndim == 2 and len(x) > len(cloud) and np.array_equal(x[:len(cloud)], cloud)
        first = not any(R is S for S in systems)
        assert lead == first
        if first:
            systems.append(R)
            rows["boundary"] += len(cloud)
        return solve(R, F, x0, *args, **kwargs)

    monkeypatch.setattr(mild, "mild_solve", counted)
    lambdas = [0.3, 0.1]
    report = averaging_degree_check(cm.family, cm.field, cm.region, lambdas, grid=128)
    assert len(systems) == len(lambdas)
    assert rows["boundary"] == len(lambdas) * len(cloud)
    assert rows["all"] > rows["boundary"]
    assert report.verdict
    assert all(r.boundary_ok and r.degree == report.d0 for r in report.rows)


def test_averaging_degree_flags_boundary_fixed_point():
    # center the region so the periodic point sits exactly on the boundary
    cm = get_model("scalar-linear")
    lam = 0.1
    phi = period_map(cm.family, cm.field, lam, 256)
    fp = fixed_point(phi, [2.0], tol=1e-9)
    U = Region.ball([fp.x[0] - 0.3], 0.3)
    report = averaging_degree_check(cm.family, cm.field, U, [lam])
    row = report.rows[0]
    assert not row.boundary_ok
    assert row.error == "boundary fixed point suspected"
    assert row.degree is None
    # the screened minimum of |x - Phi_T(x)| over the 128 boundary samples,
    # with the check's own period map (grid = 256)
    cloud = U.boundary_samples(128)
    traj = phi(cloud)
    assert row.boundary_min == float(np.min(np.linalg.norm(cloud - traj.final, axis=-1)))
    assert report.lambda0 is None
    assert not report.verdict


def test_averaging_report_carries_its_averaged_pair():
    cm = get_model("rotation-damped-2d")
    report = averaging_degree_check(cm.family, cm.field, cm.region, [0.1], grid=128)
    avg = report.averaged
    assert avg.A_hat.shape == (2, 2)
    # d0 is the degree of that pair
    g, evaluate = averaged_map(avg.A_hat, avg.F_hat, avg.DF_hat)
    d0 = brouwer_degree(g, cm.region, grid=8, boundary_m=128, evaluate=evaluate)
    assert d0.value == report.d0
    assert np.array_equal(d0.zeros, report.d0_report.zeros)
    assert d0.boundary_min == report.d0_report.boundary_min


# the rungs of the default continuation (cli.run_continuation) and averaging runs
_DEFAULT_RUNGS = ([("rotation-damped-2d", lam) for lam in (0.01, 0.03, 0.1, 0.3, 1.0)]
                  + [("scalar-linear", lam) for lam in AVERAGING_LADDER])


def _ball_points(U, k, rng):
    # k points drawn uniformly from the ball U
    v = rng.standard_normal((k, U.dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return U.center + U.radius * v * rng.random((k, 1)) ** (1.0 / U.dim)


def _assert_bound_holds(g, U, lip, slack, seed):
    # |g(x) - g(y)| <= lip |x - y| + slack over random pairs in U; 1e-12
    # absorbs the roundoff of g, which the degree's ZERO_TOL term covers
    X = _ball_points(U, 400, np.random.default_rng(seed))
    gx = g(X)
    lhs = np.linalg.norm(gx[:200] - gx[200:], axis=-1)
    dist = np.linalg.norm(X[:200] - X[200:], axis=-1)
    assert np.isfinite(lip)
    assert np.all(lhs <= lip * dist + slack + 1e-12), float(np.max(lhs / dist) / lip)


@pytest.mark.parametrize("key, lam", _DEFAULT_RUNGS)
def test_period_map_lipschitz_bound_holds_on_default_rungs(key, lam):
    # the bound is within a factor 1.13 of the largest quotient seen on
    # these rungs (sharp to roundoff on scalar-linear), so half of it fails
    cm = get_model(key)
    phi = period_map(cm.family, cm.field, lam, 256)
    lip, slack = phi.gap_lipschitz()
    assert 0.0 <= slack < 1e-10
    _assert_bound_holds(lambda x: x - phi(x).final, cm.region, lip, slack, seed=5)


@pytest.mark.parametrize("key", ["rotation-damped-2d", "scalar-linear"])
def test_averaged_map_lipschitz_bound_holds(key):
    cm = get_model(key)
    avg = averaged_pair(cm.family, cm.field, 256)
    assert avg.lipschitz == cm.field.lipschitz
    g, _ = averaged_map(avg.A_hat, avg.F_hat, avg.DF_hat)
    _assert_bound_holds(g, cm.region, avg.map_lipschitz, 0.0, seed=6)


def test_a_field_without_a_bound_prunes_nothing():
    cm = get_model("rotation-damped-2d")
    bare = lambda t, x: cm.field(t, x)
    assert period_map(cm.family, bare, 0.1, 64).gap_lipschitz() == (np.inf, 0.0)
    avg = averaged_pair(cm.family, bare, 64)
    assert avg.lipschitz == np.inf and avg.map_lipschitz == np.inf
    # nor does a bound under which a trapezoid step (q >= 1, at 1e4) or the
    # Picard pass (kappa >= 1, at 10) does not contract
    for lip in (1e4, 10.0):
        steep = NonlinearField(F=cm.field.F, lipschitz=lip, jacobian=cm.field.jacobian)
        assert period_map(cm.family, steep, 1.0, 64).gap_lipschitz() == (np.inf, 0.0)


@pytest.mark.parametrize("key, lam", [("rotation-damped-2d", 0.03),
                                      ("rotation-damped-2d", 1.0),
                                      ("scalar-linear", 0.1)])
def test_pruned_and_unpruned_degrees_agree(key, lam):
    cm = get_model(key)
    phi = period_map(cm.family, cm.field, lam, 256)
    avg = averaged_pair(cm.family, cm.field, 256)
    lip, slack = phi.gap_lipschitz()
    pairs = (((lambda x: x - phi(x).final, _gap_pair(phi)), dict(lipschitz=lip, slack=slack)),
             (averaged_map(avg.A_hat, avg.F_hat, avg.DF_hat),
              dict(lipschitz=avg.map_lipschitz)))
    for (g, evaluate), bound in pairs:
        full = brouwer_degree(g, cm.region, grid=8, boundary_m=128, evaluate=evaluate)
        pruned = brouwer_degree(g, cm.region, grid=8, boundary_m=128, evaluate=evaluate,
                                **bound)
        assert full.starts == full.cells and pruned.starts < pruned.cells
        assert pruned.value == full.value == 1
        assert pruned.zeros.shape == full.zeros.shape
        assert np.allclose(pruned.zeros, full.zeros, atol=1e-10)
        assert np.array_equal(pruned.signs, full.signs)


def test_default_continuation_rungs_start_few_newtons(monkeypatch):
    # the default continuation: 60 cells per degree, a handful of starts
    import evolver.averaging as averaging

    reports = []
    degree = averaging.brouwer_degree

    def recorded(*args, **kwargs):
        reports.append(degree(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(averaging, "brouwer_degree", recorded)
    cm = get_model("rotation-damped-2d")
    report = averaging_degree_check(cm.family, cm.field, cm.region,
                                    (0.01, 0.03, 0.1, 0.3, 1.0), grid=256)
    assert report.verdict and len(reports) == 6   # d0 and five rungs
    for rep in reports:
        assert rep.cells == 60 and 1 <= rep.starts <= 8
        assert rep.value == 1 and len(rep.zeros) == 1


def test_averaged_field_of_an_empty_batch_is_empty():
    cm = get_model("rotation-damped-2d")
    avg = averaged_pair(cm.family, cm.field, 256)
    assert avg.F_hat(np.empty((0, 2))).shape == (0, 2)
    assert avg.F_hat(np.empty((3, 0, 2))).shape == (3, 0, 2)


# x' = lam (-x + 3 tanh x + 0.1 sin(2 pi t / T)) on (-4, 4): zeros near 0
# (index -1) and +-2.98 (index +1 each), degree 1 by the endpoint signs
_TANH_MODEL = {"A": [[-1]], "F": ["3*tanh(s)+0.1*sin(2*pi*t/T)"], "lipschitz": 3,
               "region": {"center": [0], "radius": 4}}


def test_interval_degree_is_checked_against_the_endpoints():
    # at lam = 1 the bound is infinite, every cell starts, and Newton finds
    # only the outer zeros: the zero sum 2 is impossible on an interval
    cm = model_from_config(_TANH_MODEL)
    phi = period_map(cm.family, cm.field, 1.0, 256)
    lip, slack = phi.gap_lipschitz()
    assert lip == np.inf
    with pytest.raises(OracleFailureError,
                       match=r"zero sum 2 contradicts the endpoint degree 1: "
                             r"g\(lo\) = -6\.25\d*e-01, g\(hi\) = 6\.44\d*e-01"):
        brouwer_degree(lambda x: x - phi(x).final, cm.region, grid=8, boundary_m=128,
                       lipschitz=lip, slack=slack, evaluate=_gap_pair(phi))
    # an understated bound excludes zeros as well, here all three
    g = lambda x: x - 3.0 * np.tanh(x)
    evaluate = lambda X: (g(X), (1.0 - 3.0 / np.cosh(X) ** 2)[..., None])
    with pytest.raises(OracleFailureError, match="zero sum 0 contradicts the endpoint degree 1"):
        brouwer_degree(g, cm.region, grid=8, lipschitz=0.0, evaluate=evaluate)
    rep = brouwer_degree(g, cm.region, grid=8, lipschitz=1.0 + 3.0, evaluate=evaluate)
    assert rep.value == 1 and list(rep.signs) == [1, -1, 1]


def test_rungs_are_compared_against_the_averaged_field_s_own_degree():
    # A = 1: deg(x + A_hat^{-1} F_hat) = 1, while every rung gives
    # deg(I - Phi) = -1 = deg(-(A_hat x + F_hat)) = (-1)^1 sign det(A_hat) d0
    cm = model_from_config({"A": [[1]], "F": ["0.1*sin(2*pi*t/T)"], "lipschitz": 0,
                            "region": {"center": [0], "radius": 1}})
    report = averaging_degree_check(cm.family, cm.field, cm.region, AVERAGING_LADDER)
    assert report.d0 == 1 and report.reference == -1
    assert [r.degree for r in report.rows] == [-1] * len(AVERAGING_LADDER)
    assert all(r.agrees for r in report.rows) and report.verdict


def test_averaging_rungs_take_their_jacobians_from_the_tangent_rows(monkeypatch):
    # after a rung's boundary-and-centers solve, every solve is Newton's:
    # points with d tangent rows; central differences of the same map give
    # the same degree, and a field without a jacobian is refused
    import evolver.mild as mild

    cm = get_model("rotation-damped-2d")
    shapes = []
    solve = mild.mild_solve

    def counted(R, F, x0, *args, **kwargs):
        shapes.append(np.shape(x0))
        return solve(R, F, x0, *args, **kwargs)

    monkeypatch.setattr(mild, "mild_solve", counted)
    exact = averaging_degree_check(cm.family, cm.field, cm.region, [0.3], grid=128)
    assert len(shapes[0]) == 2 and len(shapes) > 2
    assert all(len(s) == 3 and s[1:] == (3, 2) for s in shapes[1:])
    monkeypatch.setattr(mild, "mild_solve", solve)
    phi = period_map(cm.family, cm.field, 0.3, 128)
    g = lambda x: x - phi(x).final
    lip, slack = phi.gap_lipschitz()
    fd = brouwer_degree(g, cm.region, grid=8, boundary_m=128, lipschitz=lip, slack=slack,
                        evaluate=fd_pair(g))
    assert exact.rows[0].degree == fd.value == 1
    assert exact.rows[0].boundary_min == fd.boundary_min
    bare = lambda t, x: cm.field(t, x)
    with pytest.raises(InvalidInputError, match="no jacobian"):
        period_map(cm.family, bare, 0.3, 128).linearize(cm.region.midpoint[None])
    with pytest.raises(InvalidInputError, match="no jacobian"):
        averaging_degree_check(cm.family, bare, cm.region, [0.3], grid=128)
