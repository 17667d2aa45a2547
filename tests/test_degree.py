import numpy as np
import pytest

from evolver import (
    DegenerateZeroError,
    InadmissibleRegionError,
    InvalidInputError,
    Region,
    SingularResolventError,
    averaged_pair,
    brouwer_degree,
    get_model,
    winding_number_2d,
)
from evolver.cli import _power_field, _scaled_identity
from evolver.degree import _cluster, averaged_map
from evolver.linop import (
    CONVERGED,
    ESCAPED,
    OUT_OF_ITERATIONS,
    SINGULAR,
    STALLED,
    damped_newton,
)

from oracles import fd_eval, fd_pair


def _identity(x):
    return np.asarray(x, dtype=float)


def _antipodal(x):
    return -np.asarray(x, dtype=float)


def _complex_power(m, c=0.1):
    # planar field z -> z^m - c with m simple zeros inside the unit ball
    def g(x):
        x = np.asarray(x, dtype=float)
        z = x[..., 0] + 1j * x[..., 1]
        w = z ** m - c
        return np.stack([w.real, w.imag], axis=-1)
    return g


def test_region_validation():
    with pytest.raises(InvalidInputError):
        Region.ball([0.0], 0.0)
    with pytest.raises(InvalidInputError):
        Region.ball([np.inf], 1.0)
    with pytest.raises(InvalidInputError):
        Region.box([0.0, 0.0], [1.0, -1.0])
    with pytest.raises(InvalidInputError):
        Region.box([0.0], [1.0, 2.0])


def test_region_membership_and_midpoint():
    U = Region.ball([1.0, 0.0], 2.0)
    assert U.contains([1.0, 1.0])
    assert not U.contains([4.0, 0.0])
    assert np.allclose(U.midpoint, [1.0, 0.0])
    B = Region.box([0.0, -1.0], [2.0, 1.0])
    assert B.contains([1.0, 0.0])
    assert not B.contains([1.0, 2.0])
    assert np.allclose(B.midpoint, [1.0, 0.0])
    assert B.dim == 2


def test_boundary_samples_on_circle():
    U = Region.ball([0.5, -0.5], 2.0)
    pts = U.boundary_samples(64)
    radii = np.linalg.norm(pts - U.center, axis=1)
    assert np.allclose(radii, 2.0, atol=1e-12)


def test_identity_field_degree_one():
    for d in (1, 2, 3):
        U = Region.ball(np.zeros(d), 1.0)
        rep = brouwer_degree(_identity, U, grid=6, evaluate=fd_pair(_identity))
        assert rep.value == 1
        assert len(rep.zeros) == 1
        assert np.allclose(rep.zeros[0], np.zeros(d), atol=1e-6)


def test_antipodal_field_degree():
    for d in (1, 2, 3):
        U = Region.ball(np.zeros(d), 1.0)
        rep = brouwer_degree(_antipodal, U, grid=6, evaluate=fd_pair(_antipodal))
        assert rep.value == (-1) ** d


def test_complex_power_degrees():
    U = Region.ball([0.0, 0.0], 1.0)
    for m in (2, 3, 4):
        g = _complex_power(m)
        rep = brouwer_degree(g, U, grid=12, evaluate=fd_pair(g))
        assert rep.value == m
        assert len(rep.zeros) == m
        assert winding_number_2d(_complex_power(m), U) == m


def test_winding_matches_newton_degree_on_random_products():
    # fields prod (z - z_i): degree = number of roots, all signs +1
    rng = np.random.default_rng(41)
    U = Region.ball([0.0, 0.0], 1.0)
    for _ in range(5):
        k = int(rng.integers(1, 4))
        roots = (rng.uniform(-0.5, 0.5, size=k)
                 + 1j * rng.uniform(-0.5, 0.5, size=k))
        if k > 1 and np.min(np.abs(np.subtract.outer(roots, roots))
                            + np.eye(k)) < 0.2:
            continue  # keep the zeros well separated

        def g(x, roots=roots):
            x = np.asarray(x, dtype=float)
            z = x[..., 0] + 1j * x[..., 1]
            w = np.ones_like(z, dtype=complex)
            for r in roots:
                w = w * (z - r)
            return np.stack([w.real, w.imag], axis=-1)

        rep = brouwer_degree(g, U, grid=14, evaluate=fd_pair(g))
        assert rep.value == k
        assert np.all(rep.signs == 1)
        assert winding_number_2d(g, U) == k


def test_degree_on_box_region():
    U = Region.box([-1.0, -1.0], [1.0, 1.0])
    g = _complex_power(2)
    assert brouwer_degree(g, U, grid=12, evaluate=fd_pair(g)).value == 2
    assert winding_number_2d(g, U) == 2


def test_homotopy_invariance():
    # moving the target value never crosses zero on the boundary
    U = Region.ball([0.0, 0.0], 1.0)
    for tau in np.linspace(0.0, 1.0, 5):
        g = _complex_power(2, c=0.1 + 0.4 * tau)
        rep = brouwer_degree(g, U, grid=12, evaluate=fd_pair(g))
        assert rep.value == 2


def test_additivity_over_subregions():
    g = _complex_power(2, c=0.25)  # zeros at +-0.5
    whole = brouwer_degree(g, Region.ball([0.0, 0.0], 1.0), grid=12,
                           evaluate=fd_pair(g)).value
    left = brouwer_degree(g, Region.ball([-0.5, 0.0], 0.2), grid=8,
                          evaluate=fd_pair(g)).value
    right = brouwer_degree(g, Region.ball([0.5, 0.0], 0.2), grid=8,
                           evaluate=fd_pair(g)).value
    assert whole == left + right == 2


def test_boundary_zero_raises():
    U = Region.ball([1.0, 0.0], 1.0)  # boundary passes through the origin
    with pytest.raises(InadmissibleRegionError):
        brouwer_degree(_identity, U, evaluate=fd_pair(_identity))
    with pytest.raises(InadmissibleRegionError):
        winding_number_2d(_identity, U)


def test_degenerate_zero_raises():
    def g(x):
        return np.asarray(x, dtype=float) ** 2

    with pytest.raises(DegenerateZeroError):
        brouwer_degree(g, Region.ball([0.1], 0.5), grid=8, evaluate=fd_pair(g))

    # planar fields whose only zero, the origin, is degenerate
    U = Region.ball([0.1, 0.05], 0.5)
    # with the factor 200, cond(Dg) passes COND_LIMIT while |det Dg| is
    # still above DET_FLOOR: polishing must report that as degenerate (on
    # (200 x, y^3) the polished starts otherwise stay apart and count 3)
    for h in (lambda x, y: (x, y ** 2), lambda x, y: (200.0 * x, y ** 2),
              lambda x, y: (x, y ** 3), lambda x, y: (200.0 * x, y ** 3),
              lambda x, y: (x ** 2 - y ** 2, 2.0 * x * y)):
        def g2(p, h=h):
            p = np.asarray(p, dtype=float)
            return np.stack(h(p[..., 0], p[..., 1]), axis=-1)

        with pytest.raises(DegenerateZeroError):
            brouwer_degree(g2, U, grid=8, evaluate=fd_pair(g2))


def test_dimension_cap():
    U = Region.ball(np.zeros(5), 1.0)
    with pytest.raises(InvalidInputError):
        brouwer_degree(_identity, U, evaluate=fd_pair(_identity))
    with pytest.raises(InvalidInputError):
        winding_number_2d(_complex_power(2), Region.ball(np.zeros(3), 1.0))


def test_deg_hat_linearized_field():
    # x + A^{-1} F with A = diag(-1,-2), F = const: single zero, degree 1
    A = np.diag([-1.0, -2.0])
    F = lambda x: np.broadcast_to([0.3, -0.4], np.asarray(x).shape).copy()
    DF = lambda x: np.zeros(np.shape(x) + (2,))
    g, evaluate = averaged_map(A, F, DF)
    rep = brouwer_degree(g, Region.ball([0.0, 0.0], 2.0), grid=8, evaluate=evaluate)
    assert rep.value == 1
    assert np.allclose(rep.zeros[0], [0.3, -0.2], atol=1e-6)
    # its Jacobian I + A^{-1} DF is the identity
    X = np.array([[0.1, 0.2], [-1.0, 0.5]])
    assert np.array_equal(evaluate(X)[1], np.broadcast_to(np.eye(2), (2, 2, 2)))


def test_deg_hat_singular_generator():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularResolventError):
        averaged_map(A, lambda x: np.asarray(x), lambda x: np.eye(2))


def _averaged(key):
    cm = get_model(key)
    avg = averaged_pair(cm.family, cm.field)
    return averaged_map(avg.A_hat, avg.F_hat, avg.DF_hat)


# the averaged maps of two catalog models and the degree experiment's fields,
# each as (g, evaluate), with the dimension of the points they are checked at
_EXACT_PAIRS = {
    "averaged-rotation-damped-2d": (lambda: _averaged("rotation-damped-2d"), 2),
    "averaged-wave-k1": (lambda: _averaged("wave-k1"), 2),
    "identity": (lambda: _scaled_identity(1.0), 3),
    "antipodal": (lambda: _scaled_identity(-1.0), 3),
    "complex-power": (lambda: _power_field(5), 2),
}


@pytest.mark.parametrize("name", list(_EXACT_PAIRS))
def test_exact_evaluators_match_central_differences(name):
    # evaluate returns g itself and its exact Jacobian; the averaged map's is
    # I + A_hat^{-1} DF_hat, on the Simpson nodes and weights of F_hat
    make, d = _EXACT_PAIRS[name]
    g, evaluate = make()
    X = np.random.default_rng(17).uniform(-1.0, 1.0, size=(6, d))
    vals, J = evaluate(X)
    _, ref = fd_eval(g, X, 1e-6)
    assert np.array_equal(vals, g(X))
    assert J.shape == (6, d, d)
    assert np.abs(J - ref).max() <= 1e-8 * (1.0 + np.abs(ref).max())


def _piecewise(X):
    # x^2 + 1 below 1 (no zero, singular at 0), x - 3 on [1, 4),
    # (x - 6)^3 on [4, 8) (Newton contracts by 2/3), x - 20 above 8
    x = X[..., 0]
    bands = [x < 1.0, x < 4.0, x < 8.0]
    value = np.select(bands, [x ** 2 + 1.0, x - 3.0, (x - 6.0) ** 3], x - 20.0)
    slope = np.select(bands, [2.0 * x, np.ones_like(x), 3.0 * (x - 6.0) ** 2], 1.0)
    return value[..., None], slope[..., None, None]


def test_damped_newton_records_every_status():
    starts = np.array([[0.0], [0.5], [2.0], [3.0], [7.0], [11.0]])
    rec = damped_newton(_piecewise, starts, tol=1e-12, max_iter=3, tries=1,
                        keep=lambda X: X[:, 0] < 15.0)
    q = (2.0 / 3.0) ** 3
    expect = [
        # status, x, jacobians, halvings, cond, history
        (SINGULAR, 0.0, 1, 0, np.inf, [1.0]),
        (STALLED, 0.5, 1, 1, 1.0, [1.25]),
        (CONVERGED, 3.0, 1, 0, 1.0, [1.0, 0.0]),
        (CONVERGED, 3.0, 0, 0, np.nan, [0.0]),
        (OUT_OF_ITERATIONS, 6.0 + q, 3, 0, 1.0, [1.0, q, q ** 2, q ** 3]),
        (ESCAPED, 20.0, 1, 0, 1.0, [9.0, 0.0]),
    ]
    assert rec.x.shape == rec.gx.shape == (6, 1)
    assert rec.history.shape == (6, 4)
    for k, (status, x, jacs, halvings, cond, history) in enumerate(expect):
        assert rec.status[k] == status
        assert rec.x[k, 0] == pytest.approx(x, rel=1e-12)
        assert np.array_equal(rec.gx[k], _piecewise(rec.x[k:k + 1])[0][0])
        assert rec.residual[k] == abs(rec.gx[k, 0])
        assert rec.jacobians[k] == jacs
        assert rec.halvings[k] == halvings
        assert rec.cond[k] == cond or (np.isnan(cond) and np.isnan(rec.cond[k]))
        steps = rec.history[k][~np.isnan(rec.history[k])]
        assert steps == pytest.approx(history, rel=1e-12)
        assert steps[-1] == rec.residual[k]
        assert np.all(np.isnan(rec.history[k, len(history):]))


def test_damped_newton_halves_until_the_residual_falls():
    # from 0.5 the full step to -0.75 raises x^2 + 1; half of it lands at
    # -0.125, which lowers it
    rec = damped_newton(_piecewise, np.array([[0.5]]), tol=0.0, max_iter=1, tries=2)
    assert rec.status[0] == OUT_OF_ITERATIONS
    assert rec.halvings[0] == 1
    assert rec.x[0, 0] == -0.125
    assert rec.history.tolist() == [[1.25, 1.015625]]


def test_polishing_reaches_the_residual_floor():
    # zero (sqrt 2, sqrt 2) of (x^2 - 2, y - x); full steps until |G| stops falling
    def Gj(X):
        J = np.zeros((len(X), 2, 2))
        J[:, 0, 0] = 2.0 * X[:, 0]
        J[:, 1, 0] = -1.0
        J[:, 1, 1] = 1.0
        return np.stack([X[:, 0] ** 2 - 2.0, X[:, 1] - X[:, 0]], axis=-1), J

    starts = np.sqrt(2.0) + np.array([[1e-3, -2e-3], [-5e-4, 1e-4], [0.3, 0.1]])
    rec = damped_newton(Gj, starts, tol=0.0, max_iter=60, tries=1)
    assert np.all((rec.status == CONVERGED) | (rec.status == STALLED))
    assert np.all(rec.residual <= 4.0 * np.finfo(float).eps)
    assert np.allclose(rec.x, np.sqrt(2.0), rtol=0.0, atol=4e-16)
    assert np.all(rec.halvings == (rec.status == STALLED))


def test_damped_newton_takes_a_start_the_caller_holds():
    # (G, J) at X in place of the first call: same record, one call fewer
    calls = []

    def Gj(X):
        calls.append(len(X))
        return _two_opposite_zeros(X), np.stack(
            [np.diag([2.0 * x[0], 1.0]) for x in np.atleast_2d(X)])

    X = np.array([[0.7, 0.2], [-0.3, -0.1]])
    plain = damped_newton(Gj, X, tol=1e-12, max_iter=20, tries=4)
    n_plain = len(calls)
    started = damped_newton(Gj, X, tol=1e-12, max_iter=20, tries=4, start=Gj(X))
    assert len(calls) == 2 * n_plain
    for name in ("x", "gx", "jac", "residual", "status", "jacobians", "halvings"):
        assert np.array_equal(getattr(started, name), getattr(plain, name))
    assert np.array_equal(plain.jac, Gj(plain.x)[1])


@pytest.mark.parametrize("lipschitz", [np.inf, 2.0])
def test_degree_evaluates_only_inside_newton_and_polishes_from_the_search(
        monkeypatch, lipschitz):
    # polishing starts from the values and Jacobians the search ended with,
    # and the signs come from polishing's own last Jacobians: every
    # evaluation is a trial of one of the two Newton runs
    import evolver.degree as degree

    def pair(X):
        return _two_opposite_zeros(X), np.stack(
            [np.diag([2.0 * x[0], 1.0]) for x in np.atleast_2d(X)])

    evaluated, runs = [], []
    newton = degree.damped_newton

    def evaluate(X):
        evaluated.append(np.array(X))
        return pair(X)

    def recorded(Gj, X, *args, **kwargs):
        calls = []
        runs.append((np.array(X), calls, kwargs.get("start")))

        def counted(Y):
            calls.append(np.array(Y))
            return Gj(Y)

        return newton(counted, X, *args, **kwargs)

    monkeypatch.setattr(degree, "damped_newton", recorded)
    U = Region.ball([0.0, 0.0], 1.0)
    rep = brouwer_degree(_two_opposite_zeros, U, grid=8, lipschitz=lipschitz,
                         evaluate=evaluate)
    assert rep.value == 0 and list(rep.signs) == [-1, 1]
    assert np.array_equal(rep.dets, [-1.0, 1.0])
    (search_x, search_calls, none), (polish_x, polish_calls, start) = runs
    assert none is None and len(evaluated) == len(search_calls) + len(polish_calls)
    assert np.array_equal(search_calls[0], search_x)
    # the polish's first call is already a trial step away from its starts
    assert start is not None and not np.array_equal(polish_calls[0], polish_x)
    monkeypatch.setattr(degree, "damped_newton", newton)
    fd = brouwer_degree(_two_opposite_zeros, U, grid=8, lipschitz=lipschitz,
                        evaluate=fd_pair(_two_opposite_zeros))
    assert fd.value == rep.value and np.allclose(fd.zeros, rep.zeros, rtol=0.0, atol=1e-15)


def test_cluster_is_greedy_in_lexicographic_order():
    # a chain of points 0.9e-6 apart: 0 founds a cluster that takes 0.9e-6;
    # 1.8e-6 is too far from 0 and founds the next, which takes 2.7e-6; the
    # founders come back as row indices, in lexicographic order
    pts = np.array([[2.7e-6, 1.0], [0.0, 1.0], [1.8e-6, 1.0], [0.9e-6, 1.0]])
    assert _cluster(pts).tolist() == [1, 2]
    assert _cluster(np.empty((0, 2))).shape == (0,)


def _two_opposite_zeros(x):
    # (x^2 - 1/4, y): zeros (-1/2, 0) with det -1 and (1/2, 0) with det +1;
    # on the box [-1, 1]^2 holding every start cell it is 2-Lipschitz
    x = np.asarray(x, dtype=float)
    return np.stack([x[..., 0] ** 2 - 0.25, x[..., 1]], axis=-1)


def test_exclusion_keeps_the_degree_of_opposite_zeros():
    U = Region.ball([0.0, 0.0], 1.0)
    evaluate = fd_pair(_two_opposite_zeros)
    full = brouwer_degree(_two_opposite_zeros, U, grid=8, evaluate=evaluate)
    pruned = brouwer_degree(_two_opposite_zeros, U, grid=8, lipschitz=2.0,
                            evaluate=evaluate)
    assert full.value == pruned.value == 0
    assert np.allclose(pruned.zeros, [[-0.5, 0.0], [0.5, 0.0]], atol=1e-12)
    assert np.array_equal(pruned.zeros, full.zeros)
    assert list(pruned.signs) == list(full.signs) == [-1, 1]
    assert full.cells == pruned.cells == full.starts == 60
    assert 2 <= pruned.starts < 60


@pytest.mark.parametrize("angle", [0.97, 2.53, 3.76, 5.31])
def test_exclusion_finds_a_zero_beside_the_boundary(angle):
    # the zero's own cell has its center outside U; the lattice still covers
    # U, so some cell within a half-diagonal of the zero keeps its start
    z = 0.97 * np.array([np.cos(angle), np.sin(angle)])
    U = Region.ball([0.0, 0.0], 1.0)
    g = lambda x: np.asarray(x, dtype=float) - z
    rep = brouwer_degree(g, U, grid=8, boundary_m=128, lipschitz=1.0,
                         evaluate=lambda X: (g(X), np.broadcast_to(np.eye(2), X.shape + (2,))))
    assert rep.value == 1 and 1 <= rep.starts <= 4
    assert np.allclose(rep.zeros, [z], atol=1e-12)


def test_cell_centers_cover_the_region():
    # every point of U, the shell just inside a ball's sphere included, lies
    # within a half-diagonal of some cell center
    rng = np.random.default_rng(3)
    for U in (Region.ball([0.3, -0.2], 1.5), Region.ball([0.0, 0.0, 0.0], 1.0),
              Region.box([0.0, -1.0], [2.0, 0.5])):
        lo, hi = U.bounds
        pts = lo + rng.random((4000, U.dim)) * (hi - lo)
        if U.kind == "ball":
            dirs = rng.standard_normal((4000, U.dim))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            pts = np.concatenate([pts, U.center + 0.99 * U.radius * dirs])
        pts = pts[U.contains(pts)]
        for res in (3, 8):
            cells = U.cell_centers(res)
            rho = 0.5 * np.linalg.norm(hi - lo) / res
            dist = np.linalg.norm(pts[:, None] - cells[None], axis=-1).min(axis=1)
            assert np.all(dist <= rho)


def test_every_cell_excluded_means_degree_zero_without_newton(monkeypatch):
    import evolver.degree as degree

    def no_newton(*args, **kwargs):
        raise AssertionError("Newton ran although every cell is excluded")

    monkeypatch.setattr(degree, "damped_newton", no_newton)
    U = Region.ball([0.0, 0.0], 1.0)
    g = lambda x: np.asarray(x, dtype=float) - 5.0
    rep = brouwer_degree(g, U, grid=8, lipschitz=1.0, evaluate=fd_pair(g))
    assert rep.value == 0 and rep.starts == 0 and rep.cells == 60
    assert rep.zeros.shape == (0, 2) and rep.signs.size == 0
