import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evolver import (
    ConvergenceError,
    DegenerateFixedPointError,
    GeneratorFamily,
    InvalidInputError,
    NonlinearField,
    affine_family,
    build_evolution,
    dissipativity_rate,
    fixed_point,
    get_model,
    mild_solve,
    period_map,
)
from evolver.averaging import RUNG_TOL
from evolver.cli import EXPERIMENTS
from evolver.mild import _FIELD_BLOCK, _eval_field, _gap, _scan_plan, _sweep, _workspace

from oracles import fd_eval, loop_sweep, picard_fixed_point, rk4_path

# periodic solution of u' = lam(-u + 2 + sin(2 pi t)) starts at
# x_lam = 2 - 2 pi lam / (lam^2 + 4 pi^2)
def _scalar_periodic_start(lam):
    return 2.0 - 2.0 * np.pi * lam / (lam ** 2 + 4.0 * np.pi ** 2)


def test_sigma_zero_forcing_is_linear_flow():
    cm = get_model("rotation-damped-2d")
    R = build_evolution(cm.family, 256)
    x = np.array([0.4, -0.3])
    traj = mild_solve(R, lambda t, z: np.zeros_like(z), x, grid=256)
    for i in (0, 64, 128, 256):
        ref = R.apply(traj.times[i], 0.0, x)
        assert np.allclose(traj.states[i], ref, atol=1e-12)


def _forcing(*coefs):
    # a state-independent field: one trigonometric term per component
    def F(t, z):
        cols = [c * np.sin((k + 1) * np.pi * t + k) for k, c in enumerate(coefs)]
        return np.broadcast_to(np.concatenate(cols, axis=-1), np.shape(z))

    return F


def test_sigma_is_affine_in_forcing():
    cm = get_model("rotation-damped-2d")
    R = build_evolution(cm.family, 128)
    x = np.random.default_rng(31).standard_normal(2)
    F1, F2 = _forcing(1.0, -0.5), _forcing(0.3, 2.0)
    both = mild_solve(R, lambda t, z: F1(t, z) + F2(t, z), x, lam=0.7, grid=128)
    one = mild_solve(R, F1, x, lam=0.7, grid=128)
    other = mild_solve(R, F2, np.zeros(2), lam=0.7, grid=128)
    # a state-independent forcing makes the second pass repeat the first
    assert both.iterations == one.iterations == other.iterations == 2
    assert np.allclose(both.states, one.states + other.states, atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    m=st.integers(1, 300),
    d=st.integers(1, 4),
    batch=st.sampled_from([(), (1,), (5,), (2, 3)]),
    lam=st.floats(0.0, 2.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(m=1, d=1, batch=(), lam=1.0, seed=0)
@example(m=2, d=2, batch=(1,), lam=0.5, seed=1)
@example(m=3, d=3, batch=(5,), lam=2.0, seed=2)
@example(m=289, d=4, batch=(2, 3), lam=0.0, seed=3)
@example(m=300, d=2, batch=(5,), lam=1.3, seed=4)
def test_scan_sweep_matches_loop(m, d, batch, lam, seed):
    # contractive random steps exp(h (S - I)) with S skew
    rng = np.random.default_rng(seed)
    h = 1.0 / m
    S = rng.standard_normal((m, d, d))
    E = scipy.linalg.expm(h * (S - S.transpose(0, 2, 1) - np.eye(d)))
    x = rng.standard_normal(batch + (d,))
    w = rng.standard_normal((m + 1,) + batch + (d,))
    ref = loop_sweep(E, x, w, lam, h)
    out = _sweep(_scan_plan(E), x, w, lam, h)
    assert out.shape == ref.shape
    assert np.array_equal(out[0], x)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [1, 2, 6])
@pytest.mark.parametrize("batch", [(), (1,), (13,)])
def test_sweep_through_a_used_workspace_is_exact(d, batch):
    rng = np.random.default_rng(7 * d + len(batch))
    for m in (36, 37):  # chunks fill the grid exactly, then with padding
        h = 1.0 / m
        S = rng.standard_normal((m, d, d))
        E = scipy.linalg.expm(h * (S - S.transpose(0, 2, 1) - np.eye(d)))
        plan = _scan_plan(E)
        x = rng.standard_normal(batch + (d,))
        work = _workspace(plan, m, x.shape)
        for buf in work:
            buf.fill(np.nan)
        for _ in range(2):
            w = rng.standard_normal((m + 1,) + batch + (d,))
            out = _sweep(plan, x, w, 0.8, h, work)
            assert out is work[2]
            assert np.array_equal(out, _sweep(plan, x, w, 0.8, h))


@pytest.mark.parametrize("d", range(1, 9))
def test_gap_is_sup_norm_of_the_difference(d):
    rng = np.random.default_rng(d)
    m, batch = 50, (7,)
    scale = 10.0 ** rng.integers(-6, 7, size=(m + 1,) + batch + (d,))
    a = rng.standard_normal(scale.shape) * scale
    b = rng.standard_normal(scale.shape) * scale
    b[0] = a[0]
    a0, b0 = a.copy(), b.copy()
    scratch = np.full((m + 4,) + batch + (d,), np.nan)
    got = _gap(a, b, scratch)
    ref = float(np.max(np.linalg.norm(a - b, axis=-1)))
    assert np.array_equal(a, a0) and np.array_equal(b, b0)
    if d < 8:
        assert got == ref
    else:  # numpy's norm sums 8 or more components pairwise
        assert got == pytest.approx(ref, rel=4e-16 * d, abs=0.0)


def test_mild_field_may_return_a_view_of_the_path():
    cm = get_model("scalar-linear")
    R = build_evolution(cm.family, 128)
    X = np.array([[0.5], [1.5], [-2.0]])
    a = mild_solve(R, lambda t, x: x[...], X, lam=0.5, grid=128)
    b = mild_solve(R, lambda t, x: x.copy(), X, lam=0.5, grid=128)
    assert a.iterations == b.iterations > 2
    assert np.array_equal(a.states, b.states)
    assert a.residual == b.residual


def test_mild_scalar_closed_form():
    cm = get_model("scalar-linear")
    R = build_evolution(cm.family, 4096)
    lam = 0.7
    traj = mild_solve(R, cm.field, np.array([1.0]), lam=lam, grid=2048)
    t = traj.times
    w = 2.0 * np.pi
    exact = (np.exp(-t)
             + lam * (2.0 * (1.0 - np.exp(-t))
                      + (np.sin(w * t) - w * np.cos(w * t) + w * np.exp(-t))
                      / (1.0 + w * w)))
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-5
    assert traj.iterations >= 2
    assert traj.residual < 1e-10


def test_mild_matches_rk4_oracle_nonlinear():
    cm = get_model("rotation-damped-2d")
    R = build_evolution(cm.family, 2048)
    x0 = np.array([0.3, -0.2])
    traj = mild_solve(R, cm.field, x0, grid=2048)
    ref = rk4_path(cm.family.A, cm.field, x0, cm.family.T, 20000)
    assert np.linalg.norm(traj.final - ref) < 2e-4


def test_mild_batch_matches_loop():
    cm = get_model("rotation-damped-2d")
    R = build_evolution(cm.family, 128)
    rng = np.random.default_rng(33)
    X = rng.standard_normal((4, 2))
    batch = mild_solve(R, cm.field, X, grid=256).final
    for i in range(4):
        single = mild_solve(R, cm.field, X[i], grid=256).final
        assert np.allclose(batch[i], single, atol=1e-12)


def test_mild_gronwall_contraction():
    # ||Phi_t(x) - Phi_t(y)|| <= e^{(lam L - omega) t} ||x - y||, with omega
    # the rate of the frozen generators A(t_j), exact for the built system
    cm = get_model("rotation-damped-2d")
    R = build_evolution(cm.family, 512)
    omega = float(np.min(dissipativity_rate(cm.family.stack(R.nodes[:-1]))))
    factor = np.exp(cm.field.lipschitz - omega)  # lam = 1, t = T = 1
    rng = np.random.default_rng(34)
    for _ in range(5):
        x, y = rng.standard_normal((2, 2))
        fx = mild_solve(R, cm.field, x, grid=512).final
        fy = mild_solve(R, cm.field, y, grid=512).final
        assert np.linalg.norm(fx - fy) <= factor * np.linalg.norm(x - y) * (1.0 + 1e-3)


def test_mild_divergence_guard():
    fam = GeneratorFamily(dim=1, A=lambda t: np.zeros(np.shape(t) + (1, 1)), T=1.0)
    R = build_evolution(fam, 64)
    with pytest.raises(ConvergenceError):
        mild_solve(R, lambda t, x: x ** 3, np.array([4.0]), grid=128, max_iter=50)


def test_field_with_wrong_shape_is_rejected():
    R = build_evolution(get_model("rotation-damped-2d").family, 64)
    # sums over the state axis instead of returning one vector per state
    bad = lambda t, x: np.sum(x, axis=-1) * np.cos(t)
    with pytest.raises(InvalidInputError, match="expected"):
        mild_solve(R, bad, np.array([0.1, 0.2]), grid=64)


def _catalog_field(key):
    cm = get_model(key)
    return cm, cm.field


@pytest.mark.parametrize("key", ["scalar-linear", "rotation-damped-2d", "wave-k3"])
@pytest.mark.parametrize("batch", [(), (1,), (13,), (208,), (2, 3)])
def test_blocked_field_equals_one_call(key, batch):
    cm, field = _catalog_field(key)
    step = max(1, _FIELD_BLOCK // (int(np.prod(batch)) * cm.dim))
    nodes = 2 * step + step // 2 + 1  # two full blocks and a short third
    times = np.linspace(0.0, cm.family.T, nodes)
    states = np.random.default_rng(71).standard_normal((nodes,) + batch + (cm.dim,))
    calls = []

    def counted(t, x):
        calls.append(len(x))
        return field(t, x)

    got = _eval_field(counted, times, states, np.full_like(states, np.nan))
    assert calls == [step, step, nodes - 2 * step]
    tcol = times.reshape((-1,) + (1,) * (states.ndim - 1))
    assert np.array_equal(got, field(tcol, states))


def test_field_with_wrong_shape_in_its_last_block_is_rejected():
    cm = get_model("rotation-damped-2d")
    R = build_evolution(cm.family, 64)
    X = np.zeros((208, 2))
    grid = 3 * (_FIELD_BLOCK // X.size)

    def last_block_bad(t, x):
        return x[..., :1] if np.max(t) == cm.family.T else cm.field(t, x)

    with pytest.raises(InvalidInputError, match="expected"):
        mild_solve(R, last_block_bad, X, grid=grid)


def test_mild_solve_allocates_no_path_sized_field_temporaries():
    # the solve owns about four paths (two state paths, the forcing path and
    # the scan buffer) plus the scan plan; a field evaluated over the whole
    # path at once would add its own path-sized temporaries (11.1 paths)
    cm, field = _catalog_field("wave-k3")
    R = build_evolution(cm.family, 1024)
    X = 0.3 * np.random.default_rng(72).standard_normal((13, cm.dim))
    mild_solve(R, field, X, grid=1024)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traj = mild_solve(R, field, X, grid=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.iterations > 2
    assert (peak - base) / traj.states.nbytes < 7.0


@pytest.mark.parametrize("key", ["scalar-linear", "rotation-damped-2d"])
def test_period_map_is_the_scaled_system_solve(key):
    # Phi_T^lam pairs the system of lam A with the same lam in the solve
    cm = get_model(key)
    lam, grid = 0.3, 256
    phi = period_map(cm.family, cm.field, lam, grid)
    R = build_evolution(affine_family(cm.family, lam), grid)
    rng = np.random.default_rng(11)
    for X in (cm.region.midpoint, rng.standard_normal((5, cm.dim))):
        got = phi(X)
        ref = mild_solve(R, cm.field, X, lam=lam, grid=grid)
        assert got.final.shape == X.shape
        assert np.array_equal(got.final, ref.final)
        assert got.lam == lam


@pytest.mark.parametrize("key, lam", [("rotation-damped-2d", 1.0), ("rotation-damped-2d", 0.03),
                                      ("wave-k3", 1.0), ("wave-k3", 0.4)])
def test_exact_jacobians_match_central_differences(key, lam):
    # one solve of each point with its d tangent rows against the oracle's
    # 2d central probes of the plain map; both see the same discrete map
    cm = get_model(key)
    phi = period_map(cm.family, cm.field, lam, 256)
    X = np.random.default_rng(12).uniform(-1.0, 1.0, size=(3, cm.dim))
    traj, J = phi.linearize(X)
    vals, ref = fd_eval(lambda rows: phi(rows).final, X, 1e-5)
    assert traj.states.shape == (257, 3, cm.dim) and J.shape == (3, cm.dim, cm.dim)
    assert np.abs(J - ref).max() <= 1e-6 * np.abs(ref).max()
    # the path of the points is the plain solve's, to Picard tolerance
    assert np.array_equal(traj.states[0], X)
    assert np.abs(traj.final - vals).max() <= 1e-9
    assert np.abs(traj.states - phi(X).states).max() <= 1e-9


def test_linearize_without_a_jacobian_is_refused():
    # a field without its derivative has no second path through differences:
    # the map still solves, while linearize and fixed_point raise
    cm = get_model("rotation-damped-2d")
    X = np.array([[0.2, 0.4], [-0.3, 1.1]])
    want = period_map(cm.family, cm.field, 0.5, 128)(X).final
    for bare in (lambda t, x: cm.field(t, x),
                 NonlinearField(F=cm.field.F, lipschitz=cm.field.lipschitz, jacobian=None)):
        phi = period_map(cm.family, bare, 0.5, 128)
        assert np.array_equal(phi(X).final, want)
        with pytest.raises(InvalidInputError, match="no jacobian"):
            phi.linearize(X)
        with pytest.raises(InvalidInputError, match="no jacobian"):
            fixed_point(phi, X[0])


def test_a_period_map_builds_its_scan_plan_once(monkeypatch):
    import evolver.mild as mild

    built = []
    plan = mild._scan_plan

    def counted(E):
        built.append(E.shape)
        return plan(E)

    monkeypatch.setattr(mild, "_scan_plan", counted)
    cm = get_model("rotation-damped-2d")
    phi = period_map(cm.family, cm.field, 0.5, 128)
    X = np.array([[0.2, 0.4]])
    phi(X)
    phi(X[0])
    phi.linearize(X)
    fixed_point(phi, cm.region.midpoint)
    assert built == [(128, 2, 2)]
    # a direct solve still builds its own
    mild_solve(phi.R, cm.field, X, lam=0.5, grid=128)
    assert len(built) == 2


def test_a_period_map_makes_one_stacked_exponential(monkeypatch):
    # the map's steps are R.steps: building it is the one mat_exp call, and
    # its solves and its Lipschitz bound take no partial cell
    import evolver.evolsys as evolsys

    calls = []
    mat_exp = evolsys.mat_exp

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return mat_exp(*args, **kwargs)

    monkeypatch.setattr(evolsys, "mat_exp", counted)
    cm = get_model(EXPERIMENTS["branching"].model)
    grid = EXPERIMENTS["branching"].numeric["grid"]
    phi = period_map(cm.family, cm.field, 1.0, grid)
    assert calls == [(grid, cm.dim, cm.dim)]
    fixed_point(phi, cm.region.midpoint, tol=RUNG_TOL)
    lip, _ = phi.gap_lipschitz()
    assert np.isfinite(lip)
    assert len(calls) == 1


def test_fixed_point_scalar_closed_form():
    cm = get_model("scalar-linear")
    fp = fixed_point(period_map(cm.family, cm.field, 1.0, 1024), [0.0], tol=1e-10)
    assert fp.x[0] == pytest.approx(_scalar_periodic_start(1.0), abs=1e-5)
    assert fp.residual <= 1e-10
    # one residual per iterate, the last one the reported residual
    assert len(fp.history) == fp.iterations
    assert fp.history[-1] == fp.residual
    assert all(b < a for a, b in zip(fp.history, fp.history[1:]))


def test_fixed_point_newton_matches_picard():
    cm = get_model("scalar-linear")
    phi = period_map(cm.family, cm.field, 1.0, 1024)
    newton = fixed_point(phi, [0.0], tol=1e-10)
    picard, picard_iters = picard_fixed_point(lambda x: phi(x).final, [0.0], tol=1e-10)
    assert abs(newton.x[0] - picard[0]) < 1e-8
    assert newton.iterations <= picard_iters


def test_fixed_point_rotation_2d():
    cm = get_model("rotation-damped-2d")
    R = build_evolution(cm.family, 1024)
    fp = fixed_point(period_map(cm.family, cm.field, 1.0, 1024), cm.region.midpoint,
                     tol=1e-10)
    # an independent solve on an unscaled R certifies periodicity of the orbit
    orbit = mild_solve(R, cm.field, fp.x, grid=1024)
    assert np.linalg.norm(orbit.final - fp.x) <= 1e-8


def test_fixed_point_degenerate_jacobian():
    # with a zero field Phi_T^1 is exactly R(T, 0) = diag(1, 1/e): a unit
    # eigenvalue, so DPhi - I has an exactly-zero column and Newton must refuse
    A = np.array([[0.0, 0.0], [0.0, -1.0]])
    fam = GeneratorFamily(dim=2, A=lambda t: np.broadcast_to(A, np.shape(t) + A.shape), T=1.0)
    zero = NonlinearField(F=lambda t, x: np.zeros_like(x), lipschitz=0.0,
                          jacobian=lambda t, x: np.zeros(np.shape(x) + (2,)))
    phi = period_map(fam, zero, 1.0, 128)
    assert np.allclose(phi(np.eye(2)).final, np.diag([1.0, np.exp(-1.0)]), atol=1e-14)
    with pytest.raises(DegenerateFixedPointError):
        fixed_point(phi, [0.0, 1.0])


def test_fixed_point_free_translation_map_fails_loudly():
    # Phi(x) = x + 1 has no fixed point; the solver must raise, not return
    fam = GeneratorFamily(dim=1, A=lambda t: np.zeros(np.shape(t) + (1, 1)), T=1.0)
    const = NonlinearField(F=lambda t, x: np.ones_like(x), lipschitz=0.0,
                           jacobian=lambda t, x: np.zeros(np.shape(x) + (1,)))
    with pytest.raises((ConvergenceError, DegenerateFixedPointError)):
        fixed_point(period_map(fam, const, 1.0, 128), [0.0])


def test_fixed_point_iteration_cap_raises():
    # the rotation start needs two Newton steps; one is not enough
    cm = get_model("rotation-damped-2d")
    phi = period_map(cm.family, cm.field, 1.0, 1024)
    with pytest.raises(ConvergenceError) as info:
        fixed_point(phi, cm.region.midpoint, tol=1e-10, max_iter=1)
    assert 1e-10 < info.value.residual < 1e-3
    assert "did not reach 1.0e-10 in 1 iterations" in str(info.value)


def test_mild_solve_of_an_empty_batch_is_an_empty_path():
    cm = get_model("rotation-damped-2d")
    R = build_evolution(cm.family, 64)
    for shape in ((0, 2), (3, 0, 2)):
        traj = mild_solve(R, cm.field, np.empty(shape), grid=32)
        assert traj.states.shape == (33,) + shape
        assert traj.final.shape == shape


@pytest.mark.parametrize("model, lam, start", [
    ("scalar-linear", 1.0, 0.0),
    # x' = lam (-x + 3 tanh x + ...): from 1 the full step overshoots the
    # zero near 3 and is halved three times on the way
    ({"A": [[-1]], "F": ["3*tanh(s)+0.1*sin(2*pi*t/T)"], "lipschitz": 3,
      "region": {"center": [0], "radius": 4}}, 0.3, 1.0),
    # an exponent in s: its jacobian carries 0.5^(s s) (2 s log 0.5)
    ({"A": [[-1]], "F": ["2+sin(2*pi*t/T)+0.5^(s*s)"]}, 1.0, 0.0),
])
def test_fixed_point_solves_once_per_trial(monkeypatch, model, lam, start):
    # the Jacobian of every point rides in the solve of its point: one solve
    # at the start and one per trial step, accepted or halved
    import evolver.mild as mild
    from evolver.catalog import model_from_config

    cm = model_from_config(model)
    calls, records = [], []
    solve, newton = mild.mild_solve, mild.damped_newton

    def counted(R, F, x0, *args, **kwargs):
        calls.append(np.shape(x0))
        return solve(R, F, x0, *args, **kwargs)

    def recorded(*args, **kwargs):
        records.append(newton(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(mild, "mild_solve", counted)
    monkeypatch.setattr(mild, "damped_newton", recorded)
    fp = fixed_point(period_map(cm.family, cm.field, lam, 128), [start], tol=1e-10)
    (rec,) = records
    assert fp.iterations >= 2
    assert len(calls) == 1 + (fp.iterations - 1) + int(rec.halvings[0])
    assert rec.jacobians[0] == fp.iterations - 1
    # every solve is a point with its d tangent rows
    d = cm.dim
    assert set(calls) == {(1, 1 + d, d)}
    # the kept path is the one the last solve computed from the fixed point
    assert np.array_equal(fp.trajectory.states[0], fp.x)
    assert np.array_equal(fp.trajectory.final - fp.x, rec.gx[0])
