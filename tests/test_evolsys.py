import sys
import threading
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evolver.evolsys as evolsys
import evolver.wave as wave
from evolver import (
    GeneratorFamily,
    InvalidInputError,
    PreconditionError,
    ResourceLimitError,
    build_evolution,
    cocycle_defect,
    contraction_check,
    family_continuity_gap,
    affine_family,
    get_model,
    mat_exp,
    model_from_config,
    period_map,
)
from evolver.catalog import MODEL_KEYS
from evolver.semigroup import dissipativity_rate, metric_operator_norm

from oracles import gap_integral, rk4_transition, walk_operator


def _scalar_family():
    # A(t) = -(2 + sin(2 pi t)): closed-form evolution via the antiderivative
    return GeneratorFamily(
        dim=1,
        A=lambda t: -(2.0 + np.sin(2.0 * np.pi * t))[..., None, None],
        T=1.0,
    )


def _scalar_exact(t, s):
    anti = lambda u: 2.0 * u - np.cos(2.0 * np.pi * u) / (2.0 * np.pi)
    return np.exp(-(anti(t) - anti(s)))


def test_family_validation():
    with pytest.raises(InvalidInputError):
        GeneratorFamily(dim=0, A=lambda t: np.zeros((0, 0)), T=1.0)
    with pytest.raises(InvalidInputError):
        GeneratorFamily(dim=1, A=lambda t: np.array([[-1.0]]), T=-1.0)
    with pytest.raises(InvalidInputError):
        GeneratorFamily(dim=2, A=lambda t: np.array([[-1.0]]), T=1.0)


def _rotation():
    return get_model("rotation-damped-2d").family


def _swirl(t):
    return np.multiply.outer(np.sin(2.0 * np.pi * t), [[0.0, 1.0], [-1.0, 0.0]])


def _coupled_wave():
    # the negative control of spectral_invariance_gap: damping block -(beta I + C)
    model = get_model("wave-k3").wave
    shift = np.zeros((6, 6))
    shift[3:, 3:] = -0.1 * np.ones((3, 3))
    return affine_family(GeneratorFamily(dim=model.dim, A=wave._block_generator(
        model.eigs, model.beta), T=model.T), B=lambda t: shift)


_CONTRACT_FAMILIES = {
    **{key: (lambda key=key: get_model(key).family) for key in MODEL_KEYS},
    "inline": lambda: model_from_config({
        "A": [["-(1+0.5*cos(2*pi*t/T))", "0.25"], ["t/T-1", "-2^2"]], "T": 1.5,
    }).family,
    "scale": lambda: affine_family(_rotation(), 0.3),
    "shift": lambda: affine_family(_rotation(), B=_swirl),
    "shift-constant": lambda: affine_family(_rotation(), B=lambda t: np.eye(2)),
    # the deformation -mu I + (1 - mu) A(t) toward -I, at mu = 0.4
    "mu_rescale": lambda: affine_family(_rotation(), 0.6, lambda t: -(0.4 / 0.6) * np.eye(2)),
    # monodromy's family lam (A + F_inf)
    "monodromy": lambda: affine_family(get_model("wave-k1").family, 0.8, lambda t: -np.eye(2)),
    "wave-coupled": _coupled_wave,
}


@pytest.mark.parametrize("name", sorted(_CONTRACT_FAMILIES))
def test_family_broadcasts_over_time(name):
    fam = _CONTRACT_FAMILIES[name]()
    inner = np.sort(np.random.default_rng(3).uniform(0.0, fam.T, 31))
    ts = np.concatenate([[0.0], inner, [fam.T]])
    stack = fam.A(ts)
    assert stack.shape == (len(ts), fam.dim, fam.dim)
    assert np.array_equal(stack, np.stack([fam.A(t) for t in ts]))
    assert np.array_equal(stack, np.stack([fam.A(float(t)) for t in ts]))


@pytest.mark.parametrize("dim, A", [
    (2, lambda t: -np.eye(2)),                                      # (d, d) for any t
    (1, lambda t: np.array([[-(2.0 + np.sin(2.0 * np.pi * t))]])),  # (1, 1, m)
])
def test_family_ignoring_array_time_is_rejected(dim, A):
    with pytest.raises(InvalidInputError, match="expected"):
        GeneratorFamily(dim=dim, A=A, T=1.0)


def test_build_makes_one_family_call():
    fam = get_model("wave-k3").family
    calls = []

    def counted_A(t):
        calls.append(np.shape(t))
        return fam.A(t)

    counted = GeneratorFamily(dim=fam.dim, A=counted_A, T=fam.T)
    calls.clear()
    build_evolution(counted, 300)
    assert calls == [(300,)]


def test_build_guards():
    fam = _scalar_family()
    with pytest.raises(InvalidInputError):
        build_evolution(fam, 0)
    with pytest.raises(ResourceLimitError):
        build_evolution(fam, 2 ** 14 + 1)


def test_build_rejects_overflowing_steps():
    # exp(h A) = e^1000 is not a float, though A itself is finite
    fam = GeneratorFamily(dim=1, A=lambda t: np.full(np.shape(t) + (1, 1), 1000.0), T=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InvalidInputError, match="overflow"):
            build_evolution(fam, 1)


def test_overflowing_prefix_raises_and_stores_nothing():
    # each step is e^400 and finite, but R(t_2, 0) = e^800 is not
    fam = GeneratorFamily(dim=1, A=lambda t: np.full(np.shape(t) + (1, 1), 400.0), T=4.0)
    R = build_evolution(fam, 4)
    assert np.all(np.isfinite(R.steps))
    assert R.operator(1.0, 0.0)[0, 0] == R.steps[0, 0, 0]
    for query in (lambda: R.prefix, lambda: R.operator(4.0, 0.0)):
        with pytest.raises(InvalidInputError, match="overflow"):
            query()
    assert len(R._prefix) == 2


def _per_node_build(family, n):
    # reference: one mat_exp per cell, frozen at the cell's midpoint
    # t_j + h/2, prefix products from time 0
    h = family.T / n
    nodes = np.linspace(0.0, family.T, n + 1)
    steps = np.stack([mat_exp(family.A(t + h / 2), h) for t in nodes[:-1]])
    prefix = [np.eye(family.dim)]
    for step in steps:
        prefix.append(step @ prefix[-1])
    return steps, np.stack(prefix)


@pytest.mark.parametrize("key", ["scalar-linear", "rotation-damped-2d", "wave-k3"])
def test_stacked_build_equals_per_node_exponentials(key):
    fam = get_model(key).family
    for n in (1, 37, 256):
        R = build_evolution(fam, n)
        steps, prefix = _per_node_build(fam, n)
        assert np.array_equal(R.steps, steps)
        assert np.array_equal(R.prefix, prefix)


def test_a_period_map_solve_forms_no_prefix_product():
    # the map's steps are R.steps themselves, so no solve reads R(t_k, 0)
    cm = get_model("rotation-damped-2d")
    phi = period_map(cm.family, cm.field, 0.5, 64)
    X = np.array([[0.3, -0.2], [0.0, 0.1]])
    phi(X)
    phi.linearize(X)
    assert len(phi.R._prefix) == 1


@pytest.mark.parametrize("grid, reach", [
    (64, 1),    # grid = n: the first step is R(t_1, 0)
    (16, 4),    # each step spans four cells: the first is R(t_4, 0)
    (128, 0),   # the first step ends off the grid: no prefix product
])
def test_step_operators_form_only_the_prefix_they_reach(grid, reach):
    fam = affine_family(get_model("rotation-damped-2d").family, 0.5)
    R = build_evolution(fam, 64)
    R.step_operators(np.linspace(0.0, fam.T, grid + 1))
    stored = R._prefix
    assert len(stored) == reach + 1
    _, prefix = _per_node_build(fam, 64)
    assert np.array_equal(stored, prefix[:reach + 1])


def test_prefix_queries_in_either_order_give_the_same_bits():
    fam = get_model("wave-k3").family
    n = 256
    _, prefix = _per_node_build(fam, n)
    high, low = np.array([255, 200, 256]), np.array([3, 1, 40])
    R1, R2 = build_evolution(fam, n), build_evolution(fam, n)
    h1 = R1.operators(R1.nodes[high], 0.0)
    l1 = R1.operators(R1.nodes[low], 0.0)
    l2 = R2.operators(R2.nodes[low], 0.0)
    assert len(R2._prefix) == 41
    h2 = R2.operators(R2.nodes[high], 0.0)
    assert np.array_equal(h1, h2) and np.array_equal(l1, l2)
    assert np.array_equal(h1, prefix[high]) and np.array_equal(l1, prefix[low])


def test_concurrent_prefix_queries_get_the_single_thread_bits():
    fam = get_model("wave-k3").family
    n = 512
    _, prefix = _per_node_build(fam, n)
    ks = (512, 97, 300, 5)
    for _ in range(3):
        R = build_evolution(fam, n)
        results, errors = {}, []
        start = threading.Barrier(len(ks))

        def work(k):
            try:
                start.wait(timeout=60)
                results[k] = R.operator(R.nodes[k], 0.0)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in ks]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert not errors
        for k in ks:
            assert np.array_equal(results[k], prefix[k])
        assert np.array_equal(R._prefix, prefix[:len(R._prefix)])


@pytest.mark.parametrize("bad", [
    np.array([[-1.0, 0.0], [0.0, np.nan]]),   # non-finite
    np.array([[-1.0]]),                       # would broadcast into (2, 2)
    -1.0,                                     # scalar, would broadcast too
    -np.eye(3),                               # too large
])
def test_build_rejects_bad_interior_node(bad):
    # A(0) and A(T) are fine, so only the build sees the bad value at
    # 0.5 <= t < 1: a non-finite slice or a stack of the wrong shape
    def A(t):
        good = np.multiply.outer(np.ones_like(t), -np.eye(2))
        inner = (np.asarray(t) >= 0.5) & (np.asarray(t) < 1.0)
        if not np.any(inner):
            return good
        if np.shape(bad) == (2, 2):
            good[inner] = bad
            return good
        return np.broadcast_to(bad, np.shape(t) + np.shape(bad))

    fam = GeneratorFamily(dim=2, A=A, T=1.0)
    with pytest.raises(InvalidInputError):
        build_evolution(fam, 16)


@st.composite
def _off_grid_triples(draw):
    key = draw(st.sampled_from(["scalar-linear", "rotation-damped-2d", "wave-k3"]))
    n = draw(st.integers(1, 1024))
    # a whole cell index plus a fraction in (0, 1): never on a grid node
    cells = [draw(st.integers(0, n - 1)) for _ in range(3)]
    fracs = [draw(st.floats(1e-3, 1.0 - 1e-3)) for _ in range(3)]
    s, r, t = sorted((c + f) / n for c, f in zip(cells, fracs))
    return key, n, (t, r, s)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_off_grid_triples())
def test_cocycle_law_at_random_off_grid_triples(case):
    key, n, (t, r, s) = case
    fam = get_model(key).family
    R = build_evolution(fam, n)
    # the same bound as the evolsys experiment's cocycle check
    assert cocycle_defect(R, t * fam.T, r * fam.T, s * fam.T) <= 1e-12


def test_identity_and_ordering():
    R = build_evolution(_scalar_family(), 64)
    assert np.array_equal(R.operator(0.37, 0.37), np.eye(1))
    with pytest.raises(PreconditionError):
        R.operator(0.2, 0.5)
    with pytest.raises(PreconditionError):
        R.operator(1.5, 0.0)


def test_scalar_closed_form_and_order():
    fam = _scalar_family()
    pairs = [(1.0, 0.0), (0.77, 0.13), (0.5, 0.25)]
    errs = []
    for n in (256, 1024, 4096):
        R = build_evolution(fam, n)
        errs.append(max(abs(R.operator(t, s)[0, 0] - _scalar_exact(t, s))
                        for t, s in pairs))
    assert errs[1] < 1e-3
    order = np.polyfit(np.log([256, 1024, 4096]), np.log(errs), 1)[0]
    assert -order >= 0.9  # first order in 1/n


def test_cocycle_identity_on_grid():
    cm = get_model("rotation-damped-2d")
    R = build_evolution(cm.family, 128)
    nodes = R.nodes
    worst = 0.0
    for (i, j, k) in [(0, 17, 64), (5, 40, 101), (32, 64, 128), (0, 64, 128)]:
        worst = max(worst, cocycle_defect(R, nodes[k], nodes[j], nodes[i]))
    assert worst <= 1e-12
    with pytest.raises(PreconditionError):
        cocycle_defect(R, 0.1, 0.5, 0.2)


def test_cocycle_identity_off_grid():
    # fractional times inside cells are still exact for the frozen family
    R = build_evolution(_scalar_family(), 64)
    worst = max(cocycle_defect(R, t, r, s)
                for (s, r, t) in [(0.013, 0.41, 0.97), (0.2, 0.50001, 0.7)])
    assert worst <= 1e-12


def test_matches_rk4_oracle():
    cm = get_model("rotation-damped-2d")
    fam = cm.family
    R = build_evolution(fam, 4096)
    ref = rk4_transition(fam.A, fam.T, 0.0, 20000)
    assert np.linalg.norm(R.operator(fam.T, 0.0) - ref, 2) < 1e-3


def test_apply_matches_operator_and_batches():
    R = build_evolution(get_model("rotation-damped-2d").family, 64)
    rng = np.random.default_rng(21)
    X = rng.standard_normal((5, 2))
    M = R.operator(0.9, 0.1)
    got = R.apply(0.9, 0.1, X)
    assert np.allclose(got, X @ M.T, atol=1e-12)
    assert np.allclose(R.apply(0.9, 0.1, X[0]), M @ X[0], atol=1e-12)
    with pytest.raises(InvalidInputError):
        R.apply(0.9, 0.1, np.zeros(3))


def test_contraction_check_certifies_rate():
    fam = _scalar_family()  # actual rate is 1 at the worst node
    R = build_evolution(fam, 256)
    assert contraction_check(R, 1.0) <= 1e-9
    # a rate above the true one must show positive excess
    assert contraction_check(R, 3.5) > 1e-3


def _loop_contraction_pairs(R, m=64):
    # reference: golden-ratio and sqrt(2) pairs off the grid, then every
    # pair of every (n // 8)-th node, one at a time
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    pairs = []
    for i in range(m):
        a = ((i + 1) * phi) % 1.0
        b = ((i + 1) * np.sqrt(2.0)) % 1.0
        lo, hi = sorted((a * R.T, b * R.T))
        pairs.append((hi, lo))
    ids = range(0, R.n + 1, max(1, R.n // 8))
    return pairs + [(R.nodes[b], R.nodes[a]) for a in ids for b in ids if a < b]


@pytest.mark.parametrize("key, n", [("rotation-damped-2d", 100), ("wave-k3", 256),
                                    ("scalar-linear", 5)])
def test_contraction_check_samples_match_loop(key, n):
    R = build_evolution(get_model(key).family, n)
    G = R.family.metric if R.family.metric is not None else np.eye(R.dim)
    t, s = np.array(_loop_contraction_pairs(R)).T
    omega = float(np.min(dissipativity_rate(R.family.stack(R.nodes), G)))
    want = np.max(metric_operator_norm(R.operators(t, s), G) * np.exp(omega * (t - s)) - 1.0)
    assert contraction_check(R, omega) == want


def test_scale_and_shift_family():
    fam = _scalar_family()
    assert affine_family(fam, 0.5).A(0.25)[0, 0] == pytest.approx(-1.5)
    shifted = affine_family(fam, B=lambda t: np.array([[1.0]]))
    assert shifted.A(0.25)[0, 0] == pytest.approx(-2.0)
    both = affine_family(fam, 0.5, lambda t: np.array([[1.0]]))
    assert both.A(0.25)[0, 0] == pytest.approx(-1.0)
    # the shift is added before scaling: a (A + B), not a A + B
    ts = np.linspace(0.0, 1.0, 9)
    B = lambda t: np.multiply.outer(np.cos(2.0 * np.pi * t), [[0.5]])
    assert np.array_equal(affine_family(fam, 0.3, B).A(ts), 0.3 * (fam.A(ts) + B(ts)))


def test_affine_family_scales_the_computed_rate():
    # the rate of a A(t) in the family's metric is a times the rate of A(t),
    # up to roundoff; the metric is kept, and a negative or non-finite a is refused
    for key in MODEL_KEYS:
        fam = get_model(key).family
        ts = np.linspace(0.0, fam.T, 33)
        rate = dissipativity_rate(fam.stack(ts), fam.metric)
        for a in (0.0, 0.3, 1.0, 2.5):
            scaled = affine_family(fam, a)
            assert scaled.metric is fam.metric
            got = dissipativity_rate(scaled.stack(ts), scaled.metric)
            assert np.allclose(got, a * rate, rtol=1e-12, atol=1e-12)
        for bad in (-1.0, -1e-300, np.inf, np.nan):
            with pytest.raises(InvalidInputError):
                affine_family(fam, bad)


def test_continuity_gap_inequality_and_scaling():
    fam = _scalar_family()
    v = np.array([1.0])
    lhss = []
    for eps in (1e-1, 1e-2, 1e-3):
        pert = affine_family(fam, B=lambda t, e=eps: (e * np.cos(2.0 * np.pi * t))[..., None, None])
        [(lhs, rhs)] = family_continuity_gap(fam, [pert], 512, v)
        assert lhs <= rhs
        # rhs = ||v||_V * eps * int |cos| = 3 * eps * (2/pi)
        assert rhs == pytest.approx(3.0 * eps * 2.0 / np.pi, rel=1e-6)
        lhss.append(lhs)
    assert lhss[0] / lhss[1] == pytest.approx(10.0, rel=0.2)
    assert lhss[1] / lhss[2] == pytest.approx(10.0, rel=0.2)


@pytest.mark.parametrize("key", ["wave-k3", "rotation-damped-2d", "scalar-linear"])
def test_continuity_gap_rhs_matches_adaptive_quadrature(key):
    # the evolsys experiment's perturbations: A(t) + eps cos(2 pi t / T) I
    fam = get_model(key).family
    T = fam.T
    v = np.zeros(fam.dim)
    v[0] = 1.0
    eps_sweep = (1e-1, 1e-2, 1e-3, 1e-4)
    perts = [
        affine_family(fam, B=lambda t, e=eps: np.multiply.outer(
            e * np.cos(2.0 * np.pi * t / T), np.eye(fam.dim)))
        for eps in eps_sweep
    ]
    gaps = family_continuity_gap(fam, perts, 64, v)
    norm_v = np.linalg.norm(fam.A(0.0) @ v) + np.linalg.norm(v)
    for pert, (_, rhs) in zip(perts, gaps):
        ref = norm_v * gap_integral(fam.A, pert.A, T)
        assert abs(rhs - ref) <= 1e-12 * ref


def test_continuity_gap_identical_families_is_zero():
    fam = _scalar_family()
    [(lhs, rhs)] = family_continuity_gap(fam, [_scalar_family()], 128, [1.0])
    assert lhs == 0.0
    assert rhs <= 1e-12


def _loop_continuity_lhs(F1, F2, n, v, stride):
    # reference: every start node walked forward one matrix-vector step at a time
    R1, R2 = build_evolution(F1, n), build_evolution(F2, n)
    x = np.asarray(v, dtype=float)
    lhs = 0.0
    for js in range(0, n, stride):
        w1, w2 = x, x
        for j in range(js, n):
            w1 = R1.steps[j] @ w1
            w2 = R2.steps[j] @ w2
            lhs = max(lhs, float(np.linalg.norm(w1 - w2)))
    return lhs


_BUMPS = {
    "cosine": lambda s: 0.1 * np.cos(2.0 * np.pi * s),
    # short and late: the largest gap starts just before it, not at node 0
    "late": lambda s: 0.1 * np.exp(-((s - 0.85) / 0.03) ** 2),
    # zero on every node before the last start of each case below, so
    # the largest gap starts at the last start node
    "end": lambda s: 10.0 * np.maximum(s - 0.978, 0.0),
}


@pytest.mark.parametrize("key", ["scalar-linear", "rotation-damped-2d", "wave-k3"])
@pytest.mark.parametrize("bump", sorted(_BUMPS))
@pytest.mark.parametrize("n, stride", [(128, None), (100, 7), (64, 1)])
def test_continuity_gap_batched_starts_match_loop(monkeypatch, key, bump, n, stride):
    # lhs is a difference of O(1) states, so its relative roundoff grows
    # like 1/eps; bumps of size 0.1 keep the comparison at the 1e-13 level
    if stride is not None:
        # the stride is max(1, n // GAP_STARTS); 7 does not divide 100
        monkeypatch.setattr(evolsys, "GAP_STARTS", n // stride)
    fam = get_model(key).family
    v = np.zeros(fam.dim)
    v[0] = 1.0
    # a bump times a fixed full matrix (a multiple of I would commute with R)
    P = np.random.default_rng(2).standard_normal((fam.dim, fam.dim))
    pert = affine_family(fam, B=lambda t: np.multiply.outer(_BUMPS[bump](t / fam.T), P))
    [(lhs, _)] = family_continuity_gap(fam, [pert], n, v)
    stride = max(1, n // evolsys.GAP_STARTS)
    ref = _loop_continuity_lhs(fam, pert, n, v, stride)
    assert ref > 0.0
    assert abs(lhs - ref) <= 1e-13 * ref
    if bump != "cosine" and stride < n:
        assert ref > _loop_continuity_lhs(fam, pert, n, v, n)   # beats node 0 alone


def test_continuity_gap_requires_matching_shapes():
    fam = _scalar_family()
    other = GeneratorFamily(dim=1, A=lambda t: np.full(np.shape(t) + (1, 1), -1.0), T=2.0)
    with pytest.raises(PreconditionError):
        family_continuity_gap(fam, [other], 64, [1.0])


def test_continuity_gap_batch_equals_single_calls():
    fam = _scalar_family()
    perts = [
        affine_family(fam, B=lambda t, e=eps: (e * np.cos(2.0 * np.pi * t))[..., None, None])
        for eps in (1e-1, 1e-3)
    ]
    both = family_continuity_gap(fam, perts, 128, [1.0])
    assert both == [family_continuity_gap(fam, [p], 128, [1.0])[0] for p in perts]
    with pytest.raises(InvalidInputError):
        family_continuity_gap(fam, [], 128, [1.0])


def _per_cell_stack(R, times):
    return np.stack([walk_operator(R, b, a, mat_exp, evolsys.SNAP)
                     for a, b in zip(times[:-1], times[1:])])


@lru_cache(maxsize=None)
def _system(key, n):
    return build_evolution(get_model(key).family, n)


@st.composite
def _pairs(draw):
    key = draw(st.sampled_from(["scalar-linear", "rotation-damped-2d", "wave-k3"]))
    n = draw(st.sampled_from([1, 7, 64, 256]))
    T = get_model(key).T
    tol = evolsys.SNAP * max(1.0, T)
    # on a node (exactly, or off it by less than the snap), or inside a cell
    on_node = st.builds(lambda i, o: T * i / n + o * tol,
                        st.integers(0, n), st.sampled_from([0.0, 0.0, 0.5, -0.5, 0.99]))
    in_cell = st.builds(lambda c, f: T * (c + f) / n,
                        st.integers(0, n - 1), st.floats(1e-6, 1.0 - 1e-6))
    times = st.one_of(on_node, in_cell)
    pairs = draw(st.lists(st.tuples(times, times), min_size=1, max_size=12))
    return key, n, [(max(a, b), min(a, b)) for a, b in pairs]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_pairs())
def test_operators_equal_cell_walk(case):
    key, n, pairs = case
    R = _system(key, n)
    t, s = np.array(pairs).T
    got = R.operators(t, s)
    assert got.shape == (len(pairs), R.dim, R.dim)
    for k, (tk, sk) in enumerate(pairs):
        assert np.array_equal(got[k], walk_operator(R, tk, sk, mat_exp, evolsys.SNAP))
    assert np.array_equal(R.operator(*pairs[0]), got[0])


def test_operators_broadcast_shapes():
    R = _system("rotation-damped-2d", 64)
    s = np.array([[0.0, 0.1], [0.25, 0.3]]) * R.T
    stack = R.operators(R.T, s)
    assert stack.shape == (2, 2, 2, 2)
    assert np.array_equal(stack[1, 0], R.operator(R.T, s[1, 0]))
    assert R.operator(0.5, 0.25).shape == (2, 2)


@pytest.mark.parametrize("t, s, err", [
    ([0.5, 0.2], [0.1, 0.5], PreconditionError),      # reversed pair
    ([0.5, 1.5], [0.1, 0.0], PreconditionError),      # t after T
    ([0.5, 0.4], [0.1, -0.1], PreconditionError),     # s before 0
    ([0.5, np.nan], [0.1, 0.0], InvalidInputError),
    ([0.5, 0.4], [0.1, -np.inf], InvalidInputError),
])
def test_operators_reject_bad_pairs(t, s, err):
    R = build_evolution(_scalar_family(), 64)
    with pytest.raises(err):
        R.operators(np.array(t), np.array(s))
    with pytest.raises(err):
        R.operator(t[1], s[1])
    with pytest.raises(err):
        R.apply(t[1], s[1], [1.0])


def test_cocycle_defect_broadcasts_over_triples():
    R = _system("wave-k3", 64)
    rng = np.random.default_rng(3)
    s, r, t = np.sort(rng.uniform(0.0, R.T, (3, 9)), axis=0)
    batch = cocycle_defect(R, t, r, s)
    assert batch.shape == (9,)
    assert np.array_equal(batch, [cocycle_defect(R, *v) for v in zip(t, r, s)])
    with pytest.raises(PreconditionError):
        cocycle_defect(R, t, s, r)


@pytest.mark.parametrize("key", ["scalar-linear", "rotation-damped-2d", "wave-k3"])
@pytest.mark.parametrize("n, grid", [
    (128, 128),   # grid = n: whole cells, first cell from prefix
    (64, 128),    # grid = 2n: every cell is a partial cell
    (256, 128),   # n = 2 grid: two whole cells per step
    (100, 300),   # neither divides the other
    (300, 128),
])
def test_step_operators_equal_per_cell_operators(key, n, grid):
    fam = get_model(key).family
    R = build_evolution(fam, n)
    times = np.linspace(0.0, fam.T, grid + 1)
    assert np.array_equal(R.step_operators(times), _per_cell_stack(R, times))


def test_step_operators_nonuniform_times():
    fam = get_model("rotation-damped-2d").family
    R = build_evolution(fam, 64)
    rng = np.random.default_rng(5)
    inner = np.sort(rng.uniform(0.0, fam.T, 40))
    times = np.concatenate([[0.0], inner, [R.nodes[40], fam.T]])
    times = np.unique(times)
    assert np.array_equal(R.step_operators(times), _per_cell_stack(R, times))
    # times within and just beyond the on-node snap, and ends that overhang
    # [0, T] by less than it: cells may be empty, whole or partial
    tol = evolsys.SNAP * max(1.0, fam.T)
    offsets = rng.choice([0.0, 0.5, -0.5, 0.99, 1.5, -1.5, 2.5], 60) * tol
    near = R.nodes[rng.integers(1, 64, 60)] + offsets
    times = np.unique(np.concatenate([[-0.5 * tol], near, inner[:10], [fam.T + 0.5 * tol]]))
    assert np.array_equal(R.step_operators(times), _per_cell_stack(R, times))


def test_step_operators_make_one_stacked_exponential(monkeypatch):
    fam = get_model("rotation-damped-2d").family
    calls = {"mat_exp": 0, "A": 0}

    def counted_A(t):
        calls["A"] += 1
        return fam.A(t)

    def counted_mat_exp(*args, **kwargs):
        calls["mat_exp"] += 1
        return mat_exp(*args, **kwargs)

    R = build_evolution(GeneratorFamily(dim=fam.dim, A=counted_A, T=fam.T), 64)
    monkeypatch.setattr(evolsys, "mat_exp", counted_mat_exp)
    calls.update(mat_exp=0, A=0)   # count only what step_operators does
    times = np.linspace(0.0, fam.T, 97)
    E = R.step_operators(times)
    assert not E.flags.writeable
    with pytest.raises(ValueError):
        E[0, 0, 0] = 1.0
    first = dict(calls)
    assert first["mat_exp"] == 1   # one stacked call for all partial cells
    assert first["A"] <= 64        # one A(t) per distinct node
    other = R.step_operators(np.linspace(0.0, fam.T, 33))
    assert other.shape == (32, 2, 2)


@pytest.mark.parametrize("bad", [
    np.array([0.0, 0.5, 0.5, 1.0]),   # not strictly increasing
    np.array([0.0, 0.7, 0.3, 1.0]),
    np.array([0.5]),                  # length < 2
    np.zeros((2, 3)),                 # not 1-d
])
def test_step_operators_reject_bad_times_every_call(bad):
    R = build_evolution(_scalar_family(), 16)
    R.step_operators(np.linspace(0.0, 1.0, 5))
    for _ in range(2):
        with pytest.raises(InvalidInputError):
            R.step_operators(bad)


def test_step_operators_concurrent_misses_agree():
    fam = get_model("rotation-damped-2d").family
    grids = [np.linspace(0.0, fam.T, m + 1) for m in (48, 96, 100)]
    refs = [_per_cell_stack(build_evolution(fam, 64), g) for g in grids]
    R = build_evolution(fam, 64)
    results, errors = [], []

    def work(k):
        try:
            for i in range(len(grids)):
                g = grids[(i + k) % len(grids)]
                results.append(((i + k) % len(grids), R.step_operators(g)))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    assert len(results) == 6 * len(grids)
    for i, E in results:
        assert np.array_equal(E, refs[i])
        assert not E.flags.writeable
