import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from evolver import (
    InvalidInputError,
    SingularResolventError,
    get_model,
    mat_exp,
    mat_power,
    operator_norm,
    resolvent,
)
from evolver.catalog import MODEL_KEYS
from evolver.linop import MAX_DIM, TAYLOR_DEGREES, TAYLOR_THETA, as_matrix, as_vector

from oracles import fd_eval, gram_norm, mp_expm_error, series_expm


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(InvalidInputError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(InvalidInputError):
        as_matrix(np.zeros(4))
    with pytest.raises(InvalidInputError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        as_matrix(np.zeros((MAX_DIM + 1, MAX_DIM + 1)))


def test_as_vector_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        as_vector([1.0, np.inf])
    with pytest.raises(InvalidInputError):
        as_vector([1.0, 2.0], dim=3)


def test_mat_exp_identity_at_zero():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(mat_exp(A, 0.0), np.eye(2))


def test_mat_exp_rotation_quarter_turn():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    got = mat_exp(J, np.pi / 2.0)
    assert np.allclose(got, J, atol=1e-12)


def test_mat_exp_matches_series_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = int(rng.integers(1, 7))
        A = rng.standard_normal((d, d))
        t = float(rng.uniform(-2.0, 2.0))
        assert np.allclose(mat_exp(A, t), series_expm(A, t), atol=1e-10, rtol=1e-10)


def test_mat_exp_stack_matches_slices():
    rng = np.random.default_rng(13)
    for d in (1, 2, 6):
        stack = rng.standard_normal((9, d, d))
        stack[3] = np.diag(rng.standard_normal(d))   # diagonal slice
        stack[4] = np.triu(stack[4])                 # triangular slice
        # mixed norms: every Taylor degree and different squaring counts
        # within one stack
        mixed = rng.standard_normal((12, d, d))
        mixed[5] = 0.0
        norms = np.abs(mixed).sum(axis=-2).max(axis=-1)
        norms[5] = 1.0
        mixed *= (np.geomspace(1e-3, 100.0, 12) / norms)[:, None, None]
        for S in (stack, mixed):
            for t in (1.0, 0.3):
                got = mat_exp(S, t)
                assert got.shape == S.shape
                for A, E in zip(S, got):
                    assert np.array_equal(E, mat_exp(A, t))
            assert np.array_equal(mat_exp(S, 0.0), np.broadcast_to(np.eye(d), S.shape))
        assert np.array_equal(mat_exp(mixed[5:6]), np.eye(d)[None])   # exp(0) = I
    bad = rng.standard_normal((4, 2, 2))
    bad[2, 0, 1] = np.inf
    with pytest.raises(InvalidInputError):
        mat_exp(bad)
    with pytest.raises(InvalidInputError):
        mat_exp(np.zeros((4, 2, 3)))
    with pytest.raises(InvalidInputError):
        as_matrix(np.zeros((4, 2, 2)))   # a stack is not one matrix


def _rel_1norm(X, ref):
    diff = np.abs(X - ref).sum(axis=-2).max(axis=-1)
    return diff / np.abs(ref).sum(axis=-2).max(axis=-1)


@pytest.mark.parametrize("key", MODEL_KEYS)
def test_mat_exp_catalog_step_stacks_match_scipy(key):
    fam = get_model(key).family
    for n in (16, 256, 8192):
        h = fam.T / n
        A = fam.stack(np.linspace(0.0, fam.T, n + 1)[:-1])
        ref = scipy.linalg.expm(h * A)
        assert np.max(_rel_1norm(mat_exp(A, h), ref)) <= 1e-14


@pytest.mark.parametrize("key", MODEL_KEYS)
def test_mat_exp_catalog_period_exponential_matches_mpmath(key):
    # n = 1: the whole-period step, ||T A(0)||_1 up to 57 on wave-k3.  There
    # scipy's own error reaches about 5e-14 (wave-k1), so the reference is
    # mpmath at 40 digits rather than scipy.
    fam = get_model(key).family
    A = fam.T * fam.stack(np.array([0.0]))[0]
    assert mp_expm_error(mat_exp(A), A) <= 1e-14


def test_mat_exp_accuracy_against_mpmath_within_10x_scipy():
    # 1-norms from below theta_4 to about 10 theta_30: every degree is the
    # chosen one somewhere, and the top norms go through squaring
    targets = np.geomspace(TAYLOR_THETA[0] / 4.0, 10.0 * TAYLOR_THETA[-1], 40)
    bins = np.searchsorted(TAYLOR_THETA, targets)
    assert set(bins.tolist()) == set(range(len(TAYLOR_DEGREES) + 1))
    rng = np.random.default_rng(21)
    for d in (2, 4, 6):
        cases = []
        for nrm in targets:
            A = rng.standard_normal((d, d))
            cases.append(A * nrm / np.abs(A).sum(axis=0).max())
        # nonnormal cases at 1-norms up to 60, where squaring amplifies
        # the kernel's rounding: upper triangles with large off-diagonals,
        # and a Jordan-like -I + 50 N.  scipy forms the diagonal and
        # superdiagonal of a triangle exactly, so at d = 2 its error is
        # below unit roundoff and the bound is a few ulps
        for nrm in np.geomspace(1.0, 60.0, 6):
            U = np.triu(rng.standard_normal((d, d)))
            U[np.triu_indices(d, 1)] *= 30.0
            cases.append(U * nrm / np.abs(U).sum(axis=0).max())
        cases.append(-np.eye(d) + 50.0 * np.eye(d, k=1))
        for A in cases:
            ours = mp_expm_error(mat_exp(A), A)
            theirs = mp_expm_error(scipy.linalg.expm(A), A)
            assert ours <= 10.0 * theirs, (d, np.abs(A).sum(axis=0).max(), ours, theirs)


def _taylor_tail(theta, m, terms=80):
    """sum_{j=m+1}^{m+terms} theta^j / j! in exact rational arithmetic."""
    x = Fraction(theta)
    term = x ** m / math.factorial(m)
    total = Fraction(0)
    for j in range(m + 1, m + terms + 1):
        term = term * x / j
        total += term
    return total


def test_taylor_theta_table_bounds_the_truncation_tail():
    # theta_m as stored (a float) must keep the degree-m tail within 2^-53;
    # beyond the 80 summed terms the tail is below 1e-60 for every entry
    unit = Fraction(1, 2 ** 53)
    assert len(TAYLOR_DEGREES) == len(TAYLOR_THETA)
    for m, theta in zip(TAYLOR_DEGREES, TAYLOR_THETA.tolist()):
        assert _taylor_tail(theta, m) <= unit, (m, theta)
    # the check is sharp: theta_25 rounded up to 2.559 exceeds the bound
    assert _taylor_tail(2.559, 25) > unit


def test_mat_exp_takes_no_linear_solve(monkeypatch):
    rng = np.random.default_rng(22)
    S = rng.standard_normal((12, 4, 4))
    norms = np.abs(S).sum(axis=-2).max(axis=-1)
    S *= (np.geomspace(1e-4, 100.0, 12) / norms)[:, None, None]   # low to top degrees, squarings

    def refuse(*args, **kwargs):
        raise AssertionError("mat_exp called a linear solver")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    E = mat_exp(S)
    monkeypatch.undo()
    assert max(mp_expm_error(X, A) for X, A in zip(E, S)) <= 1e-14


def test_mat_exp_semigroup_law():
    rng = np.random.default_rng(12)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        A = rng.standard_normal((d, d))
        s, t = rng.uniform(0.0, 1.5, size=2)
        lhs = mat_exp(A, s + t)
        rhs = mat_exp(A, t) @ mat_exp(A, s)
        assert np.allclose(lhs, rhs, atol=1e-10 * (1.0 + np.abs(lhs).max()))


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(13)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        A = rng.standard_normal((d, d)) * float(rng.uniform(0.1, 10.0))
        ref = gram_norm(A)
        assert abs(operator_norm(A) - ref) <= 1e-9 * (1.0 + ref)
    assert operator_norm(np.zeros((3, 3))) == 0.0


def test_operator_norm_clustered_top_pair():
    # sigma_2 / sigma_1 = 1 - 1e-9: a power iteration barely separates the
    # top pair and stops up to about 1e-9 relative short of sigma_1
    rng = np.random.default_rng(15)
    for d in (2, 3, 6):
        for scale in (1e-3, 1.0, 1e4):
            U, _ = np.linalg.qr(rng.standard_normal((d, d)))
            V, _ = np.linalg.qr(rng.standard_normal((d, d)))
            sig = np.linspace(1.0, 0.1, d)
            sig[1] = 1.0 - 1e-9
            M = scale * (U * sig) @ V.T
            ref = gram_norm(M)
            assert abs(operator_norm(M) - ref) <= 1e-13 * ref


def test_operator_norm_stack_matches_single_calls():
    rng = np.random.default_rng(16)
    M = rng.standard_normal((7, 4, 4))
    norms = operator_norm(M)
    assert norms.shape == (7,)
    assert norms.tolist() == [operator_norm(S) for S in M]


def _unit_norm_matrix(seed, d):
    G = np.random.default_rng(seed).standard_normal((d, d))
    return G / gram_norm(G)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(d=st.integers(1, 6), n=st.integers(0, 4096), seed=st.integers(0, 2 ** 32 - 1))
def test_mat_power_matches_numpy_matrix_power(d, n, seed):
    M = _unit_norm_matrix(seed, d)
    ref = np.linalg.matrix_power(M, n)
    got = mat_power(M, n)
    assert got.shape == (d, d)
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(d=st.integers(1, 6), ns=st.lists(st.integers(0, 4096), min_size=1, max_size=9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mat_power_stack_equals_single_calls(d, ns, seed):
    # lockstep powering: each slice is its own single call, bit for bit
    M = np.stack([_unit_norm_matrix(seed + i, d) for i in range(len(ns))])
    got = mat_power(M, np.array(ns))
    for S, n, P in zip(M, ns, got):
        assert np.array_equal(P, mat_power(S, n))
    # one exponent for the whole stack
    assert np.array_equal(mat_power(M, ns[0]), np.stack([mat_power(S, ns[0]) for S in M]))


def test_mat_power_zero_is_identity_and_huge_powers_are_cheap():
    M = np.array([[0.5, 0.2], [-0.1, 0.9]])
    assert np.array_equal(mat_power(M, 0), np.eye(2))
    assert np.array_equal(mat_power(np.stack([M, M]), [0, 1]), np.stack([np.eye(2), M]))
    # 10^7 is 24 squarings; the scalar case has a closed form
    got = mat_power(np.array([[1.0 - 1e-7]]), 10 ** 7)
    assert got[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-7)


@pytest.mark.parametrize("n", [-1, 2.5, 2.0, True, "3", [1, 2, 3], [[1]], [1, -2],
                               [True, 3], [3, np.True_]])
def test_mat_power_rejects_bad_powers(n):
    M = np.stack([np.eye(2), 0.5 * np.eye(2)])
    with pytest.raises(InvalidInputError):
        mat_power(M if np.ndim(n) == 1 else M[0], n)


def test_resolvent_diagonal_closed_form():
    A = np.diag([-1.0, -2.0])
    got = resolvent(A, 0.0)
    assert np.allclose(got, np.diag([1.0, 0.5]), atol=1e-14)


def test_resolvent_residual_property():
    rng = np.random.default_rng(14)
    for _ in range(30):
        d = int(rng.integers(1, 7))
        A = rng.standard_normal((d, d))
        mu = float(rng.uniform(1.0, 3.0)) + gram_norm(A)  # safely off the spectrum
        Rm = resolvent(A, mu)
        assert np.linalg.norm((mu * np.eye(d) - A) @ Rm - np.eye(d), 2) <= 1e-10


def test_resolvent_rejects_spectrum():
    A = np.diag([1.0, 2.0])
    with pytest.raises(SingularResolventError):
        resolvent(A, 1.0)
    with pytest.raises(InvalidInputError):
        resolvent(A, np.inf)


def test_fd_eval_returns_the_values_and_central_jacobians():
    # g(x, y) = (sin x + x y^2, exp(y) - x^3), evaluated in one call on the
    # K (2d + 1) rows of the points and their probes
    calls = []

    def g(P):
        calls.append(len(P))
        x, y = P[:, 0], P[:, 1]
        return np.stack([np.sin(x) + x * y ** 2, np.exp(y) - x ** 3], axis=-1)

    X = np.random.default_rng(4).uniform(-1.0, 1.0, (5, 2))
    x, y = X[:, 0], X[:, 1]
    exact = np.stack([np.stack([np.cos(x) + y ** 2, 2.0 * x * y], axis=-1),
                      np.stack([-3.0 * x ** 2, np.exp(y)], axis=-1)], axis=1)
    for h in (1e-5, np.full(5, 1e-5) * (1.0 + np.arange(5))):
        calls.clear()
        vals, J = fd_eval(g, X, h)
        assert calls == [5 * 5]
        assert np.array_equal(vals, g(X))
        assert J.shape == (5, 2, 2)
        assert np.allclose(J, exact, rtol=0.0, atol=1e-8)
