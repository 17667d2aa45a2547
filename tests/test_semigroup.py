import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from evolver import (
    ChernoffScheme,
    ChernoffSequence,
    ConvergenceTable,
    InvalidInputError,
    InvalidMetricError,
    PreconditionError,
    chernoff_defect,
    chernoff_power_limit,
    chernoff_sum_limit,
    dissipativity_rate,
    get_model,
    mat_exp,
    metric_cholesky,
    metric_norm,
    metric_operator_norm,
    resolvent_scheme,
)

from oracles import eigh_rate, gram_norm, loop_power_limit, loop_sum_limit


def exponential_scheme(A_of_mu, dim):
    """The exact Chernoff scheme L(lam, mu) = exp(lam A^(mu))."""
    return ChernoffScheme(L=lambda lam, mu: mat_exp(A_of_mu(mu), lam),
                          limit_generator=A_of_mu, dim=dim)


def test_metric_cholesky_validation():
    with pytest.raises(InvalidMetricError):
        metric_cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(InvalidMetricError):
        metric_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    L = metric_cholesky(np.array([[4.0, 0.0], [0.0, 9.0]]))
    assert np.allclose(L @ L.T, np.diag([4.0, 9.0]))


def test_metric_norm_and_operator_norm():
    G = np.array([[4.0, 0.0], [0.0, 1.0]])
    assert metric_norm([1.0, 0.0], G) == pytest.approx(2.0)
    # congruence: G-norm of M equals Euclidean norm of L^T M L^{-T}
    rng = np.random.default_rng(5)
    for _ in range(20):
        M = rng.standard_normal((2, 2))
        L = np.linalg.cholesky(G)
        ref = gram_norm(L.T @ M @ np.linalg.inv(L).T)
        assert metric_operator_norm(M, G) == pytest.approx(ref, abs=1e-12)


def test_metric_operator_norm_stack_matches_loop():
    # one factorization of G serves the whole stack, slice by slice the same norms
    rng = np.random.default_rng(8)
    for d in (1, 2, 3, 6):
        W = rng.standard_normal((d, d))
        G = W @ W.T + d * np.eye(d)
        M = rng.standard_normal((30, d, d))
        got = metric_operator_norm(M, G)
        assert got.shape == (30,)
        assert np.array_equal(got, [metric_operator_norm(m, G) for m in M])


def test_dissipativity_rate_frozen_example():
    A = np.array([[0.0, 1.0], [-1.0, -2.0]])
    assert dissipativity_rate(A) == pytest.approx(0.0, abs=1e-12)
    assert dissipativity_rate(np.diag([-1.0, -3.0])) == pytest.approx(1.0)


def test_dissipativity_rate_certifies_decay():
    # e^{tA} must contract at the certified rate in the G norm
    rng = np.random.default_rng(6)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        B = rng.standard_normal((d, d))
        A = B - (gram_norm(B) + 0.1) * np.eye(d)
        W = rng.standard_normal((d, d))
        G = W @ W.T + d * np.eye(d)
        w = dissipativity_rate(A, G)
        for t in (0.1, 0.5, 1.7):
            nrm = metric_operator_norm(mat_exp(A, t), G)
            assert nrm <= np.exp(-w * t) + 1e-9


def test_dissipativity_rate_stack_matches_eigh_oracle():
    rng = np.random.default_rng(7)
    cases = []
    for d in (1, 2, 3, 6):
        W = rng.standard_normal((d, d))
        M = rng.standard_normal((40, d, d)) * rng.uniform(0.1, 10.0, (40, 1, 1))
        cases += [(M, None), (M, W @ W.T + d * np.eye(d))]
    fam = get_model("wave-k3").family   # damped wave blocks in the eta metric
    cases.append((fam.stack(np.linspace(0.0, fam.T, 65)), fam.metric))
    for M, G in cases:
        rates = dissipativity_rate(M, G)
        assert rates.shape == (len(M),)
        for Mi, rate in zip(M, rates):
            ref = eigh_rate(Mi, G)
            assert abs(rate - ref) <= 1e-13 * max(1.0, abs(ref))
            single = dissipativity_rate(Mi, G)
            assert isinstance(single, float)
            assert abs(single - ref) <= 1e-13 * max(1.0, abs(ref))


def test_dissipativity_rate_stack_rejects_bad_input():
    M = np.stack([-np.eye(2), -2.0 * np.eye(2)])
    with pytest.raises(InvalidMetricError):
        dissipativity_rate(M, np.array([[1.0, 2.0], [2.0, 1.0]]))   # indefinite
    with pytest.raises(InvalidMetricError):
        dissipativity_rate(M, np.array([[1.0, 0.5], [0.0, 1.0]]))   # not symmetric
    with pytest.raises(InvalidInputError):
        dissipativity_rate(M, np.eye(3))
    bad = M.copy()
    bad[1, 0, 1] = np.nan
    with pytest.raises(InvalidInputError):
        dissipativity_rate(bad)
    bad[1, 0, 1] = np.inf
    with pytest.raises(InvalidInputError):
        dissipativity_rate(bad, np.diag([1.0, 2.0]))


def test_contraction_semigroup_validate():
    # a claimed rate holds when the dissipativity rate reaches it
    A = np.diag([-1.0, -2.0])
    rate = dissipativity_rate(A)
    assert rate == pytest.approx(1.0)
    assert rate >= 0.5 and not rate >= 1.5


def test_chernoff_defect_scalar_frozen():
    lhs, rhs = chernoff_defect(np.array([[0.5]]), np.array([1.0]), 4)
    assert lhs == pytest.approx(abs(np.exp(-2.0) - 0.0625), abs=1e-14)
    assert rhs == pytest.approx(1.0, abs=1e-14)


def test_chernoff_defect_bound_random_sweep():
    rng = np.random.default_rng(7)
    for _ in range(60):
        d = int(rng.integers(1, 7))
        G = rng.standard_normal((d, d))
        T = G * (rng.uniform(0.2, 0.999) / gram_norm(G))
        x = rng.standard_normal(d)
        n = int(rng.integers(0, 65))
        lhs, rhs = chernoff_defect(T, x, n)
        assert lhs <= rhs + 1e-9


def test_chernoff_defect_preconditions():
    with pytest.raises(PreconditionError):
        chernoff_defect(np.array([[1.5]]), np.array([1.0]), 3)
    with pytest.raises(InvalidInputError):
        chernoff_defect(np.array([[0.5]]), np.array([1.0]), -1)


def _contraction_stack(seed, d, m):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, d, d))
    scale = rng.uniform(0.2, 0.999, size=m) / np.linalg.norm(G, 2, axis=(1, 2))
    return G * scale[:, None, None], rng.standard_normal((m, d))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(d=st.integers(1, 6), ns=st.lists(st.integers(0, 64), min_size=1, max_size=12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_chernoff_defect_stack_equals_single_calls(d, ns, seed):
    T, X = _contraction_stack(seed, d, len(ns))
    lhs, rhs = chernoff_defect(T, X, np.array(ns))
    assert lhs.shape == rhs.shape == (len(ns),)
    single = [chernoff_defect(Ti, xi, n) for Ti, xi, n in zip(T, X, ns)]
    assert lhs.tolist() == [a for a, _ in single]
    assert rhs.tolist() == [b for _, b in single]
    assert all(isinstance(v, float) for pair in single for v in pair)
    assert np.all(lhs <= rhs + 1e-9)


def test_chernoff_defect_names_the_non_contractive_slice():
    T, X = _contraction_stack(3, 2, 5)
    T[3] *= 1.5 / np.linalg.norm(T[3], 2)
    with pytest.raises(PreconditionError, match=r"T\[3\]"):
        chernoff_defect(T, X, np.full(5, 4))


def test_chernoff_defect_rejects_bad_powers():
    T, X = _contraction_stack(4, 3, 2)
    for n in (-1, 2.5, True, None, "4"):
        with pytest.raises(InvalidInputError):
            chernoff_defect(T[0], X[0], n)
    # numpy would coerce [True, 3] to the integers [1, 3]
    for ns in ([-1, 3], [2.5, 3], [None, 3], np.array([1.0, 3.0]), [1, 2, 3], [True, 3]):
        with pytest.raises(InvalidInputError):
            chernoff_defect(T, X, ns)


def test_chernoff_defect_stack_rejects_mismatched_vectors():
    T, X = _contraction_stack(5, 3, 4)
    for bad in (X[0], X[:, :2], X[:3], np.where(X > 0, np.inf, X)):
        with pytest.raises(InvalidInputError):
            chernoff_defect(T, bad, np.full(4, 2))


def _scalar_scheme():
    # L(lam) = 1 - lam: the classic Euler factor with limit generator -1
    return ChernoffScheme(
        L=lambda lam, mu: np.array([[1.0 - lam]]),
        limit_generator=lambda mu: np.array([[-1.0]]),
        dim=1,
    )


def test_power_limit_euler_factor():
    seq = ChernoffSequence(t=1.0, mu0=0.0, ns=(64, 256, 1024, 4096))
    table = chernoff_power_limit(_scalar_scheme(), seq, [1.0])
    # (1 - 1/n)^n -> e^{-1}, error ~ e^{-1}/(2n)
    assert table.errors == sorted(table.errors, reverse=True)
    assert table.errors[-1] < 1e-3
    assert table.converged
    assert table.rate == pytest.approx(1.0, abs=0.1)


def test_power_limit_exact_scheme_has_zero_error():
    A = np.array([[0.0, -1.0], [1.0, -0.5]])
    scheme = exponential_scheme(lambda mu: A, 2)
    seq = ChernoffSequence(t=0.8, mu0=0.0, ns=(4, 16, 64))
    table = chernoff_power_limit(scheme, seq, [1.0, 0.0])
    assert max(table.errors) <= 1e-13


@pytest.mark.parametrize("errors, p, floor, how", [
    ([1.0, 0.5, 0.25], 1, 0.0, "order"),      # rate 1
    ([1.0, 0.53, 0.28], 1, 0.0, "order"),     # rate 0.92, at least 0.9 of 1
    ([1.0, 0.55, 0.3], 1, 0.0, None),         # rate 0.87 is not
    ([1.0, 0.5, 0.25], 2, 0.0, None),         # first order is not second
    ([1.0, 0.5, 0.25], 2, 0.25, "floor"),     # unless the finest error is roundoff
    ([0.0, 0.0, 0.0], 1, 1e-12, "floor"),     # no positive error: nan rate
    ([0.0, 0.0, 1e-3], 1, 1e-12, None),       # nan rate, finest error above the floor
    ([1e-15, 1e-14, 1e-13], 1, 1e-12, "floor"),   # roundoff that grows
])
def test_shows_order_by_rate_or_floor(errors, p, floor, how):
    table = ConvergenceTable(ns=[1, 2, 4], errors=errors)
    assert table.shows_order(p, floor) == how


def test_an_empty_table_shows_no_order():
    table = ConvergenceTable()
    assert np.isnan(table.rate)
    assert table.shows_order(1, np.inf) is None


def test_sum_limit_scalar_closed_form():
    seq = ChernoffSequence(t=1.0, mu0=0.0, ns=(16, 64, 256, 1024))
    table = chernoff_sum_limit(_scalar_scheme(), seq, [1.0])
    assert table.target[0] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-10)
    assert table.errors[-1] < 1e-3
    assert table.converged


def test_resolvent_scheme_random_stable_generator():
    rng = np.random.default_rng(8)
    B = rng.standard_normal((3, 3))
    A = B - 1.1 * gram_norm(B) * np.eye(3)
    scheme = resolvent_scheme(lambda mu: A, 3)
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    seq = ChernoffSequence(t=1.0, mu0=0.0, ns=(16, 64, 256, 1024, 4096))
    power = chernoff_power_limit(scheme, seq, x)
    total = chernoff_sum_limit(scheme, seq, x)
    assert power.converged and total.converged
    assert 0.7 <= power.rate <= 1.3  # first-order scheme
    ref, _ = scipy.integrate.quad_vec(lambda s: mat_exp(A, s) @ x, 0.0, 1.0,
                                      epsabs=1e-12, epsrel=1e-12)
    assert np.allclose(total.target, ref, atol=1e-10)


def test_sequence_mu_drift_converges_to_limit_parameter():
    # A(mu) = -(1 + mu) I; mu_n = mu0 + 1/n must still converge to exp(t A(mu0))
    scheme = exponential_scheme(lambda mu: np.array([[-(1.0 + mu)]]), 1)
    seq = ChernoffSequence(t=1.0, mu0=0.5, ns=(16, 64, 256, 1024), mu_drift=1.0)
    table = chernoff_power_limit(scheme, seq, [1.0])
    assert table.target[0] == pytest.approx(np.exp(-1.5), abs=1e-14)
    assert table.errors == sorted(table.errors, reverse=True)
    assert table.errors[-1] < 1e-3


def test_non_contractive_scheme_rejected():
    bad = ChernoffScheme(
        L=lambda lam, mu: np.array([[1.0 + lam]]),
        limit_generator=lambda mu: np.array([[1.0]]),
        dim=1,
    )
    seq = ChernoffSequence(t=1.0, mu0=0.0, ns=(8,))
    with pytest.raises(PreconditionError):
        chernoff_power_limit(bad, seq, [1.0])
    with pytest.raises(PreconditionError):
        chernoff_sum_limit(bad, seq, [1.0])


def test_sequence_validation():
    with pytest.raises(InvalidInputError):
        ChernoffSequence(t=0.0, mu0=0.0, ns=(4,))
    with pytest.raises(InvalidInputError):
        ChernoffSequence(t=1.0, mu0=0.0, ns=())
    with pytest.raises(InvalidInputError):
        ChernoffSequence(t=1.0, mu0=0.0, ns=(0,))
    with pytest.raises(InvalidInputError):
        ChernoffSequence(t=1.0, mu0=0.0, ns=(4,), kind="bogus")


def test_sequence_ceil_kind_effective_time():
    seq = ChernoffSequence(t=0.25, mu0=0.0, ns=(8, 32), kind="kn=ceil")
    assert seq.effective_time == 1.0
    for n, k, lam, mu in seq.triples():
        assert k == int(np.ceil(n / 0.25))
        assert lam == pytest.approx(0.25 / n)


def _stable_generator(seed, d):
    B = np.random.default_rng(seed).standard_normal((d, d))
    return B - 1.1 * gram_norm(B) * np.eye(d)


_LIMIT_CASES = {
    "euler": (_scalar_scheme(), ChernoffSequence(t=1.0, mu0=0.0, ns=(16, 64, 256, 4096))),
    "resolvent-3": (resolvent_scheme(lambda mu, A=_stable_generator(8, 3): A, 3),
                    ChernoffSequence(t=1.0, mu0=0.0, ns=(16, 64, 256, 1024, 4096))),
    "resolvent-5-ceil": (resolvent_scheme(lambda mu, A=_stable_generator(9, 5): A, 5),
                         ChernoffSequence(t=0.7, mu0=0.0, ns=(4, 16, 64, 250), kind="kn=ceil")),
    "exponential-drift": (exponential_scheme(
        lambda mu: np.array([[-(1.0 + mu), 0.3], [-0.3, -1.0]]), 2),
        ChernoffSequence(t=1.0, mu0=0.5, ns=(16, 64, 256, 1024), mu_drift=1.0)),
}


@pytest.mark.parametrize("case", sorted(_LIMIT_CASES))
def test_limit_tables_match_the_step_by_step_loops(case):
    scheme, seq = _LIMIT_CASES[case]
    x = np.random.default_rng(1).standard_normal(scheme.dim)
    for table_of, loop in ((chernoff_power_limit, loop_power_limit),
                           (chernoff_sum_limit, loop_sum_limit)):
        table = table_of(scheme, seq, x)
        ref = loop(scheme.L, seq.triples(), x, table.target)
        assert table.ns == list(seq.ns)
        assert all(isinstance(e, float) for e in table.errors)
        assert np.all(np.abs(np.array(table.errors) - ref) <= 1e-9 * np.array(ref))
