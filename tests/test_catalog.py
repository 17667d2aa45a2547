import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evolver import ConfigError, ExprError, InvalidInputError, dissipativity_rate
from evolver.catalog import (
    AVERAGING_LADDER,
    BRANCHING_LADDER,
    MODEL_KEYS,
    WAVE_LADDER,
    compile_field,
    compile_matrix,
    get_model,
    model_from_config,
)


def test_list_and_get():
    assert MODEL_KEYS == ("scalar-linear", "rotation-damped-2d", "wave-k1", "wave-k3")
    assert [get_model(key).wave is None for key in MODEL_KEYS] == [True, True, False, False]
    with pytest.raises(ConfigError):
        get_model("nope")


def test_ladders_frozen():
    assert BRANCHING_LADDER == (1.0, 0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3)
    assert AVERAGING_LADDER == (1.0, 0.3, 0.1, 0.03, 0.01)
    assert len(WAVE_LADDER) == 10
    assert WAVE_LADDER[0] == 0.1 and WAVE_LADDER[-1] == 1.0


def test_scalar_linear_model():
    m = get_model("scalar-linear")
    assert m.dim == 1 and m.family.T == 1.0
    assert np.array_equal(m.family.A(0.37), [[-1.0]])
    # forcing peaks at quarter period: 2 + sin(pi/2) = 3
    assert np.allclose(m.field(0.25, np.zeros(1)), [3.0], atol=1e-14)
    assert m.region.contains(np.array([2.0]))
    assert m.wave is None


def test_rotation_model_frozen():
    m = get_model("rotation-damped-2d")
    assert m.dim == 2
    assert np.allclose(m.family.A(0.25), [[-1.3, -1.0], [1.0, -1.3]], atol=1e-14)
    assert np.allclose(m.field(0.0, np.zeros(2)), [1.2, 0.5], atol=1e-14)
    assert m.region.contains(np.array([0.25, 0.75]))


@pytest.mark.parametrize("key", MODEL_KEYS)
def test_catalog_family_contracts_and_is_periodic(key):
    # the rate is computed where it is read, at the nodes build_evolution
    # freezes, in the family's metric; the rotation model's is its least
    # damping 0.7 and scalar-linear's is 1
    family = get_model(key).family
    nodes = np.linspace(0.0, family.T, 257)[:-1]
    rate = float(np.min(dissipativity_rate(family.stack(nodes), family.metric)))
    assert rate > 0.0
    want = {"scalar-linear": 1.0, "rotation-damped-2d": 0.7}
    if key in want:
        assert rate == pytest.approx(want[key], abs=1e-12)
    # periodic up to the roundoff of sin(2 pi)
    assert np.linalg.norm(family.A(0.0) - family.A(family.T), 2) <= 1e-12


def test_wave_models():
    m1 = get_model("wave-k1")
    assert m1.dim == 2
    assert np.isclose(m1.family.T, 2.0 * np.pi)
    m3 = get_model("wave-k3")
    assert m3.dim == 6
    # a wave model carries its family and its lifted field, but no region
    # yet; the lift's bound is L w |C|_2^2, 1 + 2e-16 times L on wave-k1
    for m in (m1, m3):
        assert m.wave is not None and m.family is m.wave.family
        C, w = m.wave.colloc_matrix, m.wave.colloc_weight
        assert m.field is not None
        assert m.field.lipschitz == m.wave.lipschitz * w * np.linalg.norm(C, 2) ** 2
        assert m.region is None


def test_time_coefficient():
    # a time coefficient compiles as a matrix cell does: t and T, no s
    A, _ = compile_matrix([["1+0.5*cos(2*pi*t/T)"]], 2.0)
    assert A(0.0)[0, 0] == 1.5
    assert np.isclose(A(1.0)[0, 0], 0.5, atol=1e-14)
    assert get_model("wave-k3").wave.beta(0.0) == 1.5
    with pytest.raises(ExprError, match="unknown identifier 's' at offset 0"):
        compile_matrix([["s+1"]], 1.0)


def test_compile_matrix():
    A, d = compile_matrix([[-2.0, "0.5*sin(2*pi*t/T)"], [0.0, "-1"]], 1.0)
    assert d == 2
    assert np.allclose(A(0.25), [[-2.0, 0.5], [0.0, -1.0]], atol=1e-14)
    with pytest.raises(ConfigError):
        compile_matrix([[-1.0, 0.0]], 1.0)  # not square
    with pytest.raises(ExprError, match=r"^A\[0\]\[0\]: unknown identifier 's' at offset 0$"):
        compile_matrix([["s"]], 1.0)  # state variable in a coefficient


def test_field_broadcast_shapes():
    rng = np.random.default_rng(61)
    F = compile_field(["s+t", "2*s"], 1.0)
    t = np.linspace(0.0, 1.0, 5).reshape(5, 1, 1)
    x = rng.normal(size=(5, 4, 2))
    out = F(t, x)
    assert out.shape == (5, 4, 2)
    for i in range(5):
        for b in range(4):
            want = [x[i, b, 0] + t[i, 0, 0], 2.0 * x[i, b, 1]]
            assert np.allclose(out[i, b], want, atol=1e-14)
    # every time node against one batch of states, as averaging evaluates it
    out_n = F(t, x[None, 0])
    assert out_n.shape == (5, 4, 2)
    assert np.array_equal(out_n[:, :, 1], np.broadcast_to(2.0 * x[0, :, 1], (5, 4)))
    assert np.array_equal(out_n[:, :, 0], x[0, :, 0] + t[:, :, 0])
    # scalar time against a batch of states
    out1 = F(0.5, x[0])
    assert out1.shape == (4, 2)
    assert np.allclose(out1[:, 0], x[0, :, 0] + 0.5, atol=1e-14)
    with pytest.raises(ExprError, match=r"^F\[1\]: unknown identifier 'q' at offset 0$"):
        compile_field(["s", "q+1"], 1.0)  # parser rejects unknown identifiers


def test_field_jacobian_is_the_diagonal_of_slopes():
    rng = np.random.default_rng(62)
    field = compile_field(["s^3+t", "tanh(2*s)*cos(t)", "abs(s)+T"], 1.0, lipschitz=np.inf)
    t = np.linspace(0.0, 1.0, 4).reshape(4, 1, 1)
    x = rng.uniform(0.2, 1.5, size=(4, 5, 3)) * rng.choice([-1.0, 1.0], size=(4, 5, 3))
    J = field.jacobian(t, x)
    assert J.shape == (4, 5, 3, 3)
    slopes = np.stack([3.0 * x[..., 0] ** 2,
                       2.0 * (1.0 - np.tanh(2.0 * x[..., 1]) ** 2) * np.cos(t[..., 0]),
                       np.sign(x[..., 2])], axis=-1)
    assert np.allclose(J, slopes[..., None] * np.eye(3), rtol=1e-14, atol=0.0)
    # a scalar time against one state, and a component free of s
    J1 = compile_field(["2+sin(t)", "s*s"], 1.0).jacobian(0.5, np.array([0.0, -3.0]))
    assert np.array_equal(J1, [[0.0, 0.0], [0.0, -6.0]])


def test_field_with_an_exponent_in_s_has_its_jacobian():
    # a^b with s in b differentiates to a^b (b' log a + b a'/a)
    field = compile_field(["2^s", "s"], 1.0, lipschitz=2.0)
    assert field.lipschitz == 2.0
    assert np.allclose(field(0.0, np.array([3.0, 1.0])), [8.0, 1.0])
    J = field.jacobian(0.0, np.array([3.0, 1.0]))
    assert np.allclose(J, [[8.0 * np.log(2.0), 0.0], [0.0, 1.0]], rtol=1e-15, atol=0.0)
    inline = model_from_config({"A": [[-1]], "F": ["0.5^(s*s)"]})
    s = np.array([[-0.7], [0.0], [1.3]])
    want = 0.5 ** (s * s) * 2.0 * s * np.log(0.5)
    assert np.allclose(inline.field.jacobian(0.0, s)[..., 0], want, rtol=1e-14, atol=0.0)
    for key in MODEL_KEYS:
        assert callable(get_model(key).field.jacobian)


def test_inline_model():
    spec = {
        "A": [[-2.0, "0.5*sin(2*pi*t/T)"], [0.0, -1.0]],
        "T": 1.0,
        "F": ["1+s", "cos(2*pi*t)"],
        "lipschitz": 1.0,
        "region": {"kind": "ball", "center": [0.0, 0.0], "radius": 2.0},
    }
    m = model_from_config(spec)
    assert m.wave is None and m.dim == 2 and m.family.metric is None
    assert np.allclose(m.family.A(0.25), [[-2.0, 0.5], [0.0, -1.0]], atol=1e-14)
    assert np.allclose(m.field(0.0, np.array([1.0, 0.0])), [2.0, 1.0], atol=1e-14)
    assert m.region.contains(np.zeros(2))


def test_inline_field_without_a_bound_claims_none():
    m = model_from_config({"A": [[-1.0]], "F": ["s"]})
    assert m.field.lipschitz == np.inf
    assert model_from_config({"A": [[-1.0]], "F": ["s"], "lipschitz": 0}).field.lipschitz == 0.0


@settings(derandomize=True, deadline=None, max_examples=40)
@given(key=st.sampled_from(MODEL_KEYS), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(1e-6, 1e3))
def test_catalog_fields_honour_their_lipschitz(key, seed, scale):
    # |F(t, x) - F(t, y)| <= L |x - y| at random nodes and pairs of states,
    # up to roundoff relative to the values compared
    T, d, F = _catalog_field(key)
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, T, (64, 1))
    x = scale * rng.standard_normal((64, d))
    y = x + scale * rng.standard_normal((64, d)) * rng.uniform(1e-6, 1.0, (64, 1))
    fx, fy = F(t, x), F(t, y)
    lhs = np.linalg.norm(fx - fy, axis=-1)
    floor = 1e-14 * (np.linalg.norm(fx, axis=-1) + np.linalg.norm(fy, axis=-1))
    assert np.all(lhs <= F.lipschitz * np.linalg.norm(x - y, axis=-1) + floor)


def test_inline_box_region_and_key_passthrough():
    m = model_from_config({"A": [[-1.0]],
                           "region": {"kind": "box", "lo": [0.0], "hi": [1.0]}})
    assert m.region.contains(np.array([0.5]))
    assert m.field is None
    assert model_from_config("wave-k1").wave.k == 1


def test_inline_config_errors():
    with pytest.raises(ConfigError):
        model_from_config(42)
    with pytest.raises(ConfigError):
        model_from_config({"T": 1.0})
    with pytest.raises(ConfigError):
        model_from_config({"A": [[-1.0]], "T": -1.0})
    with pytest.raises(ConfigError):
        model_from_config({"A": [[-1.0]], "F": ["1", "2"]})
    with pytest.raises(ConfigError):
        model_from_config({"A": [[-1.0]], "region": {"kind": "torus"}})
    # wrong types, non-finite numbers and unknown keys are all config errors
    for bad in ({"A": [[-1.0]], "T": float("nan")}, {"A": [[None]]}, {"A": []},
                {"A": [[-1.0]], "omega": 1}, {"A": [[-1.0]], "lambdas": [0.5]},
                {"A": [[-1.0]], "region": {"kind": "box", "lo": [0.0]}},
                {"A": [[-1.0]], "F": ["s"], "lipschitz": True},
                {"A": [[-1.0]], "F": ["s"], "lipschitz": -3}):
        with pytest.raises(ConfigError):
            model_from_config(bad)


def _catalog_field(key):
    cm = get_model(key)
    return cm.family.T, cm.dim, cm.field


@pytest.mark.parametrize("key", MODEL_KEYS)
def test_field_contract(key):
    # F(t, x) has shape broadcast_shapes(t, x.shape[:-1]) + (d,) once the
    # axis of t facing the components is dropped, and every broadcast value
    # is the per-node call's (to roundoff: the wave field's collocation is
    # a matrix product whose summation order follows the batch layout)
    T, d, F = _catalog_field(key)
    same = lambda a, b: np.allclose(a, b, rtol=1e-13, atol=1e-13)
    rng = np.random.default_rng(8)
    ts = np.linspace(0.0, T, 7)
    X = rng.standard_normal((5, d))
    grid = F(ts[:, None, None], X[None])          # every node against every state
    assert grid.shape == (7, 5, d)
    for i, t in enumerate(ts):
        assert same(grid[i], F(t, X))
        for p in range(5):
            assert same(grid[i, p], F(t, X[p]))
    Y = rng.standard_normal((7, d))
    column = F(ts[:, None], Y)                    # node i against state i
    assert column.shape == (7, d)
    assert same(column, np.stack([F(t, y) for t, y in zip(ts, Y)]))


def test_field_rejects_times_facing_the_components():
    # a trailing time axis that faces x's component axis may only have
    # length 1; longer ones were cut to their first entry
    F = compile_field(["t + 0*s"], 1.0)
    assert np.array_equal(F(np.array([[0.1], [0.2]]), np.zeros((2, 1))), [[0.1], [0.2]])
    with pytest.raises(InvalidInputError):
        F(np.array([[0.1, 0.2, 0.3]]), np.zeros((2, 1)))
    with pytest.raises(InvalidInputError):
        F(np.array([0.1, 0.2]), np.zeros(1))
