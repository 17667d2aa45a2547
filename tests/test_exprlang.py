import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evolver import ExprError, compile_expr, eval_expr, parse_expr
from evolver.catalog import FIELD_VARS, TIME_VARS
from evolver.exprlang import MAX_DEPTH, Bin, Call, Neg, Num, Var, diff_expr

from oracles import format_expr, walk_expr


def test_basic_values():
    assert eval_expr(parse_expr("1+0.5*cos(2*pi*t/T)", FIELD_VARS), {"t": 0.0, "T": 1.0}) == 1.5
    assert eval_expr(parse_expr("t*T", FIELD_VARS), {"t": 2.0, "T": 3.0}) == 6.0
    assert eval_expr(parse_expr("exp(0)", FIELD_VARS), {}) == 1.0
    assert eval_expr(parse_expr("min(2,3)+max(2,3)", FIELD_VARS), {}) == 5.0
    assert eval_expr(parse_expr("abs(-4)", FIELD_VARS), {}) == 4.0
    assert eval_expr(parse_expr(" 1 + 2 ", FIELD_VARS), {}) == 3.0


def test_power_precedence():
    assert eval_expr(parse_expr("2^3^2", FIELD_VARS), {}) == 512.0  # right-associative
    assert eval_expr(parse_expr("-2^2", FIELD_VARS), {}) == -4.0    # ^ above unary minus
    assert eval_expr(parse_expr("2^-3", FIELD_VARS), {}) == 0.125   # signed exponent
    assert eval_expr(parse_expr("(2^3)^2", FIELD_VARS), {}) == 64.0
    assert eval_expr(parse_expr("2*3^2", FIELD_VARS), {}) == 18.0


def test_parse_errors_carry_positions():
    with pytest.raises(ExprError) as info:
        parse_expr("sin(q)", FIELD_VARS)
    assert "unknown identifier" in str(info.value)
    assert info.value.position == 4
    with pytest.raises(ExprError) as info:
        parse_expr("sine(1)", FIELD_VARS)
    assert "unknown function" in str(info.value)
    assert info.value.position == 0
    with pytest.raises(ExprError) as info:
        parse_expr("1+2)", FIELD_VARS)
    assert info.value.position == 3
    with pytest.raises(ExprError) as info:
        parse_expr("1 $ 2", FIELD_VARS)
    assert info.value.position == 2
    with pytest.raises(ExprError):
        parse_expr("", FIELD_VARS)
    with pytest.raises(ExprError):
        parse_expr("1+", FIELD_VARS)
    with pytest.raises(ExprError) as info:
        parse_expr("min(1)", FIELD_VARS)
    assert "argument" in str(info.value)


def test_nesting_depth_limit():
    # each of these used to exhaust the interpreter stack (RecursionError)
    deep = [
        "(" * 3000 + "t" + ")" * 3000,      # parentheses
        "sin(" * 3000 + "t" + ")" * 3000,   # function calls
        "-" * 3000 + "t",                   # unary minus
        "^".join(["t"] * 3000),             # right-associative powers
        "+".join(["t"] * 3000),             # left-leaning sum, flat in the source
    ]
    for src in deep:
        with pytest.raises(ExprError) as info:
            parse_expr(src, FIELD_VARS)
        assert "nested deeper" in str(info.value)
    # the limit itself is accepted and round-trips
    ok = "(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1)
    assert eval_expr(parse_expr(ok, FIELD_VARS), {"t": 2.0}) == 2.0
    chain = parse_expr("+".join(["t"] * MAX_DEPTH), FIELD_VARS)
    assert eval_expr(chain, {"t": 1.0}) == MAX_DEPTH
    assert parse_expr(format_expr(chain), FIELD_VARS) == chain
    with pytest.raises(ExprError):
        parse_expr("+".join(["t"] * (MAX_DEPTH + 1)), FIELD_VARS)


def test_eval_errors():
    with pytest.raises(ExprError):
        eval_expr(parse_expr("1/0", FIELD_VARS), {})
    with pytest.raises(ExprError):
        eval_expr(parse_expr("1/t", FIELD_VARS), {"t": 0.0})
    with pytest.raises(ExprError):
        eval_expr(parse_expr("0^-1", FIELD_VARS), {})
    with pytest.raises(ExprError):
        eval_expr(parse_expr("(-2)^0.5", FIELD_VARS), {})
    with pytest.raises(ExprError):
        eval_expr(parse_expr("t+1", FIELD_VARS), {})  # unbound variable


def test_compiled_errors_raise_on_call_not_on_compile():
    cases = [("1/0", {}), ("1/t", {"t": 0.0}), ("1/t", {"t": -0.0}),
             ("1/t", {"t": np.float64(0.0)}), ("1/t", {"t": 0}),
             ("1/t", {"t": np.array(0.0)}), ("0^-1", {}), ("(-2)^0.5", {}),
             ("t+1", {}), ("1/t", {"t": np.array([1.0, 0.0])}),
             ("t^-1", {"t": np.array([1.0, 0.0])}),
             ("t^0.5", {"t": np.array([1.0, -2.0])})]
    for src, env in cases:
        value = compile_expr(parse_expr(src, FIELD_VARS))
        with pytest.raises(ExprError):
            value(env)


_LEAVES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25, -1.0, -2.0]).map(Num),
    st.floats(-4.0, 4.0).map(Num),
    st.sampled_from(["t", "s", "T", "pi"]).map(Var),
)


def _branches(children):
    return st.one_of(
        children.map(Neg),
        st.builds(Bin, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
        st.builds(lambda fn, a: Call(fn, (a,)),
                  st.sampled_from(["sin", "cos", "exp", "log", "tanh", "abs"]), children),
        st.builds(lambda fn, a, b: Call(fn, (a, b)),
                  st.sampled_from(["min", "max"]), children, children),
    )


_SCALARS = st.one_of(st.sampled_from([0.0, 1.0, -2.0]), st.floats(-3.0, 3.0))


def _check_against_walk(value, ast, env):
    with np.errstate(all="ignore"):
        try:
            ref = walk_expr(ast, env)
        except ValueError:
            with pytest.raises(ExprError):
                value(env)
            return
        got = value(env)
    assert type(got) is type(ref)
    assert np.array_equal(got, ref, equal_nan=True)


@settings(derandomize=True, deadline=None, max_examples=600)
@given(ast=st.recursive(_LEAVES, _branches, max_leaves=16),
       env=st.fixed_dictionaries({"t": _SCALARS, "s": _SCALARS}, optional={"T": _SCALARS}),
       column=st.lists(_SCALARS, min_size=4, max_size=4).map(np.array))
def test_compiled_matches_tree_walk(ast, env, column):
    # compiling never evaluates, so it cannot fail on a well-formed AST
    value = compile_expr(ast)
    # scalar bindings, then t and s arrays with T still scalar
    for bindings in (env, {**env, "t": column, "s": column[::-1] - env["s"]}):
        _check_against_walk(value, ast, bindings)
    _check_against_walk(lambda bindings: eval_expr(ast, bindings), ast, env)


def test_vectorized_eval_broadcasts():
    e = parse_expr("sin(2*pi*t)+s", FIELD_VARS)
    t = np.linspace(0.0, 1.0, 7)
    got = eval_expr(e, {"t": t, "s": 2.0})
    assert got.shape == (7,)
    assert np.allclose(got, np.sin(2.0 * np.pi * t) + 2.0)
    # scalar bindings give a plain float
    assert isinstance(eval_expr(e, {"t": 0.25, "s": 0.0}), float)


@pytest.mark.parametrize("names", [TIME_VARS, FIELD_VARS, ()], ids=["time", "field", "none"])
def test_parse_expr_admits_only_the_named_variables_and_pi(names):
    # a name is a variable when the caller names it or when it is pi; any
    # other identifier is rejected at its byte offset
    for name in ("t", "s", "T", "pi", "x", "q", "tt", "S", "PI"):
        src = f"1+cos(2*{name})"
        if name in names or name == "pi":
            assert parse_expr(src, names) == Bin("+", Num(1.0), Call("cos", (
                Bin("*", Num(2.0), Var(name)),)))
            continue
        with pytest.raises(ExprError) as info:
            parse_expr(src, names)
        assert str(info.value) == f"unknown identifier {name!r} at offset 8"
        assert info.value.position == 8


def test_format_specific_round_trips():
    for src in [
        "1+0.5*cos(2*pi*t/T)",
        "2^3^2",
        "-2^2",
        "2^-3",
        "t-(s-T)",
        "(t+s)*T",
        "t/(s*T)",
        "-(t+s)",
        "min(t,max(s,T))",
        "t^(s+1)",
    ]:
        ast = parse_expr(src, FIELD_VARS)
        printed = format_expr(ast)
        assert parse_expr(printed, FIELD_VARS) == ast
        assert format_expr(parse_expr(printed, FIELD_VARS)) == printed


def _random_ast(rng, depth):
    # normal form: a negative literal is Num(-v), never Neg(Num(v))
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            v = round(float(rng.uniform(0.0, 4.0)), 3)
            return Num(-v if rng.random() < 0.3 else v)
        return Var(str(rng.choice(["t", "s", "T", "pi"])))
    r = rng.random()
    if r < 0.55:
        op = str(rng.choice(["+", "-", "*", "/"]))
        return Bin(op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if r < 0.68:
        return Bin("^", _random_ast(rng, depth - 1), Num(float(rng.integers(0, 4))))
    if r < 0.78:
        inner = _random_ast(rng, depth - 1)
        if isinstance(inner, Num):
            return Num(-inner.value)
        return Neg(inner)
    fn = str(rng.choice(["sin", "cos", "tanh", "abs"]))
    return Call(fn, (_random_ast(rng, depth - 1),))


def test_random_ast_round_trip():
    rng = np.random.default_rng(2024)
    env = {"t": 0.7, "s": 1.3, "T": 2.1}
    checked = 0
    skipped = 0
    for _ in range(1000):
        ast = _random_ast(rng, 4)
        printed = format_expr(ast)
        back = parse_expr(printed, FIELD_VARS)
        assert back == ast
        assert format_expr(back) == printed
        try:
            a = eval_expr(ast, env)
        except ExprError:
            skipped += 1  # structural division by zero, fine
            continue
        b = eval_expr(back, env)
        assert np.isclose(a, b, rtol=1e-15, atol=0.0, equal_nan=False) or a == b
        checked += 1
    assert checked >= 900
    assert skipped <= 100


def test_diff_expr_rules_and_simplification():
    cases = {
        "tanh(s)+cos(t)": "1.0-tanh(s)^2.0",
        "0.2*s+0.3*cos(t)": "0.2",
        "s^2": "2.0*s",
        "s^t": "t*s^(t-1.0)",
        "-s": "-1.0",
        "cos(-s)": "sin(-s)",
        "t/s": "-t/s^2.0",
        "exp(2*s)": "exp(2.0*s)*2.0",
        "abs(s)": "sign(s)",
        "sign(s)+t*T": "0.0",
        "max(s,t)": "0.5*(1.0+sign(s-t))",
        "min(s,t)": "0.5*(1.0+sign(t-s))",
        "min(s,2*s)": "0.5*(1.0+sign(2.0*s-s))+0.5*(1.0-sign(2.0*s-s))*2.0",
        "log(s)": "1.0/s",
        "2^s": "2.0^s*log(2.0)",
        "s^s": "s^s*(log(s)+s/s)",
        "t^(1+0*s)": "0.0",
    }
    for src, want in cases.items():
        d = diff_expr(parse_expr(src, FIELD_VARS), "s")
        assert format_expr(d) == want, src
        assert parse_expr(format_expr(d), FIELD_VARS) == d
    # t, T and pi are constants in s, and s is one in t
    assert diff_expr(parse_expr("sin(t)*T+pi", FIELD_VARS), "s") == Num(0.0)
    assert diff_expr(parse_expr("s*t", FIELD_VARS), "t") == Var("s")
    # at a kink abs and min/max take the mean slope of the two sides
    assert eval_expr(diff_expr(parse_expr("abs(s)", FIELD_VARS), "s"), {"s": 0.0}) == 0.0
    assert eval_expr(diff_expr(parse_expr("max(s,-s)", FIELD_VARS), "s"), {"s": 0.0}) == 0.0
    # exponents in s: a^b (b' log a + b a'/a), or the power rule when b' = 0
    at = {"s": 1.5, "t": 0.0}
    slopes = {"2^s": 2.0 ** 1.5 * np.log(2.0),
              "s^s": 1.5 ** 1.5 * (np.log(1.5) + 1.0),
              "t^(1+0*s)": 0.0}
    for src, want in slopes.items():
        got = eval_expr(diff_expr(parse_expr(src, FIELD_VARS), "s"), at)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0), src
    with pytest.raises(ExprError):
        diff_expr(object(), "s")


def test_log_and_exponents_in_s_keep_their_domain():
    # log raises for arguments <= 0 as '^' does for a negative base, and so
    # does the derivative of s^s, which holds log s
    for arg in (0.0, -1.0):
        with pytest.raises(ExprError, match="log"):
            eval_expr(parse_expr("log(s)", FIELD_VARS), {"s": arg})
    with pytest.raises(ExprError, match="log"):
        eval_expr(parse_expr("log(s)", FIELD_VARS), {"s": np.array([1.0, 2.0, 0.0])})
    got = eval_expr(parse_expr("log(exp(s))", FIELD_VARS), {"s": 0.75})
    assert got == pytest.approx(0.75, rel=1e-15)
    with pytest.raises(ExprError):
        eval_expr(diff_expr(parse_expr("s^s", FIELD_VARS), "s"), {"s": -0.5})
    # the derivative raises with log even where the power itself is defined
    with pytest.raises(ExprError, match="log"):
        eval_expr(diff_expr(parse_expr("(-2)^s", FIELD_VARS), "s"), {"s": 2.0})


def _value(value, env):
    try:
        with np.errstate(all="ignore"):
            out = value(env)
    except ExprError:
        return None
    return out if np.isfinite(out) else None


# the round-trip generator (every function but exp, min and max; integer
# exponents), the hypothesis trees (all functions, any exponent) and powers
# a^(b s) of a small tree b over a base a that is s or positive
_SMALL_TREES = st.recursive(_LEAVES, _branches, max_leaves=4)
_DIFF_ASTS = st.one_of(
    st.integers(0, 2 ** 32 - 1).map(lambda seed: _random_ast(np.random.default_rng(seed), 4)),
    st.recursive(_LEAVES, _branches, max_leaves=10),
    st.builds(lambda a, b: Bin("^", a, Bin("*", b, Var("s"))),
              st.one_of(st.just(Var("s")),
                        _SMALL_TREES.map(lambda a: Bin("+", Call("abs", (a,)), Num(0.5)))),
              _SMALL_TREES),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(ast=_DIFF_ASTS, s=st.floats(-2.5, 2.5), t=st.floats(-2.0, 2.0))
def test_diff_expr_matches_a_central_difference(ast, s, t):
    d = diff_expr(ast, "s")
    if parse_expr(format_expr(ast), FIELD_VARS) == ast:
        # a parser-produced tree has a derivative that prints and reparses
        assert parse_expr(format_expr(d), FIELD_VARS) == d
    value, slope = compile_expr(ast), compile_expr(d)
    env = {"t": t, "T": 1.7}
    f0 = _value(value, {**env, "s": s})
    got = _value(slope, {**env, "s": s})
    # central differences at h and h/2 must agree, and the derivative must
    # barely move within h of s, before the difference is trusted: that
    # skips kinks, poles and steep spots near s
    fd = []
    for h in (1e-5, 5e-6):
        hi, lo = _value(value, {**env, "s": s + h}), _value(value, {**env, "s": s - h})
        fd.append(None if hi is None or lo is None else (hi - lo) / (2.0 * h))
    near = [_value(slope, {**env, "s": s + h}) for h in (-1e-5, 1e-5)]
    assume(f0 is not None and got is not None and None not in fd + near)
    scale = 1.0 + abs(f0) + abs(fd[1])
    assume(abs(fd[0] - fd[1]) <= 1e-6 * scale)
    assume(all(abs(v - got) <= 1e-3 * (1.0 + abs(got)) for v in near))
    assert abs(got - fd[1]) <= 1e-5 * scale
