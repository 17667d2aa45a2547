"""Built-in example models and inline-config model assembly.

Four shipped models:

    scalar-linear      d=1, A = [[-1]], forcing 2 + sin(2 pi t / T); the
                       averaged zero is x* = 2 exactly
    rotation-damped-2d d=2 rotation with periodic damping and forcing
                       plus a small tanh nonlinearity
    wave-k1            1-mode damped wave section, affine nonlinearity
                       (closed-form linear-algebra cross-checks)
    wave-k3            3-mode damped wave section, periodic damping and
                       saturating nonlinearity

Time coefficients and nonlinearities are expression-language strings
compiled once, when the model is built, to numpy callables; inline JSON
configs take the same path.  Fields carry the Jacobians compiled from
the derivatives of their expressions in s (exprlang.diff_expr).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degree import Region
from .errors import ConfigError, InvalidInputError
from .evolsys import GeneratorFamily
from .exprlang import compile_expr, diff_expr, free_vars, parse_expr
from .mild import NonlinearField
from .wave import WaveModel, build_wave_model, nonlinear_field

MODEL_KEYS = ("scalar-linear", "rotation-damped-2d", "wave-k1", "wave-k3")

# default coupling ladders of the CLI experiments (cli.EXPERIMENTS)
BRANCHING_LADDER = (1.0, 0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3)
AVERAGING_LADDER = (1.0, 0.3, 0.1, 0.03, 0.01)
WAVE_LADDER = tuple(np.round(np.linspace(0.1, 1.0, 10), 10))


@dataclass(frozen=True)
class CatalogModel:
    """A ready-to-run model: generator family plus optional extras."""

    key: str
    kind: str
    dim: int
    T: float
    family: GeneratorFamily
    field: NonlinearField | None
    region: Region | None
    wave: WaveModel | None = None


def compile_time_coefficient(src: str, T: float):
    """Expression in t (and T) -> scalar callable of t."""
    ast = parse_expr(src)
    extra = free_vars(ast) - {"t", "T"}
    if extra:
        raise ConfigError(f"time coefficient may only use t and T, got {sorted(extra)}")
    value = compile_expr(ast)

    def coeff(t):
        return value({"t": t, "T": T})

    return coeff


def _number(v, what: str) -> float:
    """A finite JSON number (a boolean is not one) as a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not np.isfinite(v):
        raise ConfigError(f"{what} must be a finite number, got {v!r}")
    return float(v)


def _numbers(v, what: str) -> list:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{what} must be a nonempty list of numbers")
    return [_number(x, what) for x in v]


def compile_matrix(entries, T: float):
    """Matrix of numbers / expression strings -> callable t -> ndarray.

    The callable broadcasts over time: shape (d, d) for a scalar t,
    (len(ts), d, d) for a 1-d array ts.
    """
    if not isinstance(entries, list) or not entries or not all(
            isinstance(row, list) and len(row) == len(entries) for row in entries):
        raise ConfigError("matrix spec must be a square, nonempty list of rows")
    rows = [[parse_expr(cell) if isinstance(cell, str) else _number(cell, "matrix entry")
             for cell in row] for row in entries]
    d = len(rows)
    for r in rows:
        for cell in r:
            if not isinstance(cell, float):
                extra = free_vars(cell) - {"t", "T"}
                if extra:
                    raise ConfigError(
                        f"matrix entries may only use t and T, got {sorted(extra)}"
                    )
    cells = [[c if isinstance(c, float) else compile_expr(c) for c in r] for r in rows]

    def A(t):
        out = np.empty(np.shape(t) + (d, d))
        env = {"t": t, "T": T}
        for i, r in enumerate(cells):
            for j, cell in enumerate(r):
                out[..., i, j] = cell if isinstance(cell, float) else cell(env)
        return out

    return A, d


def compile_field(exprs, T: float, lipschitz: float = np.inf) -> NonlinearField:
    """Componentwise field spec -> NonlinearField with the batched F(t, x).

    Component i is an expression in t, T and s, where s binds to x[..., i].
    t broadcasts against the leading axes of x, and the result is shaped
    broadcast_shapes(t, x.shape[:-1]) + (d,) once trailing axes of t that
    face x's component axis are dropped.  Those axes must have length 1;
    any other length raises InvalidInputError.  Component i depends on
    x_i alone, so the Jacobian is diagonal, with entry i the compiled
    diff_expr of component i in s.
    """
    asts = [parse_expr(src) for src in exprs]
    for ast in asts:
        extra = free_vars(ast) - {"t", "s", "T"}
        if extra:
            raise ConfigError(f"field components may only use t, s, T, got {sorted(extra)}")
    components = [compile_expr(ast) for ast in asts]
    slopes = [compile_expr(diff_expr(ast, "s")) for ast in asts]
    d = len(asts)

    def over_nodes(values, t, x, tail):
        """values(env) for each component i, s = x[..., i], into (..., d) + tail."""
        x = np.asarray(x, dtype=float)
        tt = np.asarray(t, dtype=float)
        # drop trailing broadcast axes so t aligns with component slices
        while tt.ndim >= x.ndim and tt.ndim > 0:
            if tt.shape[-1] != 1:
                raise InvalidInputError(
                    f"times of shape {np.shape(t)} do not broadcast against "
                    f"states of shape {x.shape}"
                )
            tt = tt[..., 0]
        shape = np.broadcast_shapes(tt.shape, x.shape[:-1]) + x.shape[-1:] + tail
        out = np.zeros(shape) if tail else np.empty(shape)
        for i, value in enumerate(values):
            out[(..., i) + (i,) * len(tail)] = value({"t": tt, "s": x[..., i], "T": T})
        return out

    def F(t, x):
        return over_nodes(components, t, x, ())

    def jacobian(t, x):
        return over_nodes(slopes, t, x, (d,))

    return NonlinearField(F=F, lipschitz=lipschitz, jacobian=jacobian)


def _scalar_linear() -> CatalogModel:
    T = 1.0
    family = GeneratorFamily(dim=1, A=lambda t: np.full(np.shape(t) + (1, 1), -1.0), T=T)
    field = compile_field(["2+sin(2*pi*t/T)"], T, lipschitz=0.0)
    region = Region.ball(np.array([2.0]), 1.5)
    return CatalogModel(key="scalar-linear", kind="ode", dim=1, T=T,
                        family=family, field=field, region=region)


def _rotation_damped() -> CatalogModel:
    T = 1.0
    A, d = compile_matrix(
        [["-(1+0.3*sin(2*pi*t/T))", "-1"],
         ["1", "-(1+0.3*sin(2*pi*t/T))"]], T,
    )
    family = GeneratorFamily(dim=d, A=A, T=T)
    field = compile_field(
        ["1+0.2*cos(2*pi*t/T)+0.1*tanh(s)",
         "0.5+0.2*sin(2*pi*t/T)+0.1*tanh(s)"], T, lipschitz=0.1,
    )
    region = Region.ball(np.array([0.25, 0.75]), 1.5)
    return CatalogModel(key="rotation-damped-2d", kind="ode", dim=d, T=T,
                        family=family, field=field, region=region)


def _wave(key: str) -> CatalogModel:
    T = 2.0 * np.pi
    if key == "wave-k1":
        k = 1
        beta = compile_time_coefficient("1", T)
        f_src = "0.2*s+0.3*cos(t)"
        f_inf, lip = 0.2, 0.2
    else:
        k = 3
        beta = compile_time_coefficient("1+0.5*cos(t)", T)
        f_src = "tanh(s)+cos(t)"
        f_inf, lip = 0.0, 1.0
    f_ast = parse_expr(f_src)
    f_value, f_slope = compile_expr(f_ast), compile_expr(diff_expr(f_ast, "s"))

    def f(t, s):
        return f_value({"t": t, "s": s, "T": T})

    def f_s(t, s):
        return f_slope({"t": t, "s": s, "T": T})

    model = build_wave_model(ell=np.pi, k=k, beta=beta, T=T, f=f,
                             f_inf=f_inf, lipschitz=lip, f_s=f_s)
    return CatalogModel(key=key, kind="wave", dim=model.dim, T=T,
                        family=model.family, field=nonlinear_field(model),
                        region=None, wave=model)


_BUILDERS = {
    "scalar-linear": _scalar_linear,
    "rotation-damped-2d": _rotation_damped,
    "wave-k1": lambda: _wave("wave-k1"),
    "wave-k3": lambda: _wave("wave-k3"),
}


def get_model(key: str) -> CatalogModel:
    if key not in _BUILDERS:
        raise ConfigError(f"unknown catalog model {key!r}; known: {', '.join(MODEL_KEYS)}")
    return _BUILDERS[key]()


_INLINE_KEYS = {"A", "T", "F", "lipschitz", "region"}
_REGION_KEYS = {"ball": {"center", "radius"}, "box": {"lo", "hi"}}


def _region(r, d: int) -> Region:
    if not isinstance(r, dict):
        raise ConfigError("region must be an object")
    kind = r.get("kind", "ball")
    if kind not in _REGION_KEYS:
        raise ConfigError(f"unknown region kind {kind!r}")
    keys = _REGION_KEYS[kind]
    if set(r) - {"kind"} != keys:
        raise ConfigError(f"a {kind} region takes the keys {sorted(keys)} and an "
                          f"optional 'kind', got {sorted(r)}")
    if kind == "ball":
        region = Region.ball(np.array(_numbers(r["center"], "region center")),
                             _number(r["radius"], "region radius"))
    else:
        region = Region.box(np.array(_numbers(r["lo"], "region lo")),
                            np.array(_numbers(r["hi"], "region hi")))
    if region.dim != d:
        raise ConfigError(f"region has dimension {region.dim}, the model {d}")
    return region


def model_from_config(spec) -> CatalogModel:
    """Catalog key or inline dict -> CatalogModel.

    Inline schema: {"A": matrix spec, "T": period (default 1), optional
    "F": [expr per component], "lipschitz" (a bound >= 0 for F, none if
    absent: the degree then keeps every Newton start), "region":
    {"kind": "ball", "center": [...], "radius": r} or
    {"kind": "box", "lo": [...], "hi": [...]}}.
    Unknown keys, wrong types and non-finite numbers raise ConfigError.
    """
    if isinstance(spec, str):
        return get_model(spec)
    if not isinstance(spec, dict):
        raise ConfigError("model must be a catalog key or an inline object")
    if "A" not in spec:
        raise ConfigError("inline model needs an A matrix spec")
    unknown = set(spec) - _INLINE_KEYS
    if unknown:
        raise ConfigError(f"unknown inline model keys: {sorted(unknown)}")
    T = _number(spec.get("T", 1.0), "model period T")
    if T <= 0:
        raise ConfigError("model period T must be positive")
    A, d = compile_matrix(spec["A"], T)
    family = GeneratorFamily(dim=d, A=A, T=T)
    lip = _number(spec["lipschitz"], "lipschitz") if "lipschitz" in spec else np.inf
    if lip < 0:
        raise ConfigError(f"lipschitz must be nonnegative, got {lip}")
    field = None
    if "F" in spec:
        exprs = spec["F"]
        if not isinstance(exprs, list) or len(exprs) != d:
            raise ConfigError(f"F must list {d} component expressions")
        field = compile_field(exprs, T, lipschitz=lip)
    region = _region(spec["region"], d) if "region" in spec else None
    return CatalogModel(key="inline", kind="ode", dim=d, T=T, family=family,
                        field=field, region=region)
