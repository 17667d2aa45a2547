"""Built-in example models and inline-config model assembly.

Four shipped models, one row each of MODELS:

    scalar-linear      d=1, A = [[-1]], forcing 2 + sin(2 pi t / T); the
                       averaged zero is x* = 2 exactly
    rotation-damped-2d d=2 rotation with periodic damping and forcing
                       plus a small tanh nonlinearity
    wave-k1            1-mode damped wave section, affine nonlinearity
                       (closed-form linear-algebra cross-checks)
    wave-k3            3-mode damped wave section, periodic damping and
                       saturating nonlinearity

The two ODE models are the inline specs a config could give, and take
the inline path.  Every coefficient and nonlinearity is an
expression-language string that the parser checks against the variables
its entry may use (t and T in time coefficients, t, s and T in fields)
and that compiles once, when the model is built, to a numpy callable.
Fields carry the Jacobians compiled from the derivatives of their
expressions in s (exprlang.diff_expr).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degree import Region
from .errors import ConfigError, InvalidInputError
from .evolsys import GeneratorFamily
from .exprlang import ExprError, compile_expr, diff_expr, parse_expr
from .mild import NonlinearField
from .wave import WaveModel, build_wave_model, nonlinear_field

# the variables of a time coefficient and of a field expression
TIME_VARS, FIELD_VARS = ("t", "T"), ("t", "s", "T")

# shipped models by key: an ODE model's inline spec, or the k, damping
# beta, nonlinearity f, its asymptotic slope f_inf and its Lipschitz
# constant in s of a wave section on (0, pi) with period 2 pi
MODELS = {
    "scalar-linear": {
        "A": [[-1]], "F": ["2+sin(2*pi*t/T)"], "lipschitz": 0,
        "region": {"center": [2.0], "radius": 1.5},
    },
    "rotation-damped-2d": {
        "A": [["-(1+0.3*sin(2*pi*t/T))", "-1"], ["1", "-(1+0.3*sin(2*pi*t/T))"]],
        "F": ["1+0.2*cos(2*pi*t/T)+0.1*tanh(s)", "0.5+0.2*sin(2*pi*t/T)+0.1*tanh(s)"],
        "lipschitz": 0.1, "region": {"center": [0.25, 0.75], "radius": 1.5},
    },
    "wave-k1": {"k": 1, "beta": "1", "f": "0.2*s+0.3*cos(t)", "f_inf": 0.2, "lipschitz": 0.2},
    "wave-k3": {"k": 3, "beta": "1+0.5*cos(t)", "f": "tanh(s)+cos(t)", "f_inf": 0.0,
                "lipschitz": 1.0},
}
MODEL_KEYS = tuple(MODELS)

# default coupling ladders of the CLI experiments (cli.EXPERIMENTS)
BRANCHING_LADDER = (1.0, 0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3)
AVERAGING_LADDER = (1.0, 0.3, 0.1, 0.03, 0.01)
WAVE_LADDER = tuple(np.round(np.linspace(0.1, 1.0, 10), 10))


@dataclass(frozen=True)
class CatalogModel:
    """A ready-to-run model: generator family plus optional extras; an
    ODE model has no wave section."""

    family: GeneratorFamily
    field: NonlinearField | None
    region: Region | None
    wave: WaveModel | None = None

    @property
    def dim(self) -> int:
        return self.family.dim


def _bind(ast, T: float):
    """A parsed expression, compiled once, as a callable (t, s=None) with
    the period T bound."""
    value = compile_expr(ast)
    return lambda t, s=None: value({"t": t, "s": s, "T": T})


def _parse(src, variables, place: str):
    """parse_expr, with the entry's place (such as A[0][1]) prefixed to its error."""
    try:
        return parse_expr(src, variables)
    except ExprError as exc:
        raise ExprError(f"{place}: {exc}") from None


def _field_expression(src, T: float, place: str):
    """A field expression in t, s and T -> its callable and its slope in s."""
    ast = _parse(src, FIELD_VARS, place)
    return _bind(ast, T), _bind(diff_expr(ast, "s"), T)


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
    cells = [[_bind(_parse(cell, TIME_VARS, f"A[{i}][{j}]"), T) if isinstance(cell, str)
              else _number(cell, "matrix entry") for j, cell in enumerate(row)]
             for i, row in enumerate(entries)]
    d = len(cells)

    def A(t):
        out = np.empty(np.shape(t) + (d, d))
        for i, r in enumerate(cells):
            for j, cell in enumerate(r):
                out[..., i, j] = cell if isinstance(cell, float) else cell(t)
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
    components, slopes = zip(*[_field_expression(src, T, f"F[{i}]")
                               for i, src in enumerate(exprs)])
    d = len(components)

    def over_nodes(values, t, x, tail):
        """values[i](t, x[..., i]) for each component i, into (..., d) + tail."""
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
            out[(..., i) + (i,) * len(tail)] = value(tt, x[..., i])
        return out

    def F(t, x):
        return over_nodes(components, t, x, ())

    def jacobian(t, x):
        return over_nodes(slopes, t, x, (d,))

    return NonlinearField(F=F, lipschitz=lipschitz, jacobian=jacobian)


def _wave(k, beta, f, f_inf, lipschitz) -> CatalogModel:
    T = 2.0 * np.pi
    f, f_s = _field_expression(f, T, "f")
    model = build_wave_model(ell=np.pi, k=k, beta=_bind(_parse(beta, TIME_VARS, "beta"), T),
                             T=T, f=f, f_inf=f_inf, lipschitz=lipschitz, f_s=f_s)
    return CatalogModel(family=model.family, field=nonlinear_field(model),
                        region=None, wave=model)


def get_model(key: str) -> CatalogModel:
    if key not in MODELS:
        raise ConfigError(f"unknown catalog model {key!r}; known: {', '.join(MODEL_KEYS)}")
    spec = MODELS[key]
    return _wave(**spec) if "k" in spec else model_from_config(spec)


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
    {"kind": "box", "lo": [...], "hi": [...]}}.  Matrix entries may use
    t and T, field components t, s and T.  Unknown keys, wrong types,
    non-finite numbers and names outside an entry's variables raise
    ConfigError or ExprError.
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
    return CatalogModel(family=GeneratorFamily(dim=d, A=A, T=T), field=field, region=region)
