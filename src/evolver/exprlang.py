"""Tiny arithmetic expression language for config-supplied coefficients.

Grammar (recursive descent, standard precedence):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | VAR | FUNC '(' expr (',' expr)* ')' | '(' expr ')'

The caller names the variables an expression may use, and the constant
pi is always one; functions are sin, cos, exp, log (natural), tanh,
abs, sign (one argument) and min, max (two).
'^' binds tighter than unary minus, so -2^2 = -(2^2); exponents may carry
their own sign (2^-3 is valid).  No user-defined names, so configs stay
data.

Parsing folds a unary minus applied to a literal into the literal
(normal form: Neg never wraps Num directly), so every parser-produced
AST has one minimally parenthesized source that reparses to it.

Expressions may nest at most MAX_DEPTH levels (parentheses, unary minus,
exponents, and the left-leaning chains of + - * /); deeper input raises
ExprError instead of exhausting the interpreter stack in the recursive
parser and tree walkers.

Expressions compile once (compile_expr) into a tree of closures that
models build when they are assembled; eval_expr compiles and calls.
Evaluation is pure IEEE double arithmetic, vectorized over numpy array
bindings.  Division by zero (including 0^negative), fractional powers
of negative bases and log of a number <= 0 raise; everything else is
total.

diff_expr(e, var) returns the derivative of e in one variable as another
AST: abs differentiates through sign (its derivative at 0 is taken as
0), min and max take the derivative of the branch that sign(a - b)
picks (their mean where a = b), and a^b takes the power rule
b a^(b-1) a' when b' = 0, else a^b (b' log a + b a'/a), the second term
dropped when a' = 0, so its derivative raises where log a does.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvolverError

MAX_DEPTH = 100


class ExprError(EvolverError):
    """Parse or evaluation failure; position is a byte offset when known."""
    slug = "expression"

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} at offset {position}"
        super().__init__(message)
        self.position = position


def _log(a):
    if np.any(np.asarray(a) <= 0):
        raise ExprError("log of a number <= 0")
    return np.log(a)


FUNCTIONS = {
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "exp": (1, np.exp),
    "log": (1, _log),
    "tanh": (1, np.tanh),
    "abs": (1, np.abs),
    "sign": (1, np.sign),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


Expr = Num | Var | Neg | Bin | Call

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^(),]))"
)


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None or m.end() == pos:
            at = pos + len(src[pos:]) - len(src[pos:].lstrip())
            if at >= len(src):
                break
            raise ExprError(f"unexpected character {src[at]!r}", at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src, variables):
        self.names = {*variables, "pi"}
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym):
        kind, text, pos = self.peek()
        if kind == "sym" and text == sym:
            return self.take()
        raise ExprError(f"expected {sym!r}", pos)

    def at_sym(self, *syms):
        kind, text, _ = self.peek()
        return kind == "sym" and text in syms

    def parse(self):
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected {text!r}", pos)
        if _height(e) > MAX_DEPTH:
            raise ExprError(f"expression nested deeper than {MAX_DEPTH} levels")
        return e

    def expr(self):
        e = self.term()
        while self.at_sym("+", "-"):
            op = self.take()[1]
            e = Bin(op, e, self.term())
        return e

    def term(self):
        e = self.factor()
        while self.at_sym("*", "/"):
            op = self.take()[1]
            e = Bin(op, e, self.factor())
        return e

    def factor(self):
        # every recursive production passes through here
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprError(f"expression nested deeper than {MAX_DEPTH} levels",
                            self.peek()[2])
        if self.at_sym("-"):
            self.take()
            inner = self.factor()
            e = Num(-inner.value) if isinstance(inner, Num) else Neg(inner)
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self):
        base = self.atom()
        if self.at_sym("^"):
            self.take()
            return Bin("^", base, self.factor())
        return base

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "num":
            self.take()
            return Num(float(text))
        if kind == "ident":
            self.take()
            if self.at_sym("("):
                if text not in FUNCTIONS:
                    raise ExprError(f"unknown function {text!r}", pos)
                self.take()
                args = [self.expr()]
                while self.at_sym(","):
                    self.take()
                    args.append(self.expr())
                self.expect_sym(")")
                arity = FUNCTIONS[text][0]
                if len(args) != arity:
                    raise ExprError(
                        f"{text} takes {arity} argument(s), got {len(args)}", pos
                    )
                return Call(text, tuple(args))
            if text not in self.names:
                raise ExprError(f"unknown identifier {text!r}", pos)
            return Var(text)
        if kind == "sym" and text == "(":
            self.take()
            e = self.expr()
            self.expect_sym(")")
            return e
        if kind == "end":
            raise ExprError("unexpected end of input", pos)
        raise ExprError(f"unexpected {text!r}", pos)


def _height(e: Expr) -> int:
    """Levels of the AST, walked without recursion."""
    best = 0
    todo = [(e, 1)]
    while todo:
        node, level = todo.pop()
        best = max(best, level)
        if isinstance(node, Neg):
            todo.append((node.arg, level + 1))
        elif isinstance(node, Bin):
            todo += [(node.lhs, level + 1), (node.rhs, level + 1)]
        elif isinstance(node, Call):
            todo += [(a, level + 1) for a in node.args]
    return best


def parse_expr(src: str, variables) -> Expr:
    """Parse source text in the named variables (and pi) into an AST.

    Any other identifier, like any syntax error, raises ExprError with
    its byte offset.
    """
    if not isinstance(src, str):
        raise ExprError("expression source must be a string")
    return _Parser(src, variables).parse()


def compile_expr(e: Expr):
    """Compile an AST once into a callable bindings -> eval_expr(e, bindings).

    The callable is a tree of closures that makes the same IEEE operations
    in the same order as a walk of the AST.  Nothing is folded when it is
    built, so division by zero, invalid powers and unbound variables raise
    ExprError when it is called; only a malformed AST is rejected here.
    """
    run = _compile(e)

    def evaluate(bindings=None):
        out = run({"pi": np.pi, **(bindings or {})})
        return float(out) if np.ndim(out) == 0 else out

    return evaluate


def eval_expr(e: Expr, bindings=None):
    """Evaluate an AST under variable bindings (scalars or numpy arrays).

    pi is always bound.  Returns a float for scalar inputs, an ndarray
    when any binding is an array (numpy broadcasting).
    """
    return compile_expr(e)(bindings)


def _divide(a, b):
    zero = b == 0 if isinstance(b, float) else np.any(np.asarray(b) == 0)
    if zero:
        raise ExprError("division by zero")
    return a / b


def _power(a, b):
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    if np.any(bb < 0) and np.any((aa == 0) & (bb < 0)):
        raise ExprError("division by zero (zero base, negative exponent)")
    with np.errstate(invalid="ignore"):
        res = np.power(aa, bb)
    if np.any(np.isnan(res)):
        raise ExprError("invalid power (negative base, fractional exponent)")
    return res if res.ndim else float(res)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": _divide, "^": _power}


def _lookup(name, env):
    if name not in env:
        raise ExprError(f"unbound variable {name!r}")
    return env[name]


def _compile(e):
    if isinstance(e, Num):
        return lambda env, value=e.value: value
    if isinstance(e, Var):
        return functools.partial(_lookup, e.name)
    if isinstance(e, Neg):
        arg = _compile(e.arg)
        return lambda env: -arg(env)
    if isinstance(e, Bin) and e.op in _BINARY:
        op, lhs, rhs = _BINARY[e.op], _compile(e.lhs), _compile(e.rhs)
        return lambda env: op(lhs(env), rhs(env))
    if isinstance(e, Call) and e.fn in FUNCTIONS:
        fn, args = FUNCTIONS[e.fn][1], [_compile(a) for a in e.args]
        return lambda env: fn(*[a(env) for a in args])
    raise ExprError(f"not an expression node: {e!r}")


_ZERO, _ONE = Num(0.0), Num(1.0)


def _neg(a):
    return Num(-a.value) if isinstance(a, Num) else a.arg if isinstance(a, Neg) else Neg(a)


def _add(a, b):
    return b if a == _ZERO else a if b == _ZERO else Bin("+", a, b)


def _sub(a, b):
    return _neg(b) if a == _ZERO else a if b == _ZERO else Bin("-", a, b)


def _mul(a, b):
    if _ZERO in (a, b):
        return _ZERO
    if Num(-1.0) in (a, b):
        return _neg(b if a == Num(-1.0) else a)
    return b if a == _ONE else a if b == _ONE else Bin("*", a, b)


def _div(a, b):
    return _ZERO if a == _ZERO else a if b == _ONE else Bin("/", a, b)


def diff_expr(e: Expr, var: str) -> Expr:
    """d e / d var as an AST, with trivial 0 and 1 nodes simplified away.

    The rules are the usual ones, applied to the five node types and the
    nine functions (see the module docstring for abs, sign, min, max and
    '^'); any other variable and pi are constants.  Raises ExprError for
    a malformed AST.
    """
    if isinstance(e, Num):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == var else _ZERO
    if isinstance(e, Neg):
        return _neg(diff_expr(e.arg, var))
    if isinstance(e, Bin) and e.op in _BINARY:
        a, b = e.lhs, e.rhs
        da, db = diff_expr(a, var), diff_expr(b, var)
        if e.op == "^":
            if db == _ZERO:
                c = Num(b.value - 1.0) if isinstance(b, Num) else Bin("-", b, _ONE)
                return _mul(_mul(b, a if c == _ONE else Bin("^", a, c)), da)
            # a^b (b' log a + b a'/a)
            return _mul(e, _add(_mul(db, Call("log", (a,))), _div(_mul(b, da), a)))
        if e.op == "+":
            return _add(da, db)
        if e.op == "-":
            return _sub(da, db)
        if e.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        # (a'b - ab') / b^2, or a'/b when b is free of var
        if db == _ZERO:
            return _div(da, b)
        return _div(_sub(_mul(da, b), _mul(a, db)), Bin("^", b, Num(2.0)))
    if isinstance(e, Call) and e.fn in FUNCTIONS:
        if e.fn in ("min", "max"):
            a, b = e.args
            da, db = diff_expr(a, var), diff_expr(b, var)
            if da == db:
                return da
            # (1 + pick) / 2 weighs a' and (1 - pick) / 2 weighs b', where
            # pick = sign(a - b) for max and sign(b - a) for min
            pick = Call("sign", (Bin("-", a, b) if e.fn == "max" else Bin("-", b, a),))
            half = Num(0.5)
            return _add(_mul(_mul(half, Bin("+", _ONE, pick)), da),
                        _mul(_mul(half, Bin("-", _ONE, pick)), db))
        (a,) = e.args
        da = diff_expr(a, var)
        outer = {
            "sin": lambda: Call("cos", (a,)),
            "cos": lambda: Neg(Call("sin", (a,))),
            "exp": lambda: e,
            "log": lambda: Bin("/", _ONE, a),
            "tanh": lambda: Bin("-", _ONE, Bin("^", Call("tanh", (a,)), Num(2.0))),
            "abs": lambda: Call("sign", (a,)),
            "sign": lambda: _ZERO,
        }[e.fn]
        return _mul(outer(), da) if da != _ZERO else _ZERO
    raise ExprError(f"not an expression node: {e!r}")
