"""A small expression language for quadrature test functions.

The operator experiments are driven by concrete functions: indicator
bumps, truncated powers, exponential tails, and products of these.  This
module parses them from text, evaluates them on numpy arrays, and
extracts the singularity hints (breakpoints, endpoint power exponents)
that the quadrature engine needs.

Grammar (EBNF, also documented in the README):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;          (* exponent must be constant *)
    atom    = NUMBER | "inf" | "x" | "y"
            | ("exp" | "log" | "abs") "(" expr ")"
            | "ind" "(" bound "," bound ")"             (* indicator of x *)
            | "ind" "(" var "," bound "," bound ")"     (* indicator of var *)
            | "(" expr ")" ;

"+ -" and "* /" are left-associative; "^" binds tightest and its exponent
must fold to a constant.  ind(lo, hi) is 1 on the closed interval
[lo, hi] and 0 outside (hi may be "inf"); overlap of adjacent indicators
at a shared endpoint is the user's concern -- quadrature never samples
exactly at breakpoints, so measure-zero overlaps are harmless.

Expression trees are immutable and evaluation is pure, so parsed
functions can be shared freely across concurrent workers.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from .errors import DomainError, ExprArityError, ExprSyntaxError, NonConstantExponentError

__all__ = [
    "Expr", "Const", "Var", "BinOp", "Neg", "Pow", "Call", "Ind",
    "parse", "eval_expr", "pretty", "func1d", "func2d", "Func1D", "Func2D",
]


# --------------------------------------------------------------------------
# expression tree
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "x" or "y"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: float


@dataclass(frozen=True)
class Call:
    fn: str  # exp | log | abs
    arg: "Expr"


@dataclass(frozen=True)
class Ind:
    var: str
    lo: float
    hi: float


Expr = Union[Const, Var, BinOp, Neg, Pow, Call, Ind]


# --------------------------------------------------------------------------
# tokenizer / parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            at = len(src) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {src[at]!r}", at)
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}, found {val!r}", pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {val!r}", pos)
        return e

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = BinOp(val, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = BinOp(val, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            epos = self.peek()[2]
            exponent = self.unary()
            c = _fold_const(exponent, epos)
            if c is None:
                raise NonConstantExponentError("power exponent must be a constant", epos)
            return Pow(base, c)
        return base

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "num":
            return Const(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            if val in ("x", "y"):
                return Var(val)
            if val == "inf":
                return Const(math.inf)
            if val in ("exp", "log", "abs"):
                self.expect_op("(")
                arg = self.expr()
                nkind, nval, npos = self.peek()
                if nkind == "op" and nval == ",":
                    raise ExprArityError(f"{val} takes exactly one argument", npos)
                self.expect_op(")")
                return Call(val, arg)
            if val == "ind":
                return self._ind(pos)
            raise ExprSyntaxError(f"unknown function or variable {val!r}", pos)
        raise ExprSyntaxError(f"unexpected {val!r}", pos)

    def _ind(self, pos: int) -> Ind:
        self.expect_op("(")
        args = [self.expr()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == ",":
                self.next()
                args.append(self.expr())
            else:
                break
        self.expect_op(")")
        if len(args) == 2:
            var = "x"
            bounds = args
        elif len(args) == 3:
            if not isinstance(args[0], Var):
                raise ExprArityError("3-argument ind needs a variable first: ind(y, lo, hi)", pos)
            var = args[0].name
            bounds = args[1:]
        else:
            raise ExprArityError(f"ind takes 2 or 3 arguments, got {len(args)}", pos)
        lo = _fold_const(bounds[0], pos)
        hi = _fold_const(bounds[1], pos)
        if lo is None or hi is None:
            raise ExprArityError("ind bounds must be constants", pos)
        if not lo < hi:
            raise ExprArityError(f"ind needs lo < hi, got [{lo}, {hi}]", pos)
        return Ind(var, lo, hi)


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_CALLS = {"exp": math.exp, "log": math.log, "abs": abs}


def _fold_const(e: Expr, pos: int | None = None) -> float | None:
    """Value of a constant subtree, or None if it contains a variable.

    A constant that divides by zero, overflows or is not a real number
    (+-inf are allowed; log of a constant <= 0 is not) raises
    ExprSyntaxError at offset ``pos``.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Neg):
        v = _fold_const(e.arg, pos)
        return None if v is None else -v
    if isinstance(e, BinOp):
        op, args = _ARITH[e.op], (_fold_const(e.left, pos), _fold_const(e.right, pos))
    elif isinstance(e, Pow):
        op, args = operator.pow, (_fold_const(e.base, pos), e.exponent)
    elif isinstance(e, Call):
        op, args = _CALLS[e.fn], (_fold_const(e.arg, pos),)
    else:
        return None
    if None in args:
        return None
    try:
        v = op(*args)
    except ZeroDivisionError as exc:
        raise ExprSyntaxError(f"constant {pretty(e)} divides by zero", pos) from exc
    except OverflowError as exc:
        raise ExprSyntaxError(f"constant {pretty(e)} overflows", pos) from exc
    except ValueError as exc:  # math.log of a constant <= 0
        raise ExprSyntaxError(f"constant {pretty(e)} is not a real number", pos) from exc
    if isinstance(v, complex) or math.isnan(v):
        raise ExprSyntaxError(f"constant {pretty(e)} is not a real number", pos)
    return v


def _check_constants(e: Expr) -> None:
    """Fold every maximal constant subtree (ExprSyntaxError if one is bad)."""
    if _fold_const(e) is None:
        for child in vars(e).values():
            if isinstance(child, (BinOp, Neg, Pow, Call)):
                _check_constants(child)


def parse(src: str) -> Expr:
    """Parse an expression; raises ExprSyntaxError (with offset) on bad input."""
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(src).parse()


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _eval(e: Expr, env: dict, strict: bool):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise DomainError(f"variable {e.name!r} is not covered by the evaluation point")
    if isinstance(e, Neg):
        return -_eval(e.arg, env, strict)
    if isinstance(e, BinOp):
        return _ARITH[e.op](_eval(e.left, env, strict), _eval(e.right, env, strict))
    if isinstance(e, Pow):
        base = _eval(e.base, env, strict)
        if strict:
            b = float(base)
            if b == 0.0 and e.exponent < 0:
                raise DomainError("0 raised to a negative power")
            if b < 0.0 and e.exponent != round(e.exponent):
                raise DomainError(f"negative base {b} with non-integer exponent")
        return base ** e.exponent
    if isinstance(e, Call):
        v = _eval(e.arg, env, strict)
        if e.fn == "exp":
            return np.exp(v)
        if e.fn == "abs":
            return np.abs(v)
        if strict and not np.all(np.asarray(v) > 0):
            raise DomainError("log of a non-positive value")
        return np.log(v)
    if isinstance(e, Ind):
        try:
            v = env[e.var]
        except KeyError:
            raise DomainError(f"variable {e.var!r} is not covered by the evaluation point")
        return ((np.asarray(v) >= e.lo) & (np.asarray(v) <= e.hi)).astype(float)
    raise TypeError(f"not an expression node: {e!r}")


def eval_expr(e: Expr, point):
    """Evaluate at a scalar point (1D) or a pair (2D); raises DomainError,
    or ExprSyntaxError for a bad constant subexpression."""
    _check_constants(e)
    if isinstance(point, (tuple, list)):
        env = {"x": float(point[0]), "y": float(point[1])}
    else:
        env = {"x": float(point)}
    try:
        with np.errstate(over="raise"):  # a numpy overflow raises FloatingPointError
            return float(_eval(e, env, strict=True))
    except ZeroDivisionError as exc:
        raise DomainError(f"division by zero in {pretty(e)} at {point}") from exc
    except (OverflowError, FloatingPointError) as exc:
        raise DomainError(f"{pretty(e)} overflows at {point}") from exc


# --------------------------------------------------------------------------
# pretty printer (canonical form; parse . pretty is the identity)
# --------------------------------------------------------------------------

def _fmt_num(v: float) -> str:
    if math.isinf(v):
        return "inf"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return 1 if e.op in "+-" else 2
    if isinstance(e, Neg):
        return 3
    if isinstance(e, Pow):
        return 4
    return 5


def pretty(e: Expr) -> str:
    def wrap(child: Expr, minimum: int) -> str:
        s = pretty(child)
        return f"({s})" if _prec(child) < minimum else s

    if isinstance(e, Const):
        return _fmt_num(e.value) if e.value >= 0 else f"(-{_fmt_num(-e.value)})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"-{wrap(e.arg, 3)}"
    if isinstance(e, BinOp):
        if e.op in "+-":
            return f"{wrap(e.left, 1)}{e.op}{wrap(e.right, 2)}"
        return f"{wrap(e.left, 2)}{e.op}{wrap(e.right, 3)}"
    if isinstance(e, Pow):
        exp = _fmt_num(e.exponent) if e.exponent >= 0 else f"(-{_fmt_num(-e.exponent)})"
        return f"{wrap(e.base, 5)}^{exp}"
    if isinstance(e, Call):
        return f"{e.fn}({pretty(e.arg)})"
    if isinstance(e, Ind):
        if e.var == "x":
            return f"ind({_fmt_num(e.lo)},{_fmt_num(e.hi)})"
        return f"ind({e.var},{_fmt_num(e.lo)},{_fmt_num(e.hi)})"
    raise TypeError(f"not an expression node: {e!r}")


# --------------------------------------------------------------------------
# endpoint asymptotics: f ~ C * t^c near an endpoint of the var's axis
# --------------------------------------------------------------------------

_ZERO = "zero"    # identically zero near the endpoint (indicator cut it off)
_POWER = "power"  # ~ C * t^c with C != 0


def _probe_sign(e: Expr, var: str, at: float) -> float:
    """Sign of e at var = at (others 1); 0 where e is zero or undefined."""
    env = {"x": np.float64(1.0), "y": np.float64(1.0)}
    env[var] = np.float64(at)  # numpy scalars: a negative base to a fractional power is nan
    with np.errstate(all="ignore"):
        v = float(_eval(e, env, strict=False))
    return 0.0 if v == 0 or math.isnan(v) else math.copysign(1.0, v)


def _asym(e: Expr, var: str, end: str) -> tuple[str, float]:
    """Power behaviour of e along `var` at `end` ('zero' or 'inf')."""
    at_zero = end == "zero"
    if isinstance(e, Const):
        return (_ZERO, 0.0) if e.value == 0.0 else (_POWER, 0.0)
    if isinstance(e, Var):
        return (_POWER, 1.0) if e.name == var else (_POWER, 0.0)
    if isinstance(e, Neg):
        return _asym(e.arg, var, end)
    if isinstance(e, BinOp):
        ka, ca = _asym(e.left, var, end)
        kb, cb = _asym(e.right, var, end)
        if e.op in "+-":
            if ka == _ZERO:
                return kb, cb
            if kb == _ZERO:
                return ka, ca
            return (_POWER, min(ca, cb) if at_zero else max(ca, cb))
        if e.op == "*":
            if ka == _ZERO or kb == _ZERO:
                return (_ZERO, 0.0)
            c = ca + cb
            return (_POWER, 0.0 if math.isnan(c) else c)
        # division
        if ka == _ZERO:
            return (_ZERO, 0.0)
        c = ca - cb
        return (_POWER, 0.0 if math.isnan(c) else c)
    if isinstance(e, Pow):
        k, c = _asym(e.base, var, end)
        if k == _ZERO:
            if e.exponent > 0:
                return (_ZERO, 0.0)
            return (_POWER, -math.inf if at_zero else math.inf)
        return (_POWER, c * e.exponent if c != 0.0 else 0.0)
    if isinstance(e, Call):
        k, c = _asym(e.arg, var, end)
        if e.fn == "abs":
            return k, c
        if e.fn == "log":
            # log factors are treated as exponent 0 (integrable; slopes off
            # by o(1) at the probe points, so keep them out of tail-critical
            # corpus entries).
            return (_POWER, 0.0)
        # exp(arg): decide whether arg stays bounded or runs to +/- inf
        if k == _ZERO or c == 0.0 or (at_zero and c > 0) or (not at_zero and c < 0):
            return (_POWER, 0.0)
        sign = _probe_sign(e.arg, var, 1e-9 if at_zero else 1e9)
        if sign < 0:
            return (_ZERO, 0.0) if at_zero else (_POWER, -math.inf)
        return (_POWER, -math.inf) if at_zero else (_POWER, math.inf)
    if isinstance(e, Ind):
        if e.var != var:
            return (_POWER, 0.0)
        if at_zero:
            return (_ZERO, 0.0) if e.lo > 0 else (_POWER, 0.0)
        return (_POWER, 0.0) if math.isinf(e.hi) else (_ZERO, 0.0)
    raise TypeError(f"not an expression node: {e!r}")


def _abs_kink(arg: Expr, var: str) -> float | None:
    """Zero of a linear abs() argument (var, var+-c, c-var), else None."""
    if isinstance(arg, Var) and arg.name == var:
        return 0.0
    if isinstance(arg, BinOp) and arg.op in "+-":
        left, right = arg.left, arg.right
        cl, cr = _fold_const(left), _fold_const(right)
        if isinstance(left, Var) and left.name == var and cr is not None:
            return cr if arg.op == "-" else -cr
        if isinstance(right, Var) and right.name == var and cl is not None:
            return cl if arg.op == "-" else -cl
    return None


def _collect_breakpoints(e: Expr, var: str) -> set[float]:
    if isinstance(e, Ind) and e.var == var:
        return {b for b in (e.lo, e.hi) if math.isfinite(b)}
    out: set[float] = set()
    if isinstance(e, Call) and e.fn == "abs":
        kink = _abs_kink(e.arg, var)
        if kink is not None:
            out.add(kink)
    for child in getattr(e, "__dict__", {}).values():
        if isinstance(child, (Const, Var, BinOp, Neg, Pow, Call, Ind)):
            out |= _collect_breakpoints(child, var)
    return out


def _mirror(e: Expr, var: str) -> Expr:
    """e with var replaced by -var: x -> -x, ind(x,lo,hi) -> ind(x,-hi,-lo)."""
    if isinstance(e, Var) and e.name == var:
        return Neg(e)
    if isinstance(e, Ind) and e.var == var:
        return Ind(var, -e.hi, -e.lo)
    kids = {k: _mirror(v, var) for k, v in vars(e).items()
            if isinstance(v, (Const, Var, BinOp, Neg, Pow, Call, Ind))}
    return replace(e, **kids) if kids else e


def _decay(e: Expr, var: str) -> float:
    kind, c = _asym(e, var, "inf")
    return math.inf if kind == _ZERO else -c


def _axis_hints(e: Expr, var: str, positive_axis: bool):
    """(breakpoints, left exponent, decay exponent) along var; on the real
    line the decay exponent is the smaller of those at +inf and -inf."""
    bps = _collect_breakpoints(e, var)
    if positive_axis:
        bps = {b for b in bps if b > 0}
    kind0, c0 = _asym(e, var, "zero")
    left = 0.0 if kind0 == _ZERO else c0
    decay = _decay(e, var)
    if not positive_axis:
        decay = min(decay, _decay(_mirror(e, var), var))
    return tuple(sorted(bps)), left, decay


_WHOLE = (-math.inf, math.inf)


def _support(e: Expr, var: str) -> tuple[float, float]:
    """An interval [lo, hi] of var outside which e is identically zero for
    every value of the other variable; lo > hi when e is zero everywhere.

    ind of var and a zero constant bound it; * intersects, + and - take
    the hull, and -, abs and a positive power keep their argument's
    interval.  Everything else (a variable, a nonzero constant, exp, log,
    /, a power <= 0, ind of the other variable) may be nonzero anywhere.
    """
    if isinstance(e, Ind) and e.var == var:
        return (e.lo, e.hi)
    c = _fold_const(e)
    if c is not None:
        return (math.inf, -math.inf) if c == 0.0 else _WHOLE
    if isinstance(e, BinOp) and e.op != "/":
        (la, ha), (lb, hb) = _support(e.left, var), _support(e.right, var)
        if e.op == "*":
            return (max(la, lb), min(ha, hb))
        return (min(la, lb), max(ha, hb))
    if isinstance(e, Neg) or (isinstance(e, Call) and e.fn == "abs"):
        return _support(e.arg, var)
    if isinstance(e, Pow) and e.exponent > 0:
        return _support(e.base, var)
    return _WHOLE


# --------------------------------------------------------------------------
# Func1D / Func2D: evaluable functions with quadrature hints attached
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Func1D:
    """A function on (0, inf) plus the hints quadrature needs.

    fn must accept numpy arrays.  left_exponent / decay_exponent describe
    f ~ C*y^sigma at 0+ and f ~ C*y^(-tau) at infinity.
    """

    fn: Callable
    breakpoints: tuple[float, ...] = ()
    left_exponent: float = 0.0
    decay_exponent: float = math.inf
    label: str = ""

    def __call__(self, y):
        return self.fn(np.asarray(y, dtype=float))

    def dilate(self, R: float) -> "Func1D":
        """The dilation f_R(y) = f(R*y); same endpoint exponents."""
        R = float(R)
        if not R > 0:
            raise DomainError(f"dilation factor must be positive, got {R}")
        inner = self.fn
        return replace(self, fn=lambda y: inner(R * y),
                       breakpoints=tuple(b / R for b in self.breakpoints),
                       label=f"{self.label or 'f'}(x*{_fmt_num(R)})")


@dataclass(frozen=True)
class Func2D:
    """A function on the upper half-plane R x (0, inf) with hints.

    fn(u, v) must broadcast over numpy arrays; complex values are allowed
    (e.g. reproducing-kernel probes).  u_support / v_support are intervals
    outside which fn is identically zero (quadrature integrates only over
    them where they are finite); func2d derives them from the expression.
    """

    fn: Callable
    u_breakpoints: tuple[float, ...] = ()
    v_breakpoints: tuple[float, ...] = ()
    u_decay_exponent: float = math.inf
    v_left_exponent: float = 0.0
    v_decay_exponent: float = math.inf
    label: str = ""
    u_support: tuple[float, float] = _WHOLE
    v_support: tuple[float, float] = (0.0, math.inf)

    def __call__(self, u, v):
        return self.fn(np.asarray(u), np.asarray(v))

    def dilate(self, R: float) -> "Func2D":
        """f_R(z) = f(R*z), i.e. both coordinates scaled."""
        R = float(R)
        if not R > 0:
            raise DomainError(f"dilation factor must be positive, got {R}")
        inner = self.fn
        return replace(self, fn=lambda u, v: inner(R * u, R * v),
                       u_breakpoints=tuple(b / R for b in self.u_breakpoints),
                       v_breakpoints=tuple(b / R for b in self.v_breakpoints),
                       u_support=tuple(b / R for b in self.u_support),
                       v_support=tuple(b / R for b in self.v_support),
                       label=f"{self.label or 'f'}(z*{_fmt_num(R)})")


def _full(value, *args):
    """A constant result broadcast to the shape of the arguments."""
    return np.full(np.broadcast(*args).shape, value) if np.ndim(value) == 0 else value


def _vanish_outside(vals, *axes):
    """vals with its non-finite entries zeroed wherever a coordinate lies
    outside its support, given as (array, (lo, hi)) pairs: the expression
    is zero there by construction, and an inf*0 met on the way (exp(x) *
    ind(0,1) at x = 1e3) is an artefact of evaluating it factor by factor."""
    finite = np.isfinite(vals)
    if finite.all():
        return vals
    outside = False
    for arr, (lo, hi) in axes:
        outside = outside | (arr < lo) | (arr > hi)
    return np.where(outside & ~finite, 0.0, vals)


def func1d(src: str | Expr) -> Func1D:
    """Build a Func1D (variable x on (0, inf)) from expression text."""
    e = parse(src) if isinstance(src, str) else src
    _check_constants(e)
    bps, left, decay = _axis_hints(e, "x", positive_axis=True)
    support = _support(e, "x")

    def fn(arr):
        with np.errstate(all="ignore"):
            return _vanish_outside(_full(_eval(e, {"x": arr}, strict=False), arr), (arr, support))

    return Func1D(fn=fn, breakpoints=bps, left_exponent=left,
                  decay_exponent=decay, label=pretty(e))


def func2d(src: str | Expr) -> Func2D:
    """Build a Func2D (x along R, y along (0, inf)) from expression text."""
    e = parse(src) if isinstance(src, str) else src
    _check_constants(e)
    u_bps, _, u_decay = _axis_hints(e, "x", positive_axis=False)
    v_bps, v_left, v_decay = _axis_hints(e, "y", positive_axis=True)
    u_support = _support(e, "x")
    v_lo, v_hi = _support(e, "y")

    def fn(u, v):
        with np.errstate(all="ignore"):
            vals = _full(_eval(e, {"x": u, "y": v}, strict=False), u, v)
            return _vanish_outside(vals, (u, u_support), (v, (v_lo, v_hi)))

    return Func2D(fn=fn, u_breakpoints=u_bps, v_breakpoints=v_bps,
                  u_decay_exponent=u_decay, v_left_exponent=v_left,
                  v_decay_exponent=v_decay, label=pretty(e),
                  u_support=u_support, v_support=(max(v_lo, 0.0), v_hi))
