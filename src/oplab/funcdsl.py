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

Restricted to these tokens this is Python's expression grammar with "^"
for "**": parse() is a token scan, ast.parse and one converter, so
whitespace may surround any token and nesting past Python's limit of 200
parentheses is an ExprSyntaxError.

One evaluator, _eval, gives every value under numpy's rules: on arrays
for quadrature (a fault is a NaN or inf there), at a point for eval_expr
and at the empty point for constant folding, where a fault numpy flags
(division by zero, overflow, not real) is a DomainError or an
ExprSyntaxError.  An underflow is 0, and inf/0 is inf by IEEE rules.

func1d, func2d and eval_expr fold the constants once, bottom up (_fold),
so the hints see a zero constant such as log(1) as 0 and a bad constant
is named innermost, as written (0^(-1) in exp(0^(-1))*x).  Every walk
takes one frame per level, so a sum up to the parser's limit builds in
linear time; a walk that runs out of stack is "nested too deeply".

func2d also reads a separable source g(x) h(y), g a sum of constant
steps c*ind(lo, hi) of x and h the factors that read y alone, off the
folded tree (_separate), so that bergman can integrate it over x in
closed form.

Expression trees are immutable and evaluation is pure, so parsed
functions can be shared freely across concurrent workers.
"""

from __future__ import annotations

import ast
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
_NODES = (Const, Var, BinOp, Neg, Pow, Call, Ind)


# --------------------------------------------------------------------------
# parser: a token scan, Python's own expression parser, one tree converter
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)
_FUNCS = ("exp", "log", "abs", "ind")
_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def _scan(src: str) -> tuple[str, list[int]]:
    """src as space-separated Python source (float literals, ** for ^) and,
    for each column of it and one past its end, the offset of its token."""
    py, cols, prev, pos = [], [], None, 0
    for m in _TOKEN_RE.finditer(src):
        if m.start() != pos:
            break
        tok, at = m[m.lastgroup], m.start(m.lastgroup)
        if m["name"] and tok not in ("x", "y", "inf") + _FUNCS:
            raise ExprSyntaxError(f"unknown function or variable {tok!r}", at)
        if prev == "," and tok == ")":
            raise ExprSyntaxError("unexpected ')' after ','", at)
        text = repr(float(tok)) if m["num"] else "**" if tok == "^" else tok
        py.append(text)
        cols += [at] * (len(text) + 1)
        prev, pos = tok, m.end()
    rest = src[pos:].lstrip()
    if rest:
        raise ExprSyntaxError(f"unexpected character {rest[0]!r}", len(src) - len(rest))
    return " ".join(py), cols + [len(src)]


def _convert(node: ast.AST, cols: list[int]) -> Expr:
    """The Expr of the Python tree of _scan's source; ExprSyntaxError for
    what the language lacks (unary +, tuples, starred arguments, ...)."""
    if isinstance(node, ast.Constant):
        return Const(node.value)
    if isinstance(node, ast.Name) and node.id not in _FUNCS:
        return Const(math.inf) if node.id == "inf" else Var(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return Neg(_convert(node.operand, cols))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        base, epos = _convert(node.left, cols), cols[node.right.col_offset]
        c = _fold(_convert(node.right, cols), epos)
        if not isinstance(c, Const):
            raise NonConstantExponentError("power exponent must be a constant", epos)
        return Pow(base, c.value)
    if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        return BinOp(_OPS[type(node.op)], _convert(node.left, cols), _convert(node.right, cols))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in _FUNCS
            and node.func.col_offset == node.col_offset and node.args and not node.keywords):
        fn, pos = node.func.id, cols[node.col_offset]
        args = [_convert(a, cols) for a in (node.args if fn == "ind" else node.args[:1])]
        if fn != "ind" and len(node.args) > 1:
            raise ExprArityError(f"{fn} takes exactly one argument", cols[node.args[1].col_offset])
        if fn != "ind":
            return Call(fn, args[0])
        if len(args) not in (2, 3):
            raise ExprArityError(f"ind takes 2 or 3 arguments, got {len(args)}", pos)
        if len(args) == 3 and not isinstance(args[0], Var):
            raise ExprArityError("3-argument ind needs a variable first: ind(y, lo, hi)", pos)
        lo, hi = (_fold(b, pos) for b in args[-2:])
        if not (isinstance(lo, Const) and isinstance(hi, Const)):
            raise ExprArityError("ind bounds must be constants", pos)
        lo, hi = lo.value, hi.value
        if not lo < hi:
            raise ExprArityError(f"ind needs lo < hi, got [{lo}, {hi}]", pos)
        return Ind(args[0].name if len(args) == 3 else "x", lo, hi)
    raise ExprSyntaxError("invalid syntax", cols[node.col_offset])


_TOO_DEEP = "expression nested too deeply"
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_CALLS = {"exp": np.exp, "log": np.log, "abs": np.abs}
_FAULTS = {"divide by zero": "divides by zero", "overflow": "overflows",
           "invalid value": "is not a real number"}


def _fold(e: Expr, pos: int | None = None) -> Expr:
    """e with every node whose children are all constants replaced by its
    value, _eval at the empty point, bottom up in one walk.  A constant that
    divides by zero, overflows or is not real raises ExprSyntaxError at pos
    naming that node as written (+-inf is fine; inf/0 is inf)."""
    kids = {}
    for name, child in vars(e).items():
        if isinstance(child, _NODES):
            kids[name] = _fold(child, pos)
    folded = e if all(kids[k] is getattr(e, k) for k in kids) else replace(e, **kids)
    if not kids or not all(isinstance(k, Const) for k in kids.values()):
        return folded
    try:
        return Const(_checked_eval(folded, {}))
    except ArithmeticError as exc:
        raise ExprSyntaxError(f"constant {pretty(e)} {exc}", pos) from exc


def parse(src: str) -> Expr:
    """Parse an expression; raises ExprSyntaxError (with offset) on bad input."""
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    py, cols = _scan(src)
    try:
        return _convert(ast.parse(py, mode="eval").body, cols)
    except SyntaxError as exc:  # offset 0 or past the end: at the end of src
        raise ExprSyntaxError(exc.msg, cols[min(exc.offset or 0, len(cols)) - 1]) from None
    except (RecursionError, MemoryError):  # nesting past the parser's stacks
        raise ExprSyntaxError(_TOO_DEEP, 0) from None


def _deep(walk: Callable, *args, **kwargs):
    """walk(*args) over a tree, where running out of stack is the parser's
    ExprSyntaxError: a walk that starts further down the stack than parse
    (a drive's integrand, say) may not reach the depth the parser allows."""
    try:
        return walk(*args, **kwargs)
    except RecursionError:
        raise ExprSyntaxError(_TOO_DEEP, 0) from None


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _eval(e: Expr, env: dict):
    """e at the point env (numpy scalars or arrays), by numpy's rules."""
    if isinstance(e, Const):
        return np.float64(e.value)
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise DomainError(f"variable {e.name!r} is not covered by the evaluation point")
    if isinstance(e, Neg):
        return -_eval(e.arg, env)
    if isinstance(e, BinOp):
        return _ARITH[e.op](_eval(e.left, env), _eval(e.right, env))
    if isinstance(e, Pow):
        return _eval(e.base, env) ** e.exponent
    if isinstance(e, Call):
        return _CALLS[e.fn](_eval(e.arg, env))
    if isinstance(e, Ind):
        try:
            v = env[e.var]
        except KeyError:
            raise DomainError(f"variable {e.var!r} is not covered by the evaluation point")
        return ((np.asarray(v) >= e.lo) & (np.asarray(v) <= e.hi)).astype(float)
    raise TypeError(f"not an expression node: {e!r}")


def _checked_eval(e: Expr, env: dict) -> float:
    """e at a scalar point.  Where numpy flags a step, ArithmeticError with
    the fault it names before "encountered" ("overflow encountered in scalar
    divide", as in 1/1e-320, is an overflow); an underflow is 0."""
    try:
        with np.errstate(all="raise", under="ignore"):
            return float(_eval(e, env))
    except FloatingPointError as exc:
        raise ArithmeticError(_FAULTS[str(exc).split(" encountered")[0]]) from exc


def eval_expr(e: Expr, point):
    """Evaluate at a scalar point (1D) or a pair (2D) as the array path
    does; DomainError where numpy flags a fault (a NaN such as x*inf at 0
    included), or ExprSyntaxError for a bad constant subexpression."""
    folded = _deep(_fold, e)
    coords = point if isinstance(point, (tuple, list)) else (point,)
    try:
        return _deep(_checked_eval, folded, {name: np.float64(c) for name, c in zip("xy", coords)})
    except ArithmeticError as exc:
        raise DomainError(f"{pretty(e)} {exc} at {point}") from exc


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
    return _pretty(e, 0)


def _pretty(e: Expr, minimum: int) -> str:
    """pretty(e), in parentheses where e binds less tightly than the
    precedence minimum of its place (one frame per level)."""
    if isinstance(e, Const):
        s = _fmt_num(e.value) if e.value >= 0 else f"(-{_fmt_num(-e.value)})"
    elif isinstance(e, Var):
        s = e.name
    elif isinstance(e, Neg):
        s = f"-{_pretty(e.arg, 3)}"
    elif isinstance(e, BinOp):
        p = _prec(e)
        s = f"{_pretty(e.left, p)}{e.op}{_pretty(e.right, p + 1)}"
    elif isinstance(e, Pow):
        exp = _fmt_num(e.exponent) if e.exponent >= 0 else f"(-{_fmt_num(-e.exponent)})"
        s = f"{_pretty(e.base, 5)}^{exp}"
    elif isinstance(e, Call):
        s = f"{e.fn}({_pretty(e.arg, 0)})"
    elif isinstance(e, Ind):
        var = "" if e.var == "x" else f"{e.var},"
        s = f"ind({var}{_fmt_num(e.lo)},{_fmt_num(e.hi)})"
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return f"({s})" if _prec(e) < minimum else s


# --------------------------------------------------------------------------
# endpoint asymptotics: f ~ C * |t|^c as t runs to an end of the var's axis
# --------------------------------------------------------------------------

def _probe_sign(e: Expr, var: str, at: float) -> float:
    """Sign of e at var = at (others 1); 0 where e is zero or undefined."""
    env = {"x": np.float64(1.0), "y": np.float64(1.0)}
    env[var] = np.float64(at)  # numpy scalars: a negative base to a fractional power is nan
    with np.errstate(all="ignore"):
        v = float(_eval(e, env))
    return 0.0 if v == 0 or math.isnan(v) else math.copysign(1.0, v)


def _lead(e: Expr, var: str, end: float) -> float | None:
    """The exponent c of e ~ C*|t|^c, C != 0, as var = t runs to `end`
    (0 from above, inf or -inf) with the other variable fixed; None where
    e is identically zero near the end (at 0 also where it decays faster
    than any power).  c = inf or -inf is growth or decay faster than any
    power.  At -inf the rules are those at inf, but exp's argument is
    probed at -1e9 and ind(lo, hi) reaches the end only when lo = -inf.
    """
    if isinstance(e, Const):
        return None if e.value == 0.0 else 0.0
    if isinstance(e, Var):
        return 1.0 if e.name == var else 0.0
    if isinstance(e, Neg):
        return _lead(e.arg, var, end)
    if isinstance(e, BinOp):
        ca, cb = _lead(e.left, var, end), _lead(e.right, var, end)
        if e.op in "+-":
            if ca is None or cb is None:
                return cb if ca is None else ca
            return min(ca, cb) if end == 0 else max(ca, cb)
        if ca is None or (cb is None and e.op == "*"):
            return None
        c = ca + cb if e.op == "*" else ca - (0.0 if cb is None else cb)
        return 0.0 if math.isnan(c) else c
    if isinstance(e, Pow):
        c = _lead(e.base, var, end)
        if c is None:
            return None if e.exponent > 0 else (-math.inf if end == 0 else math.inf)
        return c * e.exponent if c != 0.0 else 0.0
    if isinstance(e, Call):
        c = _lead(e.arg, var, end)
        if e.fn == "abs":
            return c
        if e.fn == "log":
            # log factors are treated as exponent 0 (integrable; slopes off
            # by o(1) at the probe points, so keep them out of tail-critical
            # corpus entries).
            return 0.0
        # exp(arg): decide whether arg stays bounded or runs to +/- inf
        if c is None or c == 0.0 or (c > 0 if end == 0 else c < 0):
            return 0.0
        if _probe_sign(e.arg, var, math.copysign(1e9, end) if end else 1e-9) < 0:
            return None if end == 0 else -math.inf
        return -math.inf if end == 0 else math.inf
    if isinstance(e, Ind):
        if e.var != var:
            return 0.0
        reaches = e.lo <= 0 if end == 0 else end in (e.lo, e.hi)
        return 0.0 if reaches else None
    raise TypeError(f"not an expression node: {e!r}")


def _abs_kink(arg: Expr, var: str) -> float | None:
    """Zero of a linear abs() argument (var, var+-c, c-var), else None."""
    if isinstance(arg, Var) and arg.name == var:
        return 0.0
    if isinstance(arg, BinOp) and arg.op in "+-":
        left, right = arg.left, arg.right
        if isinstance(left, Var) and left.name == var and isinstance(right, Const):
            return right.value if arg.op == "-" else -right.value
        if isinstance(right, Var) and right.name == var and isinstance(left, Const):
            return left.value if arg.op == "-" else -left.value
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
        if isinstance(child, _NODES):
            out |= _collect_breakpoints(child, var)
    return out


def _axis_hints(e: Expr, var: str, positive_axis: bool):
    """(breakpoints, left exponent, decay exponent) along var, read from
    _lead: the left exponent is c at 0, the decay exponent -c at inf (on
    the real line the smaller of those at inf and -inf), and an end where
    e is identically zero has exponent inf."""
    bps = _collect_breakpoints(e, var)
    if positive_axis:
        bps = {b for b in bps if b > 0}
    left = _lead(e, var, 0.0)
    ends = (math.inf,) if positive_axis else (math.inf, -math.inf)
    decay = min(math.inf if c is None else -c for c in (_lead(e, var, end) for end in ends))
    return tuple(sorted(bps)), math.inf if left is None else left, decay


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
    if isinstance(e, Const):
        return (math.inf, -math.inf) if e.value == 0.0 else _WHOLE
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
# piece sums: sum of c * x^s * ind(lo, hi)
# --------------------------------------------------------------------------

def _factors(e: Expr, sign: float = 1.0):
    """(sign, factors) of a product, with its negations pulled out."""
    if isinstance(e, Neg):
        return _factors(e.arg, -sign)
    if isinstance(e, BinOp) and e.op == "*":
        sign, left = _factors(e.left, sign)
        sign, right = _factors(e.right, sign)
        return sign, left + right
    return sign, [e]


def _piece(e: Expr, var: str, floor: float) -> tuple[float, float, float, float] | None:
    """(c, s, lo, hi) of a product of constants, var, var^s and at least one
    ind(lo, hi) of var, with the indicators intersected and cut at floor;
    else None."""
    c, factors = _factors(e)
    s, lo, hi, has_ind = 0.0, floor, math.inf, False
    for factor in factors:
        if isinstance(factor, Const):
            c *= factor.value
        elif isinstance(factor, Var) and factor.name == var:
            s += 1.0
        elif isinstance(factor, Pow) and factor.base == Var(var):
            s += factor.exponent
        elif isinstance(factor, Ind) and factor.var == var:
            lo, hi, has_ind = max(lo, factor.lo), min(hi, factor.hi), True
        else:
            return None
    if not (has_ind and math.isfinite(c) and lo < hi):
        return None
    return (c, s, lo, hi)


def _pieces(e: Expr, var: str = "x", floor: float = 0.0) -> tuple | None:
    """The terms (c, s, lo, hi) of e when e is a +/- sum of pieces
    c * var^s * ind(lo, hi) on (floor, inf), else None."""
    if isinstance(e, BinOp) and e.op in "+-":
        left, right = _pieces(e.left, var, floor), _pieces(e.right, var, floor)
        if left is None or right is None:
            return None
        if e.op == "-":
            right = tuple((-c, s, lo, hi) for c, s, lo, hi in right)
        return left + right
    if isinstance(e, Neg):
        inner = _pieces(e.arg, var, floor)
        return None if inner is None else tuple((-c, s, lo, hi) for c, s, lo, hi in inner)
    term = _piece(e, var, floor)
    return None if term is None else (term,)


def _reads(e: Expr, var: str) -> bool:
    """Whether e depends on the variable var (one frame per level)."""
    if isinstance(e, Var):
        return e.name == var
    if isinstance(e, Ind):
        return e.var == var
    for child in vars(e).values():
        if isinstance(child, _NODES) and _reads(child, var):
            return True
    return False


def _separate(e: Expr) -> tuple[tuple, Expr] | None:
    """(steps, h) when e = g(x) h(y), g a sum of constant steps
    c * ind(lo, hi) of x on the real line given as (c, lo, hi), a constant
    factor being the step (-inf, inf), and h the product of e's factors
    that read y alone, ind(y, 0, inf) (1 on the half-plane) if there are
    none; else None.  The steps of several x factors are intersected, and
    steps with c = 0 dropped; a g that is zero is None."""
    sign, factors = _factors(e)
    steps, h = ((sign, -math.inf, math.inf),), None
    for factor in factors:
        if isinstance(factor, Const):
            steps = tuple((c * factor.value, lo, hi) for c, lo, hi in steps)
        elif not _reads(factor, "x"):
            h = factor if h is None else BinOp("*", h, factor)
        else:
            terms = _pieces(factor, "x", -math.inf)
            if terms is None or any(s for _, s, _, _ in terms):
                return None
            steps = tuple((c * d, max(lo, a), min(hi, b)) for c, lo, hi in steps
                          for d, _, a, b in terms if max(lo, a) < min(hi, b))
    steps = tuple(step for step in steps if step[0])
    if not (steps and all(math.isfinite(c) for c, _, _ in steps)):
        return None
    return steps, Ind("y", 0.0, math.inf) if h is None else h


# --------------------------------------------------------------------------
# Func1D / Func2D: evaluable functions with quadrature hints attached
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Func1D:
    """A function on (0, inf) plus the hints quadrature needs.

    fn must accept numpy arrays.  left_exponent / decay_exponent describe
    f ~ C*y^sigma at 0+ and f ~ C*y^(-tau) at infinity.  pieces, when
    set, is f as a sum of terms c * y^s * ind(lo, hi), given as
    (c, s, lo, hi) with 0 <= lo < hi <= inf: hilbert applies H to such a
    sum in closed form.
    """

    fn: Callable
    breakpoints: tuple[float, ...] = ()
    left_exponent: float = 0.0
    decay_exponent: float = math.inf
    pieces: tuple | None = None

    def __call__(self, y):
        return self.fn(np.asarray(y, dtype=float))

    def dilate(self, R: float) -> "Func1D":
        """The dilation f_R(y) = f(R*y); same endpoint exponents, and each
        piece c*y^s*ind(lo,hi) becomes c*R^s*y^s*ind(lo/R,hi/R)."""
        R = float(R)
        if not 0.0 < R < math.inf:
            raise DomainError(f"dilation factor must be positive and finite, got {R}")
        inner = self.fn
        pieces = self.pieces and tuple((c * R ** s, s, lo / R, hi / R)
                                       for c, s, lo, hi in self.pieces)
        return replace(self, fn=lambda y: inner(R * y),
                       breakpoints=tuple(b / R for b in self.breakpoints), pieces=pieces)


@dataclass(frozen=True)
class Func2D:
    """A function on the upper half-plane R x (0, inf) with hints.

    fn(u, v) must broadcast over numpy arrays; complex values are allowed
    (e.g. reproducing-kernel probes).  u_decay_exponent is the smaller
    tau of f ~ C*|u|^(-tau) at u -> inf and u -> -inf; v_left_exponent
    and v_decay_exponent describe f ~ C*v^sigma at 0+ and f ~ C*v^(-tau)
    at infinity, as in Func1D.  u_support / v_support are intervals
    outside which fn is identically zero (quadrature integrates only over
    them, with their finite ends as knots); func2d derives all of these
    from the expression.  u_steps and v_factor, when set, are f as
    g(u) * h(v): g the sum of the steps c * ind(lo, hi) of u, given as
    (c, lo, hi) (a constant is the step (-inf, inf)), and h a Func1D;
    bergman integrates such a source over u in closed form.
    """

    fn: Callable
    u_breakpoints: tuple[float, ...] = ()
    v_breakpoints: tuple[float, ...] = ()
    u_decay_exponent: float = math.inf
    v_left_exponent: float = 0.0
    v_decay_exponent: float = math.inf
    u_support: tuple[float, float] = _WHOLE
    v_support: tuple[float, float] = (0.0, math.inf)
    u_steps: tuple | None = None
    v_factor: Func1D | None = None

    def __call__(self, u, v):
        return self.fn(np.asarray(u), np.asarray(v))

    def dilate(self, R: float) -> "Func2D":
        """f_R(z) = f(R*z), i.e. both coordinates scaled: so are the u
        steps, and the v factor is dilated."""
        R = float(R)
        if not 0.0 < R < math.inf:
            raise DomainError(f"dilation factor must be positive and finite, got {R}")
        inner = self.fn
        return replace(self, fn=lambda u, v: inner(R * u, R * v),
                       u_breakpoints=tuple(b / R for b in self.u_breakpoints),
                       v_breakpoints=tuple(b / R for b in self.v_breakpoints),
                       u_support=tuple(b / R for b in self.u_support),
                       v_support=tuple(b / R for b in self.v_support),
                       u_steps=self.u_steps and tuple((c, lo / R, hi / R) for c, lo, hi in self.u_steps),
                       v_factor=self.v_factor and self.v_factor.dilate(R))


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
    return _func1d(_deep(_fold, parse(src) if isinstance(src, str) else src), "x")


def _func1d(e: Expr, var: str) -> Func1D:
    """The Func1D of a folded expression in the variable var."""
    bps, left, decay = _deep(_axis_hints, e, var, positive_axis=True)
    support, pieces = _deep(_support, e, var), _deep(_pieces, e, var)

    def fn(arr):
        with np.errstate(all="ignore"):
            return _vanish_outside(_full(_deep(_eval, e, {var: arr}), arr), (arr, support))

    return Func1D(fn=fn, breakpoints=bps, left_exponent=left,
                  decay_exponent=decay, pieces=pieces)


def func2d(src: str | Expr) -> Func2D:
    """Build a Func2D (x along R, y along (0, inf)) from expression text,
    with its u_steps and v_factor where it is a product g(x) h(y) of a
    step sum g of x and factors h that read y alone (_separate)."""
    e = _deep(_fold, parse(src) if isinstance(src, str) else src)
    u_bps, _, u_decay = _deep(_axis_hints, e, "x", positive_axis=False)
    v_bps, v_left, v_decay = _deep(_axis_hints, e, "y", positive_axis=True)
    u_support = _deep(_support, e, "x")
    v_lo, v_hi = _deep(_support, e, "y")

    def fn(u, v):
        with np.errstate(all="ignore"):
            vals = _full(_deep(_eval, e, {"x": u, "y": v}), u, v)
            return _vanish_outside(vals, (u, u_support), (v, (v_lo, v_hi)))

    separated = _deep(_separate, e)
    return Func2D(fn=fn, u_breakpoints=u_bps, v_breakpoints=v_bps,
                  u_decay_exponent=u_decay, v_left_exponent=v_left,
                  v_decay_exponent=v_decay, u_support=u_support, v_support=(max(v_lo, 0.0), v_hi),
                  u_steps=separated and separated[0],
                  v_factor=separated and _func1d(separated[1], "y"))
