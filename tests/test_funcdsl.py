"""Expression language: parsing, evaluation, hints, round-trips."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oplab.errors import (
    DomainError,
    ExprArityError,
    ExprSyntaxError,
    NonConstantExponentError,
)
from oplab.funcdsl import eval_expr, func1d, func2d, parse, pretty

INF = math.inf


def test_parse_examples():
    e = parse("ind(1,2)")
    assert eval_expr(e, 1.5) == 1.0 and eval_expr(e, 3.0) == 0.0
    e = parse("x^(-0.75)*ind(1,inf)")
    assert eval_expr(e, 16.0) == pytest.approx(16.0 ** -0.75)
    assert eval_expr(e, 0.5) == 0.0
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x^^2")
    assert exc.value.position == 2


def test_eval_examples():
    assert eval_expr(parse("x^(-0.5)"), 4.0) == pytest.approx(0.5)
    assert eval_expr(parse("ind(1,2)"), 3.0) == 0.0
    # both indicators are closed at the shared endpoint (documented convention)
    val = eval_expr(parse("x*ind(0,1)+exp(-x)*ind(1,inf)"), 1.0)
    assert val == pytest.approx(1.0 + math.exp(-1.0))


def test_eval_2d_points():
    e = parse("ind(-0.25,0.25)*ind(y,1,2)")
    assert eval_expr(e, (0.0, 1.5)) == 1.0
    assert eval_expr(e, (0.3, 1.5)) == 0.0
    assert eval_expr(e, (0.0, 2.5)) == 0.0


def test_parse_errors():
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("2 +")
    with pytest.raises(ExprSyntaxError):
        parse("foo(3)")
    with pytest.raises(ExprSyntaxError):
        parse("x $ 2")
    with pytest.raises(NonConstantExponentError):
        parse("x^y")
    with pytest.raises(NonConstantExponentError):
        parse("2^(x+1)")
    with pytest.raises(ExprArityError):
        parse("exp(x, 2)")
    with pytest.raises(ExprArityError):
        parse("ind(1)")
    with pytest.raises(ExprArityError):
        parse("ind(2,1)")


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        eval_expr(parse("log(x-2)"), 1.0)
    with pytest.raises(DomainError):
        eval_expr(parse("(x-1)^(-0.5)"), 1.0)
    with pytest.raises(DomainError):
        eval_expr(parse("y+x"), 1.0)  # point does not cover y


def test_constant_exponent_folding():
    # parenthesized signed and folded-constant exponents are accepted
    assert eval_expr(parse("x^(-2)"), 2.0) == pytest.approx(0.25)
    assert eval_expr(parse("x^(3/4)"), 16.0) == pytest.approx(8.0)
    assert eval_expr(parse("x^-2"), 2.0) == pytest.approx(0.25)


@pytest.mark.parametrize("src", [
    "x^(1/0)", "ind(1,1/0)", "x^(10^400)", "x^((-1)^0.5)", "abs(x-1/0)",
    "(0-1)^0.5*ind(1,2)", "x*(inf-inf)", "exp(0^(-1))*x",
])
def test_bad_constant_subexpressions(src):
    with pytest.raises(ExprSyntaxError):
        func1d(src)
    with pytest.raises(ExprSyntaxError):
        func2d(src.replace("ind(1,2)", "ind(y,1,2)"))


def test_constant_checks_keep_trees_and_infinite_bounds():
    # parse alone folds only exponents and bounds; the tree is not rewritten
    assert pretty(parse("(0-1)^0.5*ind(1,2)")) == "(0-1)^0.5*ind(1,2)"
    assert pretty(parse("x^(2/4)*(1+1)")) == "x^0.5*(1+1)"
    assert func1d("ind(-inf,inf)*exp(-x)")(np.array([3.0]))[0] == math.exp(-3.0)
    assert func1d("x^(-2)*ind(1,inf)").breakpoints == (1.0,)


def test_constant_function_broadcasts():
    xs = np.array([0.5, 1.0, 2.0])
    assert np.array_equal(func1d("1")(xs), np.ones(3))
    assert np.array_equal(func1d("2^3")(xs), np.full(3, 8.0))
    v = func2d("exp(1)")(xs[None, :], np.array([[1.0], [2.0]]))
    assert v.shape == (2, 3) and np.all(v == math.e)


ROUND_TRIP_SOURCES = [
    "ind(1,2)",
    "x^(-0.75)*ind(1,inf)",
    "x*ind(0,1)+exp(-x)*ind(1,inf)",
    "-x^2+3/(1+x)^2",
    "abs(x-1)/(x+2)*log(x+1)",
    "ind(y,1,2)*ind(-0.25,0.25)",
    "2*x-3*x^2-(1-x)",
    "1/(1+x)/(2+x)",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_pretty_round_trip_idempotent(src):
    once = pretty(parse(src))
    twice = pretty(parse(once))
    assert once == twice


@st.composite
def expr_trees(draw, depth=0, two_d=False):
    leaves = [
        st.just("x"),
        st.floats(0.1, 5.0).map(lambda v: f"{v:.3f}"),
        st.tuples(st.floats(0.1, 2.0), st.floats(2.1, 5.0)).map(
            lambda b: f"ind({b[0]:.2f},{b[1]:.2f})"),
    ]
    if two_d:
        leaves += [
            st.just("y"),
            st.just("0"),
            st.tuples(st.floats(-4.0, 1.0), st.floats(0.1, 3.0)).map(
                lambda b: f"ind({b[0]:.2f},{b[0] + b[1]:.2f})"),
            st.tuples(st.floats(-1.0, 2.0), st.floats(0.1, 3.0)).map(
                lambda b: f"ind(y,{b[0]:.2f},{b[0] + b[1]:.2f})"),
        ]
    leaf = st.one_of(*leaves)
    if depth >= 3:
        return draw(leaf)
    op = draw(st.sampled_from(["+", "-", "*", "/", "neg", "exp", "abs", "pow", "leaf"]))
    if op == "leaf":
        return draw(leaf)
    sub = expr_trees(depth=depth + 1, two_d=two_d)
    if op == "neg":
        return f"-({draw(sub)})"
    if op in ("exp", "abs"):
        return f"{op}({draw(sub)})"
    if op == "pow":
        e = draw(st.floats(-3.0, 3.0))
        return f"({draw(sub)})^({e:.2f})"
    return f"({draw(sub)}){op}({draw(sub)})"


@settings(max_examples=150, deadline=None)
@given(expr_trees())
def test_pretty_round_trip_random(src):
    once = pretty(parse(src))
    assert pretty(parse(once)) == once


def test_hint_extraction():
    f = func1d("ind(1,2)")
    assert f.breakpoints == (1.0, 2.0)
    assert f.left_exponent == 0.0 and math.isinf(f.decay_exponent)

    f = func1d("x^(-0.75)*ind(1,inf)")
    assert f.breakpoints == (1.0,)
    assert f.left_exponent == 0.0  # vanishes near the origin
    assert f.decay_exponent == pytest.approx(0.75)

    f = func1d("x^2/(1+x)^6")
    assert f.left_exponent == pytest.approx(2.0)
    assert f.decay_exponent == pytest.approx(4.0)

    f = func1d("exp(-x)*x^0.5")
    assert f.left_exponent == pytest.approx(0.5)
    assert math.isinf(f.decay_exponent)

    g = func2d("ind(-0.25,0.25)*ind(y,1,2)")
    assert g.u_breakpoints == (-0.25, 0.25)
    assert g.v_breakpoints == (1.0, 2.0)
    assert math.isinf(g.u_decay_exponent) and math.isinf(g.v_decay_exponent)


HINT_CORPUS = [
    "x^(-0.75)*ind(1,inf)",
    "x^2/(1+x)^6",
    "x^(-0.5)/(1+x)",
    "x^0.5*exp(-x)",
    "3*x/(1+x)^3+x^2/(1+x)^6",
    "1/(1+x)^2",
]


@pytest.mark.parametrize("src", HINT_CORPUS)
def test_hint_soundness_loglog_slopes(src):
    # numerically estimated endpoint exponents match declared hints to 0.05
    f = func1d(src)
    lo = max(f.breakpoints[-1] if f.breakpoints else 0.0, 0.0)

    def slope(x0, x1):
        v0, v1 = float(f(np.array(x0))), float(f(np.array(x1)))
        return (math.log(abs(v1)) - math.log(abs(v0))) / (math.log(x1) - math.log(x0))

    if not f.breakpoints:  # near-origin behaviour only meaningful without cutoffs
        est = slope(1e-6, 2e-6)
        assert abs(est - f.left_exponent) <= 0.05
    if math.isfinite(f.decay_exponent):
        est = slope(max(1e6, lo * 10), 2 * max(1e6, lo * 10))
        assert abs(est + f.decay_exponent) <= 0.05


@settings(max_examples=200, deadline=None)
@given(expr_trees(two_d=True))
def test_support_is_sound(src):
    # outside the reported supports every value is exactly zero
    try:
        f = func2d(src)
    except ExprSyntaxError:
        assume(False)  # a constant subexpression that is not a real number
    us = np.linspace(-6.0, 6.0, 97)[:, None]
    vs = np.linspace(0.05, 6.0, 48)[None, :]
    vals = np.broadcast_to(f(us, vs), (us.size, vs.size))
    (ulo, uhi), (vlo, vhi) = f.u_support, f.v_support
    outside = (us < ulo) | (us > uhi) | (vs < vlo) | (vs > vhi)
    assert np.all(vals[outside] == 0.0)


@pytest.mark.parametrize("src, u_support, v_support", [
    ("ind(-0.25,0.25)*ind(y,1,2)", (-0.25, 0.25), (1.0, 2.0)),
    ("ind(y,1,2)", (-INF, INF), (1.0, 2.0)),
    ("ind(-1,0.5)*y^0.5*ind(y,0.5,3)", (-1.0, 0.5), (0.5, 3.0)),
    ("(ind(-1,0)+2*ind(0,1))*abs(x)^0.5*ind(y,-1,2)", (-1.0, 1.0), (0.0, 2.0)),
    ("ind(0,1)*x^(-1)*ind(y,1,2)", (0.0, 1.0), (1.0, 2.0)),
    ("ind(0,1)/x*ind(y,1,2)", (-INF, INF), (1.0, 2.0)),
    ("ind(0,1)*exp(x)+ind(y,1,2)", (-INF, INF), (0.0, INF)),
    ("x^(-1)*ind(0,1)*ind(y,1,2)", (0.0, 1.0), (1.0, 2.0)),
    ("exp(-abs(x))*y*exp(-y)", (-INF, INF), (0.0, INF)),
])
def test_support_extraction(src, u_support, v_support):
    f = func2d(src)
    assert f.u_support == u_support and f.v_support == v_support


def test_support_of_zero_and_dilation():
    f = func2d("0*x*y")
    assert f.u_support[0] > f.u_support[1] and f.v_support[0] > f.v_support[1]
    g = func2d("ind(-0.25,0.25)*ind(y,1,2)").dilate(4.0)
    assert g.u_support == (-0.0625, 0.0625) and g.v_support == (0.25, 0.5)


@pytest.mark.parametrize("src, decay", [
    ("ind(-inf,0)*ind(y,1,2)", 0.0),
    ("ind(0,inf)*ind(y,1,2)", 0.0),
    ("(1+abs(x))^(0-0.5)*ind(-inf,0)*ind(y,1,2)", 0.5),
    ("(1+abs(x))^(0-0.5)*ind(0,inf)*ind(y,1,2)", 0.5),
    ("(1+abs(x))^(0-3)*ind(-inf,0)+(1+x^2)^(0-1)", 2.0),
    ("exp(0-x)*ind(y,1,2)", -INF),
    ("exp(-abs(x))*y*exp(-y)", INF),
    ("ind(-0.25,0.25)*ind(y,1,2)", INF),
])
def test_u_decay_is_two_sided(src, decay):
    assert func2d(src).u_decay_exponent == decay


def test_constants_under_exp_log_abs_are_checked():
    for src in ("log(0-1)*ind(1,2)+ind(2,3)", "log(0)*x", "exp(1000)*x", "abs(log(0-2))*x"):
        with pytest.raises(ExprSyntaxError) as exc:
            func1d(src)
        assert "constant" in str(exc.value)
    assert "log(0-1)" in str(pytest.raises(ExprSyntaxError, func1d, "log(0-1)*ind(1,2)").value)
    assert func1d("exp(1)*x")(np.array([2.0]))[0] == pytest.approx(2.0 * math.e)
    assert func1d("x^log(4)").label == f"x^{math.log(4.0)!r}"


def test_exp_hint_of_a_power_undefined_at_the_far_end():
    # (1-x)^1.5 is not real for large x: the hint is the conservative one
    # instead of a TypeError from a complex probe value
    assert func1d("exp((1-x)^1.5)*ind(0,2)").decay_exponent == INF
    assert func1d("exp((1-x)^1.5)").decay_exponent == -INF
    assert func2d("exp((x+x)^1.5)*ind(y,1,2)").u_decay_exponent == -INF


def test_eval_expr_division_by_zero():
    with pytest.raises(ExprSyntaxError):
        eval_expr(parse("1/0*x"), 1.0)
    with pytest.raises(DomainError):
        eval_expr(parse("x/(x-1)"), 1.0)
    assert eval_expr(parse("x/(x-1)"), 2.0) == 2.0


def test_eval_expr_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match=r"x\^400 overflows at 10\.0"):
        eval_expr(parse("x^400"), 10.0)
    assert eval_expr(parse("x^400"), 1.0) == 1.0


@pytest.mark.filterwarnings("error")
def test_eval_expr_exp_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match=r"exp\(x\) overflows at 1000\.0"):
        eval_expr(parse("exp(x)"), 1000.0)
    with pytest.raises(DomainError, match=r"overflows at \(1000\.0, 1\.0\)"):
        eval_expr(parse("exp(x)*y"), (1000.0, 1.0))
    # an overflow after the exp, in numpy arithmetic on its finite result
    for src in ("exp(x)^2", "exp(x)*exp(x)"):
        with pytest.raises(DomainError, match=r"overflows at 400\.0"):
            eval_expr(parse(src), 400.0)
    assert eval_expr(parse("exp(0-x)"), 1000.0) == 0.0


def test_dilation():
    f = func1d("ind(1,2)")
    g = f.dilate(2.0)
    assert g.breakpoints == (0.5, 1.0)
    assert float(g(np.array(0.75))) == 1.0
    assert float(g(np.array(1.5))) == 0.0
    h = func2d("ind(-0.25,0.25)*ind(y,1,2)").dilate(4.0)
    assert h.u_breakpoints == (-0.0625, 0.0625)
    assert h.v_breakpoints == (0.25, 0.5)
