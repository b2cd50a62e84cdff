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


@pytest.mark.parametrize("padded", ["ind(1,2) ", "x\n", "x\t", " x^2 \n\t"])
def test_trailing_whitespace_is_ignored(padded):
    assert parse(padded) == parse(padded.strip())


def test_nesting_past_the_parser_limit_is_a_syntax_error():
    assert parse("(" * 200 + "x" + ")" * 200) == parse("x")
    with pytest.raises(ExprSyntaxError, match="nested"):
        parse("(" * 250 + "x" + ")" * 250)
    with pytest.raises(ExprSyntaxError, match="nested"):
        parse("-" * 5000 + "x")


@pytest.mark.parametrize("src", [
    "+x", "x++1", "(x,1)", "x,", "()", "exp()", "ind()", "ind(1,2,)", "(exp)(x)", "exp+1",
    "x(2)", "2(3)", "ind(1,2)(3)", "exp(*x)", "ind(1,^2)", "x**2", "x//2", "x^^2", "log",
])
def test_what_the_language_lacks_is_a_syntax_error(src):
    with pytest.raises(ExprSyntaxError):
        parse(src)


def test_python_and_the_grammar_agree_on_precedence():
    assert parse("-x^2") == parse("-(x^2)")
    assert parse("x^-2^2") == parse("x^(-(2^2))")
    assert parse("1-x-2") == parse("(1-x)-2")
    assert parse("1/x/2*3") == parse("((1/x)/2)*3")
    assert parse("1e999") == parse("inf") and parse("2.") == parse("2")


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
    # zero near an end: exponent inf there, at 0 as at infinity
    f = func1d("ind(1,2)")
    assert f.breakpoints == (1.0, 2.0)
    assert math.isinf(f.left_exponent) and math.isinf(f.decay_exponent)

    f = func1d("x^(-0.75)*ind(1,inf)")
    assert f.breakpoints == (1.0,)
    assert math.isinf(f.left_exponent)
    assert f.decay_exponent == pytest.approx(0.75)

    assert func1d("x^(0-0.9)*ind(0,1)").left_exponent == pytest.approx(-0.9)
    assert func1d("ind(0,1)").left_exponent == 0.0

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
    assert math.isinf(func2d("ind(y,1,2)").v_left_exponent)


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


SUPPORT_CASES = [
    ("ind(-0.25,0.25)*ind(y,1,2)", (-0.25, 0.25), (1.0, 2.0)),
    ("ind(y,1,2)", (-INF, INF), (1.0, 2.0)),
    ("ind(-1,0.5)*y^0.5*ind(y,0.5,3)", (-1.0, 0.5), (0.5, 3.0)),
    ("(ind(-1,0)+2*ind(0,1))*abs(x)^0.5*ind(y,-1,2)", (-1.0, 1.0), (0.0, 2.0)),
    ("ind(0,1)*x^(-1)*ind(y,1,2)", (0.0, 1.0), (1.0, 2.0)),
    ("ind(0,1)/x*ind(y,1,2)", (-INF, INF), (1.0, 2.0)),
    ("ind(0,1)*exp(x)+ind(y,1,2)", (-INF, INF), (0.0, INF)),
    ("x^(-1)*ind(0,1)*ind(y,1,2)", (0.0, 1.0), (1.0, 2.0)),
    ("exp(-abs(x))*y*exp(-y)", (-INF, INF), (0.0, INF)),
]


@pytest.mark.parametrize("src, u_support, v_support", SUPPORT_CASES)
def test_support_extraction(src, u_support, v_support):
    f = func2d(src)
    assert f.u_support == u_support and f.v_support == v_support


def test_support_of_zero_and_dilation():
    f = func2d("0*x*y")
    assert f.u_support[0] > f.u_support[1] and f.v_support[0] > f.v_support[1]
    g = func2d("ind(-0.25,0.25)*ind(y,1,2)").dilate(4.0)
    assert g.u_support == (-0.0625, 0.0625) and g.v_support == (0.25, 0.5)


U_DECAY_CASES = [
    ("ind(-inf,0)*ind(y,1,2)", 0.0),
    ("ind(0,inf)*ind(y,1,2)", 0.0),
    ("(1+abs(x))^(0-0.5)*ind(-inf,0)*ind(y,1,2)", 0.5),
    ("(1+abs(x))^(0-0.5)*ind(0,inf)*ind(y,1,2)", 0.5),
    ("(1+abs(x))^(0-3)*ind(-inf,0)+(1+x^2)^(0-1)", 2.0),
    ("exp(0-x)*ind(y,1,2)", -INF),
    ("exp(-abs(x))*y*exp(-y)", INF),
    ("ind(-0.25,0.25)*ind(y,1,2)", INF),
]


@pytest.mark.parametrize("src, decay", U_DECAY_CASES)
def test_u_decay_is_two_sided(src, decay):
    assert func2d(src).u_decay_exponent == decay


def test_constants_under_exp_log_abs_are_checked():
    for src in ("log(0-1)*ind(1,2)+ind(2,3)", "log(0)*x", "exp(1000)*x", "abs(log(0-2))*x"):
        with pytest.raises(ExprSyntaxError) as exc:
            func1d(src)
        assert "constant" in str(exc.value)
    assert "log(0-1)" in str(pytest.raises(ExprSyntaxError, func1d, "log(0-1)*ind(1,2)").value)
    assert func1d("exp(1)*x")(np.array([2.0]))[0] == pytest.approx(2.0 * math.e)
    assert pretty(parse("x^log(4)")) == f"x^{math.log(4.0)!r}"


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


def test_overflowing_constants_are_expression_errors():
    # 1/1e-320 is numpy's "overflow encountered in scalar divide", not a division by zero
    for src in ("1e308*10*ind(1,2)", "(1/1e-320)*ind(1,2)"):
        with pytest.raises(ExprSyntaxError, match="constant .* overflows"):
            func1d(src)
    assert eval_expr(parse("x+inf/0"), 1.0) == INF  # IEEE: inf/0 is inf, not a fault


def test_constants_fold_to_the_values_the_function_takes():
    # math.exp(12.57) is one ulp above np.exp(12.57)
    f = func1d("exp(12.57)*ind(1,2)")
    ((c, s, lo, hi),) = f.pieces
    assert (s, lo, hi) == (0.0, 1.0, 2.0) and c == f(1.5)


def test_a_bad_constant_is_named_innermost_as_written():
    with pytest.raises(ExprSyntaxError, match=r"^constant 0\^\(-1\) divides by zero"):
        func1d("exp(0^(-1))*x")
    with pytest.raises(ExprSyntaxError, match=r"^constant \(1\+1\)/0 divides by zero"):
        eval_expr(parse("x*((1+1)/0)"), 1.0)


def test_zero_constants_are_zero():
    # a constant subtree that folds to 0 is zero to the hints as to the values
    assert func1d("x+log(1)").left_exponent == 1.0
    assert func1d("x*log(1)+ind(1,2)").decay_exponent == INF
    assert func1d("(x-x*0^0)+x^0.5").left_exponent == 0.5
    assert func1d("ind(1,2)*abs(x-log(1))").breakpoints == (1.0, 2.0)


_LONG_SUMS = {
    "boxes": lambda k: f"ind({k},{k + 1})",
    "pieces": lambda k: f"{k}*x^0.5*ind({k},{k + 1})",
    "2d": lambda k: f"{k}*ind({k},{k + 1})*ind(y,1,2)",
}


@pytest.mark.parametrize("kind", sorted(_LONG_SUMS))
def test_long_sums_build(kind):
    src = "+".join(_LONG_SUMS[kind](k) for k in range(1, 901))
    f, g = func1d(src), func2d(src)
    assert g.u_breakpoints == tuple(float(k) for k in range(1, 902))
    if kind == "2d":
        assert float(g(np.array(1.5), np.array(1.5))) == 1.0
    else:
        assert len(f.pieces) == 900
        assert float(f(np.array(900.5))) == (900 * 900.5 ** 0.5 if kind == "pieces" else 1.0)


def test_a_fault_in_a_long_sum_is_named():
    src = "+".join(f"ind({k},{k + 1})" for k in range(1, 901)) + "+log(x)"
    with pytest.raises(DomainError, match=r"\+log\(x\) divides by zero at 0\.0$"):
        eval_expr(parse(src), 0.0)


def test_evaluation_past_the_stack_is_nested_too_deeply():
    # a tree the parser accepts, evaluated further down the stack than it
    # was built: an ExprSyntaxError, not a RecursionError
    f = func1d("+".join(f"exp(0-x*{k})" for k in range(1, 901)))

    def nest(depth):
        return f(np.array([1.0])) if depth == 0 else nest(depth - 1)

    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        nest(200)


def test_eval_expr_raises_where_numpy_flags_a_fault():
    with pytest.raises(DomainError, match=r"x\*inf is not a real number at 0\.0"):
        eval_expr(parse("x*inf"), 0.0)
    with pytest.raises(DomainError, match="divides by zero"):
        eval_expr(parse("ind(0,1)/x"), 0.0)
    assert eval_expr(parse("x*inf"), 1.0) == INF


def test_dilation():
    f = func1d("ind(1,2)")
    g = f.dilate(2.0)
    assert g.breakpoints == (0.5, 1.0)
    assert float(g(np.array(0.75))) == 1.0
    assert float(g(np.array(1.5))) == 0.0
    h = func2d("ind(-0.25,0.25)*ind(y,1,2)").dilate(4.0)
    assert h.u_breakpoints == (-0.0625, 0.0625)
    assert h.v_breakpoints == (0.25, 0.5)


@pytest.mark.parametrize("R", [math.inf, -math.inf, math.nan, 0.0, -2.0])
def test_dilation_needs_a_positive_finite_factor(R):
    for f in (func1d("ind(1,2)"), func2d("ind(-0.25,0.25)*ind(y,1,2)")):
        with pytest.raises(DomainError, match="positive and finite"):
            f.dilate(R)


@pytest.mark.parametrize("src, pieces", [
    ("2*x^0.5*ind(1,2)-ind(3,inf)", ((2.0, 0.5, 1.0, 2.0), (-1.0, 0.0, 3.0, math.inf))),
    ("x^(0-0.9)*ind(0,1)", ((1.0, -0.9, 0.0, 1.0),)),
    ("-(ind(1,2)+3*x*x*ind(0,1))", ((-1.0, 0.0, 1.0, 2.0), (-3.0, 2.0, 0.0, 1.0))),
    ("ind(-1,4)*x^2*ind(2,inf)*(0-2)", ((-2.0, 2.0, 2.0, 4.0),)),
    ("0*ind(1,2)", ((0.0, 0.0, 1.0, 2.0),)),
    ("ind(1,2)/2", None),
    ("exp(x)*ind(0,1)", None),
    ("abs(x)*ind(0,1)", None),
    ("log(x)*ind(1,2)", None),
    ("(x-1)^0.5*ind(1,2)", None),
    ("(x^2)^0.5*ind(1,2)", None),
    ("1", None),
    ("x^2", None),
    ("ind(1,2)+1", None),
    ("ind(1,2)*ind(3,4)", None),
    ("ind(y,1,2)", None),
    ("(ind(1,2)+ind(3,4))*2", None),
])
def test_piece_sums_are_recognised(src, pieces):
    assert func1d(src).pieces == pieces


def test_dilation_carries_the_pieces():
    f = func1d("3*x^2*ind(1,2)-ind(4,inf)").dilate(2.0)
    assert f.pieces == ((12.0, 2.0, 0.5, 1.0), (-1.0, 0.0, 2.0, math.inf))
    assert func1d("exp(x)*ind(0,1)").dilate(2.0).pieces is None


@pytest.mark.parametrize("src, steps, h_pieces", [
    ("ind(-0.25,0.25)*ind(y,1,2)", ((1.0, -0.25, 0.25),), ((1.0, 0.0, 1.0, 2.0),)),
    ("ind(y,1,2)", ((1.0, -math.inf, math.inf),), ((1.0, 0.0, 1.0, 2.0),)),
    ("1", ((1.0, -math.inf, math.inf),), ((1.0, 0.0, 0.0, math.inf),)),
    ("-ind(-inf,0)", ((-1.0, -math.inf, 0.0),), ((1.0, 0.0, 0.0, math.inf),)),
    ("(ind(0,1)-ind(-1,0))*ind(y,1,2)", ((1.0, 0.0, 1.0), (-1.0, -1.0, 0.0)), ((1.0, 0.0, 1.0, 2.0),)),
    ("2*ind(0,2)*(ind(1,3)+3*ind(-5,0.5))*y*exp(0-y)", ((2.0, 1.0, 2.0), (6.0, 0.0, 0.5)), None),
    ("3*y^0.5*ind(y,0,1)*ind(-1,1)", ((3.0, -1.0, 1.0),), ((1.0, 0.5, 0.0, 1.0),)),
])
def test_separable_sources_are_recognised(src, steps, h_pieces):
    f = func2d(src)
    assert f.u_steps == steps and f.v_factor.pieces == h_pieces


@pytest.mark.parametrize("src", [
    "x*ind(-1,1)*ind(y,1,2)", "(1+x^2)^(0-1)*y^0.5*exp(0-y)", "ind(-1,1)/2*ind(y,1,2)",
    "exp(0-x*y)*ind(-1,1)", "ind(0,1)*ind(y,1,2)+ind(2,3)*ind(y,1,2)", "0*ind(y,1,2)",
    "ind(0,1)*ind(2,3)*ind(y,1,2)", "abs(x)*ind(-1,1)",
])
def test_other_sources_are_not_separable(src):
    f = func2d(src)
    assert f.u_steps is None and f.v_factor is None


def test_the_v_factor_is_h_alone():
    # the hints of h(v) are those of the source along y, and h evaluates the y factors only
    f = func2d("2*ind(-1,1)*y^0.5*exp(0-y)*ind(y,0.5,3)")
    h = f.v_factor
    assert (h.breakpoints, h.left_exponent, h.decay_exponent) == (
        f.v_breakpoints, f.v_left_exponent, f.v_decay_exponent)
    assert func2d("ind(-1,1)*y^0.5*exp(0-y)").v_factor.left_exponent == 0.5
    v = np.array([0.25, 1.0, 2.0, 4.0])
    assert np.array_equal(h(v), np.sqrt(v) * np.exp(-v) * ((v >= 0.5) & (v <= 3)))
    assert np.array_equal(2.0 * h(v), f(np.zeros(4), v))


def test_dilation_carries_the_steps():
    f = func2d("(ind(0,1)-2*ind(-inf,0))*ind(y,1,2)").dilate(4.0)
    assert f.u_steps == ((1.0, 0.0, 0.25), (-2.0, -math.inf, 0.0))
    assert f.v_factor.pieces == ((1.0, 0.0, 0.25, 0.5),)
    assert func2d("x*ind(y,1,2)").dilate(4.0).u_steps is None


def test_a_long_separable_sum_builds():
    # one frame per level in _reads and _pieces: a 900-step sum still builds
    f = func2d("(" + "+".join(f"ind({k},{k + 1})" for k in range(900)) + ")*ind(y,1,2)")
    assert len(f.u_steps) == 900
