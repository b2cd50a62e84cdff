"""Half-line operator family: application, norms, verdicts, sharpness."""

import math

import numpy as np
import pytest

from oplab.errors import DivergenceError, DomainError, ParameterError
from oplab.funcdsl import func1d
from oplab.hilbert import (
    OperatorParams,
    WeightedSpaceSpec,
    apply_H,
    apply_H_adjoint,
    apply_H_many,
    bilinear_pairing,
    dilation_residual,
    extremal_quotient,
    growth_exponent,
    hilbert_verdict,
    image_norm,
    sharp_norm,
    solve_gamma,
    source_window_holds,
    target_window_holds,
    weighted_lp_norm,
)
from oplab.specfun import beta

P = OperatorParams
INF = math.inf


# -- application -----------------------------------------------------------

def test_apply_H_examples():
    assert apply_H(P(0, 0, 1), func1d("ind(1,2)"), 1.0) == pytest.approx(math.log(1.5), rel=1e-10)
    assert apply_H(P(0, 0, 1), func1d("x^(-0.5)"), 1.0) == pytest.approx(math.pi, rel=1e-10)
    assert apply_H(P(1, 0, 2), func1d("1+0*x"), 7.0) == pytest.approx(1.0, rel=1e-10)


def test_apply_H_kernel_scaling():
    # substitution: H(y^-1/2)(x) = pi / sqrt(x) for the classical kernel
    f = func1d("x^(-0.5)")
    for x in (0.25, 1.0, 9.0):
        assert apply_H(P(0, 0, 1), f, x) == pytest.approx(math.pi / math.sqrt(x), rel=1e-10)


def test_apply_H_divergence():
    with pytest.raises(DivergenceError) as exc:
        apply_H(P(0, 0, 1), func1d("x^(-1.2)*ind(0,1)"), 1.0)
    assert exc.value.endpoint == "origin"
    with pytest.raises(DivergenceError) as exc:
        apply_H(P(0, 0, 0.5), func1d("1+0*x"), 1.0)
    assert exc.value.endpoint == "infinity"


def test_apply_H_positivity():
    f = func1d("ind(0.5,4)")
    vals = apply_H_many(P(0.3, 0.1, 1.6), f, np.geomspace(0.01, 100, 13))
    assert np.all(vals > 0)


def test_apply_H_adjoint_examples():
    assert apply_H_adjoint(P(0, 0, 1), 0, 0, func1d("ind(1,2)"), 1.0) == pytest.approx(
        math.log(1.5), rel=1e-10)
    assert apply_H_adjoint(P(0, 1, 2), 0, 0, func1d("ind(1,2)"), 1.0) == pytest.approx(
        1.0 / 6.0, rel=1e-10)


def test_duality_pairing():
    # <H f, g>_b == <f, H* g>_a by iterated quadrature
    params = P(0, 0, 1)
    f, g = func1d("ind(1,2)"), func1d("ind(2,3)")
    lhs = bilinear_pairing(params, f, g, 0.0, 1e-10)
    rhs_integrand_pts = np.geomspace(1.0, 2.0, 7)  # support of f
    # <f, H* g>_a via direct outer quadrature over f's support
    from oplab import quad
    from oplab.quad import SingularityHints

    def outer(y):
        vals = np.array([apply_H_adjoint(params, 0.0, 0.0, g, float(t), 1e-11) for t in y])
        return f(y) * vals

    rhs = float(quad.integrate_semiaxis(outer, SingularityHints((1.0, 2.0)), 1e-10))
    assert abs(lhs - rhs) <= 1e-8


# -- norms -------------------------------------------------------------------

def test_weighted_norm_examples():
    assert weighted_lp_norm(func1d("x^(-0.505)*ind(1,inf)"), WeightedSpaceSpec(2, 0)) == pytest.approx(
        0.01 ** -0.5, rel=1e-9)  # truncated power with tail exponent -1-xi: norm = xi^(-1/p)
    assert weighted_lp_norm(func1d("ind(1,2)"), WeightedSpaceSpec(2, 0)) == pytest.approx(1.0, rel=1e-10)
    assert weighted_lp_norm(func1d("ind(0,1)"), WeightedSpaceSpec(1, 1)) == pytest.approx(0.5, rel=1e-10)


def test_weighted_norm_essential_sup():
    f = func1d("x/(1+x)^2")  # max 1/4 at x = 1
    assert weighted_lp_norm(f, WeightedSpaceSpec(INF)) == pytest.approx(0.25, rel=1e-9)
    # breakpoints outside the default scan range [1e-6, 1e6] widen it
    for src in ("ind(1e7,2e7)", "ind(1e-9,2e-9)"):
        assert weighted_lp_norm(func1d(src), WeightedSpaceSpec(INF)) == 1.0


@pytest.mark.filterwarnings("error")
def test_weighted_norm_of_an_undefined_function_raises():
    # (x-2)^0.5 is undefined on [1, 2); exp(x) overflows inside [0, 800]
    for src, p in (("(x-2)^0.5*ind(1,2)", 2), ("(x-2)^0.5*ind(1,2)+ind(2,3)", 1),
                   ("exp(x)*ind(0,800)", 1)):
        with pytest.raises(DomainError, match="away from the ends"):
            weighted_lp_norm(func1d(src), WeightedSpaceSpec(p, 0))
    # the p = inf scan reads a NaN sample as a domain error, not as a value
    for src in ("(x-2)^0.5*ind(1,2)", "log(x-1)*ind(0,3)"):
        with pytest.raises(DomainError, match="function is nan at"):
            weighted_lp_norm(func1d(src), WeightedSpaceSpec(INF))
    # where exp(x) overflows, ind(0,1) makes the function zero
    assert weighted_lp_norm(func1d("exp(x)*ind(0,1)"), WeightedSpaceSpec(1, 0)) == pytest.approx(
        math.e - 1.0, rel=1e-10)
    # inf*0 in the tail or origin panel of an integrable gamma-type source is zeroed
    for src, ref in (("x^25*exp(0-x)", math.gamma(26)), ("x^(0-30)*exp(0-1/x)", math.gamma(29))):
        assert weighted_lp_norm(func1d(src), WeightedSpaceSpec(1, 0)) == pytest.approx(ref, rel=1e-10)
        assert 0.0 < apply_H(P(0, 0, 1), func1d(src), 1.0) < ref


def test_weighted_norm_divergence():
    with pytest.raises(DivergenceError):
        weighted_lp_norm(func1d("1/(1+x)"), WeightedSpaceSpec(2, 1.5))


def test_space_spec_validation():
    with pytest.raises(ParameterError):
        WeightedSpaceSpec(0.5, 0.0)
    with pytest.raises(ParameterError):
        WeightedSpaceSpec(2.0, -1.0)
    with pytest.raises(ParameterError):
        WeightedSpaceSpec(INF, 0.0)  # weight must be absent at p = inf
    WeightedSpaceSpec(INF)  # fine


# -- verdicts ----------------------------------------------------------------

def test_verdict_classical():
    rep = hilbert_verdict(2, 2, 0, 0, P(0, 0, 1))
    assert rep.bounded and rep.relation.holds


def test_verdict_relation_failure():
    rep = hilbert_verdict(2, 2, 0, 0, P(0, 0, 2))
    assert not rep.bounded
    assert rep.relation.residual == pytest.approx(1.0)
    assert "balance relation" in rep.decided_by


def test_verdict_q_infinite():
    rep = hilbert_verdict(2, INF, 0, None, P(0.5, 0, 1))
    assert rep.bounded  # gamma = 1/2+0+1-1/2, alpha > 0, a+1 < p(beta+1)


def test_verdict_sup_to_sup():
    rep = hilbert_verdict(INF, INF, None, None, P(0.5, -0.25, 1.25))
    assert rep.bounded
    rep = hilbert_verdict(INF, INF, None, None, P(-0.5, 0.25, 0.75))
    assert not rep.bounded and "alpha" in rep.decided_by


def test_verdict_window_failure():
    # relation holds but the weight window fails: a+1 >= p(beta+1)
    gamma = solve_gamma(2, 2, 3.0, 0.0, 0.0, 0.5)
    rep = hilbert_verdict(2, 2, 3.0, 0.0, P(0.0, 0.5, gamma))
    assert rep.relation.holds and not rep.bounded
    assert "a+1 < p(beta+1)" in rep.decided_by


def test_verdict_regime_errors():
    with pytest.raises(ParameterError):
        hilbert_verdict(3, 2, 0, 0, P(0, 0, 1))  # p > q
    with pytest.raises(ParameterError):
        hilbert_verdict(2, 2, -1.5, 0, P(0, 0, 1))  # a <= -1
    with pytest.raises(ParameterError):
        hilbert_verdict(INF, 2, None, 0, P(0, 0, 1))  # unsupported regime
    with pytest.raises(ParameterError):
        hilbert_verdict(1, INF, 0, None, P(1, 0, 1))  # q=inf needs p > 1


def test_window_equivalence_bulk():
    # under the balance relation the source and target windows agree
    # exactly; 10^4 random tuples, zero counterexamples
    rng = np.random.default_rng(123)
    disagreements = 0
    for _ in range(10_000):
        p = rng.uniform(1.0, 5.0)
        q = p + rng.uniform(0.0, 3.0)
        a = rng.uniform(-0.99, 3.0)
        b = rng.uniform(-0.99, 3.0)
        alpha = rng.uniform(-2.0, 2.0)
        beta_ = rng.uniform(-2.0, 2.0)
        params = P(alpha, beta_, solve_gamma(p, q, a, b, alpha, beta_))
        if source_window_holds(p, a, params) != target_window_holds(q, b, params):
            disagreements += 1
    assert disagreements == 0


# -- sharp norm and the extremal family --------------------------------------

def test_sharp_norm_classical_values():
    for p in (4 / 3, 2.0, 4.0):
        got = sharp_norm(WeightedSpaceSpec(p, 0), P(0, 0, 1))
        assert got == pytest.approx(math.pi / math.sin(math.pi / p), rel=1e-12)


def test_sharp_norm_endpoints():
    assert sharp_norm(WeightedSpaceSpec(1, 0), P(0, 1, 2)) == pytest.approx(1.0, rel=1e-12)
    assert sharp_norm(WeightedSpaceSpec(INF), P(1, 0, 2)) == pytest.approx(1.0, rel=1e-12)
    # p = 1 form equals B(beta-a, alpha+a+1)
    assert sharp_norm(WeightedSpaceSpec(1, 0.25), P(0.5, 1.0, 2.5)) == pytest.approx(
        beta(0.75, 1.75), rel=1e-12)


def test_sharp_norm_precondition_errors():
    with pytest.raises(ParameterError, match="diagonal"):
        sharp_norm(WeightedSpaceSpec(2, 0), P(0, 0, 2))
    with pytest.raises(ParameterError, match="p\\(beta\\+1\\)"):
        sharp_norm(WeightedSpaceSpec(2, 3.0), P(0, 0.5, 1.5))
    with pytest.raises(ParameterError, match="alpha"):
        sharp_norm(WeightedSpaceSpec(INF), P(-0.5, 0.25, 0.75))


@pytest.mark.parametrize("margin", [1e-6, 1e-7, 1e-8, 1e-9])
@pytest.mark.parametrize("p, alpha, beta_", [(1.0, 0.3, 0.2), (2.0, 0.25, 0.3), (3.0, 0.1, 0.45)])
def test_sharp_norm_near_the_window_edge(p, alpha, beta_, margin):
    # a+1 = p(beta+1) - margin: beta+1-(a+1)/p cancels unless formed exactly
    mpmath = pytest.importorskip("mpmath")
    a = p * (beta_ + 1.0) - 1.0 - margin
    got = sharp_norm(WeightedSpaceSpec(p, a), P(alpha, beta_, alpha + beta_ + 1.0))
    with mpmath.workprec(200):
        w = (mpmath.mpf(a) + 1) / mpmath.mpf(p)
        want = mpmath.beta(mpmath.mpf(beta_) + 1 - w, mpmath.mpf(alpha) + w)
        assert abs(got - want) <= 1e-13 * want


def test_extremal_quotient_inside_window():
    space = WeightedSpaceSpec(2, 0)
    q001 = extremal_quotient(space, P(0, 0, 1), 0.01)
    assert q001 < math.pi and math.pi - q001 < 0.05


def test_extremal_quotient_out_of_window():
    # xi = 1 sits outside (0, p(beta+1)-(a+1)) = (0,1); the quotient is
    # still finite and below the operator norm
    val = extremal_quotient(WeightedSpaceSpec(2, 0), P(0, 0, 1), 1.0)
    assert 0.0 < val < math.pi


def test_extremal_quotient_monotone_sequence():
    space = WeightedSpaceSpec(2, 0)
    vals = [extremal_quotient(space, P(0, 0, 1), xi) for xi in (0.5, 0.1, 0.01)]
    assert vals[0] < vals[1] < vals[2] < math.pi


def test_extremal_quotient_proof_bounds():
    # sharp - C(xi)*xi <= quotient <= sharp, with the correction constant
    # C(xi) = 1/[(beta+(a+1+xi)/p'-a)(beta+1-(a+1+xi)/p)]
    for (p, a, al, be) in [(2.0, 0.0, 0.0, 0.0), (2.0, 0.5, 0.25, 0.5), (3.0, 0.0, 0.1, 0.2)]:
        params = P(al, be, al + be + 1.0)
        space = WeightedSpaceSpec(p, a)
        sharp = sharp_norm(space, params)
        pp = p / (p - 1.0)
        for xi in (0.05, 0.01):
            lead = beta(be + 1.0 - (a + 1.0 + xi) / p, al + (a + 1.0 + xi) / p)
            corr_const = 1.0 / ((be + (a + 1.0 + xi) / pp - a) * (be + 1.0 - (a + 1.0 + xi) / p))
            quotient = extremal_quotient(space, params, xi)
            assert quotient <= sharp + 1e-9
            assert quotient >= lead - xi * corr_const - 1e-9


def test_extremal_quotient_precondition():
    with pytest.raises(ParameterError):
        extremal_quotient(WeightedSpaceSpec(2, 0), P(0, 0, 2), 0.1)
    with pytest.raises(ParameterError):
        extremal_quotient(WeightedSpaceSpec(2, 0), P(0, 0, 1), -0.1)


# -- dilation ------------------------------------------------------------------

def test_dilation_identity_R1():
    res = dilation_residual(P(0, 0, 1), func1d("ind(1,2)"), 1.0, [0.5, 1.0, 3.0])
    assert res <= 1e-12


def test_dilation_residual_example():
    res = dilation_residual(P(0, 0, 1), func1d("ind(1,2)"), 2.0, [0.5, 1.0, 3.0], tol=1e-10)
    assert res <= 1e-8


def test_dilation_residual_generic_params():
    res = dilation_residual(P(0.5, 0.25, 1.75), func1d("ind(0.5,3)"), 3.0,
                            [0.2, 1.0, 5.0], tol=1e-10)
    assert res <= 1e-8


def test_dilation_residual_randomized():
    # covariance holds for random admissible kernels, bumps and factors
    rng = np.random.default_rng(77)
    for _ in range(10):
        al = rng.uniform(-0.5, 1.0)
        be = rng.uniform(-0.5, 1.0)
        ga = be + 1.0 + rng.uniform(0.2, 1.5)  # integrand decays at infinity
        lo = rng.uniform(0.2, 1.0)
        f = func1d(f"ind({lo:.3f},{lo + rng.uniform(0.5, 2.0):.3f})")
        R = rng.uniform(0.3, 4.0)
        res = dilation_residual(P(al, be, ga), f, R, (0.5, 1.0, 3.0), tol=1e-10)
        assert res <= 1e-8


def test_dilation_norm_identity():
    # ||f_R||_p^p = R^(-a-1) ||f||_p^p
    f = func1d("ind(1,2)")
    space = WeightedSpaceSpec(2, 0.5)
    n_R = weighted_lp_norm(f.dilate(3.0), space) ** 2
    n_0 = weighted_lp_norm(f, space) ** 2
    assert n_R == pytest.approx(3.0 ** (-1.5) * n_0, rel=1e-9)


def test_growth_exponent_balanced():
    assert abs(growth_exponent(2, 2, 0, 0, P(0, 0, 1))) <= 0.02


def test_growth_exponent_unbalanced():
    assert growth_exponent(2, 2, 0, 0, P(0, 0, 2)) == pytest.approx(-1.0, abs=0.02)
    assert growth_exponent(2, 2, 0, 0, P(0, 0, 0.5)) == pytest.approx(0.5, abs=0.01)


@pytest.mark.parametrize("R_grid", [[], [2.0], [3.0, 3.0]])
def test_growth_exponent_needs_two_distinct_R(R_grid):
    with pytest.raises(ParameterError):
        growth_exponent(2, 2, 0, 0, P(0, 0, 1), R_grid=R_grid)


# -- norm domination -----------------------------------------------------------

def test_norm_domination_by_sharp():
    cases = [
        (P(0, 0, 1), WeightedSpaceSpec(2, 0),
         ("ind(1,2)", "ind(0.5,3)", "exp(-x)", "x^(-0.7)*ind(1,inf)")),
        (P(0.25, 0.6, 1.85), WeightedSpaceSpec(1.5, 0.5),
         ("ind(1,2)", "exp(-x)", "x^(-2)*ind(1,inf)")),
    ]
    for params, space, corpus in cases:
        sharp = sharp_norm(space, params)
        for src in corpus:
            f = func1d(src)
            lhs = image_norm(params, f, space.p, space.a)
            rhs = sharp * weighted_lp_norm(f, space)
            assert lhs <= rhs * (1.0 + 1e-8)


def test_extremal_family_type():
    from oplab.hilbert import ExtremalFamily
    fam = ExtremalFamily(0.5, WeightedSpaceSpec(2, 0))
    assert fam.window(P(0, 0, 1)) == pytest.approx(1.0)
    fam.validate(P(0, 0, 1))
    with pytest.raises(ParameterError):
        ExtremalFamily(1.5, WeightedSpaceSpec(2, 0)).validate(P(0, 0, 1))
