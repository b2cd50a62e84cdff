"""Upper half-plane operators: norms, application, verdicts, reproduction."""

import dataclasses
import math

import numpy as np
import pytest

from oplab import quad
from oplab.bergman import (
    BergmanVerdictRequest,
    HalfPlanePoint,
    MixedNormSpec,
    _kernel,
    apply_T,
    apply_Tplus,
    bergman_constant,
    bergman_project,
    bergman_verdict,
    column_integral,
    default_probe_grid,
    kernel_row_integral,
    mixed_norm,
    reduction_bound_check,
    reproduce_check,
    reproducing_probe,
    tplus_exact_norm,
)
from oplab.errors import DivergenceError, ParameterError
from oplab.funcdsl import func2d
from oplab.hilbert import OperatorParams, hilbert_verdict, solve_gamma
from oplab.quad import integrate_real_line
from oplab.specfun import beta

P = OperatorParams
INF = math.inf
BOX = func2d("ind(-0.25,0.25)*ind(y,1,2)")


# -- kernel row integrals -----------------------------------------------------

def test_kernel_row_integral_values():
    assert kernel_row_integral(2.0, 1.0) == pytest.approx(math.pi, rel=1e-12)
    assert kernel_row_integral(3.0, 1.0) == pytest.approx(2.0, rel=1e-12)    # B(1/2,1) = 2
    assert kernel_row_integral(3.0, 2.0) == pytest.approx(0.5, rel=1e-12)    # 2 * 2^-2


def test_kernel_row_integral_vs_quadrature():
    for alpha in (2.0, 3.0, 4.5):
        for y in (0.5, 1.0, 2.0):
            got = float(integrate_real_line(
                lambda x: (x * x + y * y) ** (-alpha / 2.0), 1e-10,
                breakpoints=(0.0,), decay_exponent=alpha))
            assert got == pytest.approx(kernel_row_integral(alpha, y), rel=1e-8)


def test_kernel_row_integral_divergence():
    with pytest.raises(DivergenceError):
        kernel_row_integral(1.0, 1.0)


# -- mixed norms ---------------------------------------------------------------

def test_mixed_norm_box():
    assert mixed_norm(BOX, MixedNormSpec(2, 2, 0)) == pytest.approx(math.sqrt(0.5), rel=1e-6)


def test_mixed_norm_power_probe():
    # ||f||^2 for f = ((z+i)/i)^(-2): C = B(1/2,(p*m-1)/2)^{q/p} B(nu+1, q*m-q/p-nu-1)
    # = B(1/2,3/2) * B(1,2) = (pi/2)(1/2) = pi/4 at t = 1
    f = reproducing_probe(2)
    got = mixed_norm(f, MixedNormSpec(2, 2, 0)) ** 2
    assert got == pytest.approx(beta(0.5, 1.5) * beta(1.0, 2.0), rel=1e-6)
    assert got == pytest.approx(math.pi / 4.0, rel=1e-6)


def test_mixed_norm_dilation_law():
    # ||f_R|| = R^(-(nu+1)/q - 1/p) ||f||
    base = mixed_norm(BOX, MixedNormSpec(2, 2, 0))
    got = mixed_norm(BOX.dilate(2.0), MixedNormSpec(2, 2, 0))
    assert got == pytest.approx(2.0 ** (-0.5 - 0.5) * base, rel=1e-6)


def test_mixed_norm_sup_convention():
    # q = inf: sup over y of the slice L^p norm; for the box it is (1/2)^(1/2)
    got = mixed_norm(BOX, MixedNormSpec(2, INF, None))
    assert got == pytest.approx(math.sqrt(0.5), rel=1e-6)
    # v supports outside the default scan range [1e-6, 1e6] widen it
    for src in ("ind(-1,1)*ind(y,1e7,2e7)", "ind(-1,1)*ind(y,1e-9,2e-9)"):
        got = mixed_norm(func2d(src), MixedNormSpec(2, INF, None))
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_mixed_norm_spec_validation():
    with pytest.raises(ParameterError):
        MixedNormSpec(2, 2, None)
    with pytest.raises(ParameterError):
        MixedNormSpec(2, INF, 0.0)
    with pytest.raises(ParameterError):
        MixedNormSpec(0.5, 2, 0.0)
    with pytest.raises(ParameterError):
        mixed_norm(BOX, MixedNormSpec(INF, INF, None))


# -- operator application -------------------------------------------------------

def test_tplus_constant_function_is_exact_norm():
    # with f = 1 and gamma = alpha+beta+1 the value is z-independent and
    # equals B(1/2,gamma/2) B(beta+1,alpha)
    one = func2d("1+0*x+0*y")
    for al, be, ga in [(1.0, 0.0, 2.0), (0.5, -0.5, 1.0)]:
        expect = tplus_exact_norm("linf", P(al, be, ga))
        vals = [apply_Tplus(P(al, be, ga), one, z, 1e-6) for z in default_probe_grid()]
        assert max(vals) / min(vals) - 1.0 <= 1e-4
        for v in vals:
            assert v == pytest.approx(expect, rel=5e-3)


def test_tplus_zero():
    zero = func2d("0*x*y")
    assert apply_Tplus(P(0, 0, 1), zero, HalfPlanePoint(0, 1)) == 0.0


def test_tplus_lower_bound_shape():
    # Necessity test-function estimate: for the box source, |x| <= 1/4 and
    # 0 < y <= 1 the u-section integral over [-1/4,1/4] dominates
    # c*(y+v)^(-gamma), so T+ f(x+iy) >= c * y^alpha / (1+y)^gamma.
    # c is obtained by direct quadrature of the sections.
    params = P(0, 0, 1)
    z = HalfPlanePoint(0.0, 0.5)
    gamma = params.gamma
    vgrid = np.linspace(1.0, 2.0, 9)

    def section(v):
        from oplab.quad import integrate_interval
        return float(integrate_interval(
            lambda u: ((z.x - u) ** 2 + (z.y + v) ** 2) ** (-(1.0 + gamma) / 2.0),
            -0.25, 0.25, 1e-10))

    c = min(section(v) * (z.y + v) ** gamma for v in vgrid)
    assert c > 0
    lower = c * z.y ** params.alpha / (2.0 + z.y) ** gamma  # (y+v)^-g >= (y+2)^-g on [1,2]
    val = apply_Tplus(params, BOX, z, 1e-7)
    assert val >= lower * (1.0 - 1e-6)


def test_tplus_box_against_semianalytic_oracle():
    # independent reduction: the u-section of the box kernel has the
    # closed form int du/((x-u)^2+c^2) = (arctan((x+1/4)/c)-arctan((x-1/4)/c))/c,
    # leaving a 1D v-integral for the oracle
    from oplab.quad import integrate_interval
    params = P(0, 0, 1)
    for z in (HalfPlanePoint(0.0, 1.0), HalfPlanePoint(0.5, 0.5), HalfPlanePoint(-1.0, 2.0)):
        def oracle_v(v):
            c = z.y + v
            return (np.arctan((z.x + 0.25) / c) - np.arctan((z.x - 0.25) / c)) / c

        oracle = float(integrate_interval(oracle_v, 1.0, 2.0, 1e-12))
        got = apply_Tplus(params, BOX, z, 1e-7)
        assert got == pytest.approx(oracle, rel=1e-6)


def test_halfplane_with_singular_weight():
    # v^(-1/2) on a box: int_{-1}^{1} du * int_0^1 v^(-1/2) dv = 4
    f = func2d("ind(-1,1)*ind(y,0,1)*y^(-0.5)")
    from oplab.quad import integrate_halfplane
    assert float(integrate_halfplane(f, 1e-8)) == pytest.approx(4.0, rel=1e-7)


def test_T_dominated_by_Tplus():
    params = P(0, 0, 1)
    for z in default_probe_grid():
        tv = apply_T(params, BOX, z, 1e-6)
        tp = apply_Tplus(params, BOX, z, 1e-6)
        assert abs(tv) <= tp * (1.0 + 1e-5)


def test_T_zero():
    zero = func2d("0*x*y")
    assert apply_T(P(0, 0, 1), zero, HalfPlanePoint(0, 1)) == 0


@pytest.mark.parametrize("gamma", [1.4, 2.3])
def test_T_of_a_u_constant_slab_vanishes(gamma):
    # int_R (x-u+i(y+v))^-(1+gamma) du = 0 (close the contour below), so T of
    # a source constant in u is zero while T+ is not
    slab = func2d("ind(y,1,2)")
    for z in (0.3 + 0.7j, -1 + 2j, 5 + 0.5j):
        tv = apply_T(P(0.2, 0.3, gamma), slab, z, 1e-6)
        tp = apply_Tplus(P(0.2, 0.3, gamma), slab, z, 1e-6)
        assert abs(tv) <= 1e-12 * tp


_DU = np.array([[-1e13, -3.7, -1e-3, 0.0, 0.25, 2.0, 1e13]])
_DV = np.array([[1e-13], [0.7], [1e13]])


@pytest.mark.parametrize("s", [1.4, 2.12, 2.85, 3.3, 3.7])
def test_kernel_is_the_principal_power(s):
    mpmath = pytest.importorskip("mpmath")
    # the grid, and the points where the phase -s*theta is -pi or -3pi,
    # the poles of its half-angle tangent
    du, dv = np.broadcast_arrays(_DU, _DV)
    poles = [0.7 / math.tan(k * math.pi / s) for k in (1, 3) if k < s]
    du = np.concatenate([du.ravel(), poles])
    dv = np.concatenate([dv.ravel(), np.full(len(poles), 0.7)])
    got = _kernel(du, dv, s, complex_kernel=True)
    with mpmath.workprec(200):
        for k, a, b in zip(got, du, dv):
            want = mpmath.power(mpmath.mpc(a, b), -s)
            assert abs(k - complex(want)) <= 1e-14 * abs(want)


@pytest.mark.parametrize("s", [2.0, 3.0, 4.0])
def test_kernel_at_an_integer_power_is_numpys(s):
    got = _kernel(_DU, _DV, s, complex_kernel=True)
    assert np.array_equal(got, (_DU + 1j * _DV) ** (-s))


def test_T_self_consistency_across_tolerance():
    v1 = apply_T(P(0, 0, 1), BOX, complex(0, 1), 1e-6)
    v2 = apply_T(P(0, 0, 1), BOX, complex(0, 1), 1e-8)
    assert abs(v1 - v2) <= 1e-6


# -- projection -----------------------------------------------------------------

def test_bergman_constant_modulus():
    # |c_nu| = 2^nu (nu+1)/pi; the phase is pinned by the reproducing
    # property (tested below), reducing to -1/pi at nu = 0
    assert abs(bergman_constant(0.0)) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert bergman_constant(0.0).real == pytest.approx(-1.0 / math.pi, rel=1e-12)
    assert abs(bergman_constant(1.5)) == pytest.approx(2.0 ** 1.5 * 2.5 / math.pi, rel=1e-14)


def test_projection_reproduces_probe():
    rows = reproduce_check(0.0, 3, tol=1e-6)
    assert max(r["abs_error"] for r in rows) <= 1e-4
    # the spec's spot value: f(i) = (i/2i)^3 = 1/8
    z = HalfPlanePoint(0.0, 1.0)
    got = bergman_project(0.0, reproducing_probe(3), z, 1e-6)
    assert got.real == pytest.approx(0.125, abs=1e-6)
    assert got.imag == pytest.approx(0.0, abs=1e-6)


def test_projection_reproduces_m4_and_weighted():
    rows = reproduce_check(0.0, 4, tol=1e-6)
    assert max(r["abs_error"] for r in rows) <= 1e-4
    rows = reproduce_check(0.5, 3, tol=1e-6)
    assert max(r["abs_error"] for r in rows) <= 1e-4


@pytest.mark.parametrize("nu", [0.12, 0.85, 1.7])
def test_projection_reproduces_at_fractional_weights(nu):
    rows = reproduce_check(nu, 3, tol=1e-6)
    assert max(r["abs_error"] for r in rows) <= 1e-6


def test_projection_modulus_bound():
    f = BOX  # real nonnegative
    z = HalfPlanePoint(0.0, 1.0)
    lhs = abs(bergman_project(0.0, f, z, 1e-6))
    rhs = (1.0 / math.pi) * apply_Tplus(P(0, 0, 1), f, z, 1e-6)
    assert lhs <= rhs * (1.0 + 1e-5)


# -- reduction inequality ---------------------------------------------------------

def test_reduction_bound_box():
    rows = reduction_bound_check(P(0, 0, 1), BOX, y_grid=(0.5, 1.0, 2.0), tol=1e-5, p=2.0)
    for row in rows:
        assert row["slack"] > 0.0  # strict slack for the box


def test_reduction_bound_zero_function():
    zero = func2d("0*x*y*ind(-1,1)*ind(y,1,2)")
    rows = reduction_bound_check(P(0, 0, 1), zero, y_grid=(1.0,), tol=1e-5, p=2.0)
    assert rows[0]["lhs"] == 0.0 and rows[0]["rhs"] == 0.0


def test_reduction_requires_positive_gamma():
    with pytest.raises(ParameterError):
        reduction_bound_check(P(0, 0, -0.5), BOX)


# -- support pruning ----------------------------------------------------------------

PRUNED_SOURCES = ["ind(-0.25,0.25)*ind(y,1,2)", "ind(y,0.5,1.5)",
                  "ind(-1,0.5)*y^0.5*ind(y,0.5,3)"]


def _unpruned(f):
    return dataclasses.replace(f, u_support=(-INF, INF), v_support=(0.0, INF))


def _close(got, want, tol, scale=0.0):
    assert abs(got - want) <= tol * max(abs(want), scale), (got, want)


@pytest.mark.parametrize("src", PRUNED_SOURCES)
def test_support_pruning_agrees_with_the_full_domain(src):
    # integrating only over the supports changes no value beyond the tol
    # asked for, relative to the value or, for T and P_nu, which can cancel
    # to zero (P_nu of a slab), to the T+ bound on their modulus
    tol, nu = 1e-6, 0.7
    f = func2d(src)
    g = _unpruned(f)
    params = P(0.5, 0.3, 1.8)
    for z in (HalfPlanePoint(0.3, 0.5), HalfPlanePoint(-1.2, 2.0)):
        tplus = apply_Tplus(params, g, z, tol)
        _close(apply_Tplus(params, f, z, tol), tplus, tol)
        _close(apply_T(params, f, z, tol), apply_T(params, g, z, tol), tol, tplus)
        bound = abs(bergman_constant(nu)) * apply_Tplus(P(0, nu, 1 + nu), g, z, tol)
        _close(bergman_project(nu, f, z, tol), bergman_project(nu, g, z, tol), tol, bound)
    if math.isfinite(f.u_support[1]):
        for spec in (MixedNormSpec(2, 2, 0), MixedNormSpec(1, 3, 0.5)):
            _close(mixed_norm(f, spec, tol), mixed_norm(g, spec, tol), tol)
        (got,), (want,) = (reduction_bound_check(P(0, 0, 1), h, y_grid=(1.0,), tol=1e-5)
                           for h in (f, g))
        for side in ("lhs", "rhs"):
            _close(got[side], want[side], 1e-5)
        assert (got["slack"] > 0) == (want["slack"] > 0)
    else:  # a slab is not integrable in u: both paths refuse it the same way
        for h in (f, g):
            with pytest.raises(DivergenceError):
                mixed_norm(h, MixedNormSpec(2, 2, 0))


def test_reduction_height_drive_count(monkeypatch):
    # one README-box reduction height ran 883 adaptive drives on the full
    # domain; integrating over the box's supports must cut that to <= 1/4
    drives = []
    real_drive = quad._drive

    def counted(*args, **kwargs):
        drives.append(1)
        return real_drive(*args, **kwargs)

    monkeypatch.setattr(quad, "_drive", counted)
    reduction_bound_check(P(0, 0, 1), BOX, y_grid=(1.0,), tol=1e-6)
    assert 0 < len(drives) <= 883 // 4


@pytest.mark.parametrize("src", [
    "ind(-inf,0)*ind(y,1,2)",
    "(1+abs(x))^(0-0.5)*ind(-inf,0)*ind(y,1,2)",
    "(1+abs(x))^(0-0.5)*ind(0,inf)*ind(y,1,2)",
    "exp(0-x)*ind(y,1,2)",
])
def test_mixed_norm_diverges_at_either_u_end(src):
    with pytest.raises(DivergenceError):
        mixed_norm(func2d(src), MixedNormSpec(1, 1, 0))


# -- L1 column integrals -----------------------------------------------------------

def test_column_integral_constancy():
    params = P(0, 1, 2)
    expect = tplus_exact_norm("l1a", params, a=0.0)
    assert expect == pytest.approx(2.0, rel=1e-12)  # B(1/2,1) B(1,1)
    probes = [complex(-1, 0.5), complex(0, 1), complex(1, 2), complex(2, 0.7)]
    vals = [column_integral(params, 0.0, w, 1e-6) for w in probes]
    assert max(vals) / min(vals) - 1.0 <= 1e-4
    for v in vals:
        assert v == pytest.approx(expect, rel=5e-3)


# -- exact norms --------------------------------------------------------------------

def test_tplus_exact_norm_values():
    assert tplus_exact_norm("linf", P(1, 0, 2)) == pytest.approx(2.0, rel=1e-12)
    assert tplus_exact_norm("linf", P(0.5, -0.5, 1)) == pytest.approx(math.pi ** 2, rel=1e-12)
    assert tplus_exact_norm("l1a", P(0, 1, 2), a=0.0) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("alpha, a", [(5e-7, -1.0 + 4e-8), (1e-6, -1.0 + 1e-9), (3e-8, -1.0 + 1e-8)])
def test_tplus_exact_norm_near_the_window_edge(alpha, a):
    # alpha+a+1 cancels for a near -1 and small alpha unless formed exactly
    mpmath = pytest.importorskip("mpmath")
    params = P(alpha, 0.2, alpha + 1.2)
    got = tplus_exact_norm("l1a", params, a=a)
    with mpmath.workprec(200):
        al, be, a = mpmath.mpf(alpha), mpmath.mpf(0.2), mpmath.mpf(a)
        want = mpmath.beta(0.5, mpmath.mpf(params.gamma) / 2) * mpmath.beta(be - a, al + a + 1)
        assert abs(got - want) <= 1e-13 * want


def test_tplus_exact_norm_precondition_errors():
    with pytest.raises(ParameterError, match="diagonal"):
        tplus_exact_norm("linf", P(1, 0, 1.5))
    with pytest.raises(ParameterError, match="alpha"):
        tplus_exact_norm("linf", P(-0.5, 0.5, 1.0))
    with pytest.raises(ParameterError, match="beta"):
        tplus_exact_norm("l1a", P(0.5, 0.2, 1.7), a=0.5)


# -- verdicts ------------------------------------------------------------------------

def test_verdict_finite_mixed():
    req = BergmanVerdictRequest("tplus", MixedNormSpec(2, 2, 0.0),
                                MixedNormSpec(2, 2, 0.0), P(0.25, 0.25, 1.5))
    rep = bergman_verdict(req)
    assert rep.bounded and rep.relation.holds
    # both sides of every inequality are carried in the report
    assert all(math.isfinite(c.value) for c in rep.inequalities)
    # and the equivalent target-side window is displayed as a cross-check
    assert len(rep.cross_checks) == 2


def test_verdict_relation_failure():
    req = BergmanVerdictRequest("tplus", MixedNormSpec(2, 2, 0.0),
                                MixedNormSpec(2, 2, 0.0), P(0.25, 0.25, 1.0))
    rep = bergman_verdict(req)
    assert not rep.bounded and "balance relation" in rep.decided_by


def test_verdict_sup_target():
    # gamma = alpha+beta+1-(a+1)/q with alpha > 0
    req = BergmanVerdictRequest("tplus", MixedNormSpec(2, 2, 0.0),
                                MixedNormSpec(2, INF, None), P(0.5, 0.0, 1.0))
    assert bergman_verdict(req).bounded


def test_verdict_Lp_inf_diagonal():
    req = BergmanVerdictRequest("tplus", MixedNormSpec(2, INF, None),
                                MixedNormSpec(2, INF, None), P(0.5, -0.5, 1.0))
    assert bergman_verdict(req).bounded


def test_verdict_q1_regimes():
    # L^{p,1} -> L^{p,r}_b: gamma = alpha+beta+(b+1)/r, gamma > beta > 0
    req = BergmanVerdictRequest("tplus", MixedNormSpec(2, 1, 0.0),
                                MixedNormSpec(2, 3, 0.5), P(0.25, 0.5, 1.25))
    assert bergman_verdict(req).bounded
    # L^{p,1} -> L^{p,1}: gamma = alpha+beta+1, alpha > -1, beta > 0
    req = BergmanVerdictRequest("tplus", MixedNormSpec(2, 1, 0.0),
                                MixedNormSpec(2, 1, 0.0), P(-0.5, 0.5, 1.0))
    assert bergman_verdict(req).bounded
    # L^{p,1} -> L^{p,inf}: gamma = alpha+beta, both positive
    req = BergmanVerdictRequest("tplus", MixedNormSpec(2, 1, 0.0),
                                MixedNormSpec(2, INF, None), P(0.5, 0.5, 1.0))
    assert bergman_verdict(req).bounded


def test_verdict_weighted_L1():
    req = BergmanVerdictRequest("t", MixedNormSpec(1, 1, 0.5),
                                MixedNormSpec(1, 1, 0.5), P(0, 1, 2))
    rep = bergman_verdict(req)
    assert rep.bounded and rep.regime == "L1_a -> L1_a"


def test_verdict_sup_to_sup():
    req = BergmanVerdictRequest("tplus", MixedNormSpec(INF, INF, None),
                                MixedNormSpec(INF, INF, None), P(1, 0, 2))
    rep = bergman_verdict(req)
    assert rep.bounded and rep.regime == "Linf -> Linf"


def test_tplus_criteria_are_the_half_line_criteria():
    # the reduction ||(T+ f)_y||_p <= B(1/2,gamma/2) H(v -> ||f_v||_p)(y)
    # makes T+ : L^{p,q}_a -> L^{p,r}_b decided by H : L^q_a -> L^r_b
    rng = np.random.default_rng(11)
    seen = {True: 0, False: 0}
    for _ in range(400):
        q, r = sorted(float(e) for e in rng.choice([1.5, 2.0, 3.0, 4.5, INF], 2))
        if math.isinf(q):
            continue
        a = round(float(rng.uniform(-0.9, 3.0)), 3)
        b = None if math.isinf(r) else round(float(rng.uniform(-0.9, 3.0)), 3)
        alpha, beta_ = round(float(rng.uniform(-0.5, 1.5)), 3), round(float(rng.uniform(-0.9, 1.5)), 3)
        gamma = (solve_gamma(q, r, a, b, alpha, beta_) if rng.random() < 0.7
                 else round(float(rng.uniform(0.2, 3.0)), 3))
        params = P(alpha, beta_, gamma)
        half = hilbert_verdict(q, r, a, b, params)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        rep = bergman_verdict(BergmanVerdictRequest(
            "tplus", MixedNormSpec(p, q, a), MixedNormSpec(p, r, b), params))
        assert rep.bounded == half.bounded
        assert (rep.relation.lhs, rep.relation.rhs) == (half.relation.lhs, half.relation.rhs)
        sides = [[(c.lower, c.value, c.upper) for c in v.inequalities] for v in (rep, half)]
        assert sides[0] == sides[1]
        if not math.isinf(r):
            assert [c.to_dict() for c in rep.cross_checks] == [
                {**c.to_dict(), "name": c.name.replace("q", "r")} for c in half.cross_checks]
        seen[rep.bounded] += 1
    assert min(seen.values()) > 50


def test_projection_verdicts():
    # L^{p,1} -> A^{p,1}: beta > 0
    req = BergmanVerdictRequest("projection", MixedNormSpec(2, 1, 0.0),
                                MixedNormSpec(2, 1, 0.0), P(0, 0.5, 1.5))
    assert bergman_verdict(req).bounded
    req = BergmanVerdictRequest("projection", MixedNormSpec(2, 1, 0.0),
                                MixedNormSpec(2, 1, 0.0), P(0, -0.5, 0.5))
    assert not bergman_verdict(req).bounded
    # L^{p,q}_a -> A^{p,r}_b: a+1 < q(beta+1) and (a+1)/q = (b+1)/r
    req = BergmanVerdictRequest("projection", MixedNormSpec(2, 2, 0.4),
                                MixedNormSpec(2, 3, 1.1), P(0, 0.5, 1.5))
    assert bergman_verdict(req).bounded
    # L^{p,1} -> A^{p,r}_b: beta > 0 and r = b+1
    req = BergmanVerdictRequest("projection", MixedNormSpec(2, 1, 0.0),
                                MixedNormSpec(2, 3, 2.0), P(0, 0.5, 1.5))
    assert bergman_verdict(req).bounded
    # weighted L1: a < beta
    req = BergmanVerdictRequest("projection", MixedNormSpec(1, 1, 0.2),
                                MixedNormSpec(1, 1, 0.2), P(0, 0.5, 1.5))
    assert bergman_verdict(req).bounded


def test_projection_selector_validation():
    with pytest.raises(ParameterError):
        BergmanVerdictRequest("projection", MixedNormSpec(2, 2, 0.0),
                              MixedNormSpec(2, 2, 0.0), P(0.5, 0.5, 1.5))


def test_verdict_unsupported_regimes():
    with pytest.raises(ParameterError):
        bergman_verdict(BergmanVerdictRequest(
            "tplus", MixedNormSpec(2, INF, None), MixedNormSpec(2, 2, 0.0), P(0, 0, 1)))
    with pytest.raises(ParameterError):
        bergman_verdict(BergmanVerdictRequest(
            "tplus", MixedNormSpec(2, 2, 0.0), MixedNormSpec(3, 2, 0.0), P(0, 0, 1)))
    with pytest.raises(ParameterError):
        bergman_verdict(BergmanVerdictRequest(
            "tplus", MixedNormSpec(2, 1, 0.5), MixedNormSpec(2, 2, 0.0), P(0.25, 0.5, 1.0)))


def test_half_plane_point():
    with pytest.raises(ParameterError):
        HalfPlanePoint(0.0, -1.0)
    z = HalfPlanePoint.of(complex(1.0, 2.0))
    assert z.x == 1.0 and z.y == 2.0 and z.z == complex(1.0, 2.0)
