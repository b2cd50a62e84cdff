"""Upper half-plane operators: norms, application, verdicts, reproduction."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from oplab import bergman, quad
from oplab.bergman import (
    BergmanVerdictRequest,
    HalfPlanePoint,
    MixedNormSpec,
    _centred,
    _compose_kernel,
    _kernel,
    _kernel_hints,
    _tplus_slice,
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
from oplab.errors import AccuracyError, DivergenceError, DomainError, ParameterError
from oplab.funcdsl import Func2D, func1d, func2d
from oplab.hilbert import OperatorParams, apply_H, hilbert_verdict, solve_gamma
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
    with pytest.raises(DomainError, match="y must be positive"):
        kernel_row_integral(2.0, 0.0)


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
    # a v hint exponent below 0 says the slice norms are unbounded
    assert mixed_norm(func2d("ind(-1,1)*y^(0-0.5)*ind(y,0,1)"), MixedNormSpec(2, INF, None)) == INF


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


@pytest.mark.parametrize("s", [1.4, 2.0, 2.12, 2.85, 3.0, 3.3, 3.7, 4.0])
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


def test_tplus_at_kernel_power_zero_is_the_weighted_mass():
    # gamma = -1 makes the kernel |z - conj(w)|^0 = 1, so the weight v^beta
    # cannot join the modulus's base: T+ f(z) = y^alpha int f(w) v^beta dA
    got = apply_Tplus(P(0.5, 0.3, -1.0), BOX, complex(0.2, 0.5))
    want = 0.5 ** 0.5 * 0.5 * (2.0 ** 1.3 - 1.0) / 1.3
    assert abs(got - want) <= 1e-10 * want


def test_tplus_of_an_algebraic_source_far_from_the_origin():
    # the inner u drive needs a tenth refinement level at x = 10
    mpmath = pytest.importorskip("mpmath")
    f = func2d("(1+x^2)^(0-1)*ind(y,0.5,2)")
    got = apply_Tplus(P(0.5, 0.3, 2.0), f, complex(10.0, 2.0))

    def column(v):
        return mpmath.quad(lambda u: ((10 - u) ** 2 + (2 + v) ** 2) ** -1.5 / (1 + u * u),
                           [-mpmath.inf, 0, 10, mpmath.inf])

    with mpmath.workdps(20):
        want = mpmath.sqrt(2) * mpmath.quad(lambda v: v ** 0.3 * column(v), [0.5, 2])
    assert abs(got - want) <= 1e-6 * want


# -- kernel-centred s coordinates ------------------------------------------------

ALGEBRAIC = func2d("(1+x^2)^(0-1)*y^0.5*exp(0-y)")
# T+ of ALGEBRAIC at x + 0.5i under (0.5, 0.3, 2), by mpmath at 20 digits
_ALGEBRAIC_TPLUS = {0.0: 0.3834243949882127, 3.0: 0.08986064825891492,
                    10.0: 0.008165539246064661}


def test_whole_line_sources_without_u_knots_are_centred():
    for f in (ALGEBRAIC, func2d("ind(y,1,2)"), reproducing_probe(3)):
        assert _centred(f)
    for src in ("ind(-0.25,0.25)*ind(y,1,2)", "ind(-inf,1)*exp(x)*exp(0-y)*y^0.5",
                "exp(0-abs(x))*ind(y,1,2)"):
        assert not _centred(func2d(src))


def test_tplus_in_s_coordinates_against_mpmath():
    params = P(0.5, 0.3, 2.0)
    xs = np.array(list(_ALGEBRAIC_TPLUS))
    # the batch shares one kernel profile; at x = 10 the u coordinates raised
    batch = _tplus_slice(params, ALGEBRAIC, xs, 0.5, 1e-6)
    for x, sliced in zip(xs, batch):
        want = _ALGEBRAIC_TPLUS[x]
        assert abs(apply_Tplus(params, ALGEBRAIC, complex(x, 0.5)) - want) <= 1e-6 * want
        assert abs(sliced - want) <= 1e-6 * want


def _slab_tplus(params, c, d, y):
    """T+ of 1[c,d](v): B(1/2, gamma/2) y^alpha int_c^d v^beta (y+v)^-gamma dv,
    the v integral by 40-point Gauss-Legendre."""
    t, w = np.polynomial.legendre.leggauss(40)
    v = 0.5 * (d - c) * t + 0.5 * (c + d)
    integral = 0.5 * (d - c) * float(np.sum(w * v ** params.beta * (y + v) ** -params.gamma))
    return beta(0.5, params.gamma / 2.0) * y ** params.alpha * integral


@pytest.mark.parametrize("gamma", [0.3, 0.1, 0.02])
def test_tplus_of_a_slab_near_the_critical_decay(gamma):
    # the angle integrand behaves like |e|^(gamma-1) at the ends of the s line;
    # e = sign(r) |r|^(1/gamma) makes it bounded in r
    params = P(0.2, 0.1, gamma)
    want = _slab_tplus(params, 1.0, 2.0, 0.7)
    assert abs(apply_Tplus(params, func2d("ind(y,1,2)"), 0.3 + 0.7j) - want) <= 1e-13 * want


def test_tplus_of_a_slab_diverges_at_and_below_the_critical_decay():
    # the u integral of |z - conj(w)|^-(1+gamma) needs 1 + gamma > 1
    for gamma in (0.0, -0.2):
        with pytest.raises(DivergenceError, match="decay exponent"):
            apply_Tplus(P(0.2, 0.1, gamma), func2d("ind(y,1,2)"), 0.3 + 0.7j)


@pytest.mark.parametrize("nu", [-0.98, -0.5])
def test_projection_of_a_slab_vanishes(nu):
    # int (i - s)^-k ds = 0 for k = 2 + nu > 1, so P_nu of a slab is 0: to tol
    # times the mass c_nu int |f| v^nu |z - conj(w)|^-k
    slab, z, tol = func2d("ind(y,1,2)"), complex(0.3, 0.7), 1e-6
    mass = abs(bergman_constant(nu)) * apply_Tplus(P(0, nu, 1 + nu), slab, z, tol)
    assert abs(bergman_project(nu, slab, z, tol)) <= tol * mass


def test_reproduction_integrand_values(monkeypatch):
    # P_nu of the whole-line probe over the angle coordinate, retiring the v
    # rows whose weighted change is below rounding; the lockstep inner drive
    # took 2,552,872 values, the s line with expm1 tails 5,644,880 at nu = 0.405
    values = []

    def counted(m, t=1.0):
        probe = reproducing_probe(m, t)

        def fn(u, v):
            values.append(np.broadcast(u, v).size)
            return probe.fn(u, v)
        return dataclasses.replace(probe, fn=fn)

    monkeypatch.setattr(bergman, "reproducing_probe", counted)
    rows = bergman.reproduce_check(0.47, 3)
    assert max(row["abs_error"] for row in rows) <= 1e-6
    assert sum(values) <= 1.2e6


# Values of the lockstep inner drive, which refined every v row to the level
# of the hardest one.  Retiring the rows whose weighted change is below
# rounding keeps each part within 1e-14 relative, or 1e-17 absolute where it
# cancels to 0.
def _agrees(got, want, zero=1e-17):
    got, want = complex(got), complex(want)
    return all(abs(g - w) <= max(1e-14 * abs(w), zero)
               for g, w in ((got.real, want.real), (got.imag, want.imag)))


LOCKSTEP_REPRODUCTION = {
    0.12: [0.12499999999999993 + 2.7755575615628914e-17j, 0.016000000000000448 + 0.088j,
           0.017999999999998517 - 0.026000000000000693j, 0.1439999999999999 + 0.20799999999999996j,
           -0.013348616531971391 + 0.027393682622132584j],
    0.47: [0.12500000000000008 + 3.469446951953614e-17j, 0.016000000000001298 + 0.08800000000000022j,
           0.018000000000000016 - 0.026j, 0.14400000000000002 + 0.20800000000000007j,
           -0.013348616531971384 + 0.027393682622132595j],
    1.7: [0.12500000000000003 - 3.469446951953614e-17j, 0.016000000000000025 + 0.08800000000000001j,
          0.017999999999999995 - 0.026000000000000002j, 0.14400000000000004 + 0.20799999999999996j,
          -0.013348616531971383 + 0.027393682622132598j],
}


@pytest.mark.parametrize("nu", sorted(LOCKSTEP_REPRODUCTION))
def test_reproduction_matches_the_lockstep_drive(nu):
    rows = reproduce_check(nu, 3)
    for row, want in zip(rows, LOCKSTEP_REPRODUCTION[nu], strict=True):
        assert _agrees(complex(row["projected_re"], row["projected_im"]), want)


def test_tplus_and_t_of_an_algebraic_slab_match_the_lockstep_drive():
    f, z = func2d("(1+x^2)^(0-2)*ind(y,1,2)"), complex(20.0, 0.5)
    assert _agrees(apply_Tplus(P(0.5, 0.3, 2), f, z), 0.00015885918578992917)
    assert _agrees(apply_T(P(0.5, 0.3, 2), f, z), 0.000148468091499703 - 4.696703432039695e-05j)


def test_tplus_slice_matches_the_lockstep_drive():
    # one batch of abscissae: a v row retires only when every abscissa's
    # does; the lockstep drive evaluated 42,619,446 (x, v, u) values
    xs = np.array([-10.0, -3.0, -1.0, -0.25, 0.0, 0.5, 2.0, 5.0, 10.0])
    want = [0.008165539246052426, 0.08986064825891038, 0.28491572159089273, 0.3753211133116523,
            0.3834243949882084, 0.35294909303585714, 0.15941448696457308, 0.03538612356693235,
            0.008165539246052426]
    values = []

    def fn(u, v):
        values.append(np.broadcast(u, v).size)
        return ALGEBRAIC.fn(u, v)

    got = _tplus_slice(P(0.5, 0.3, 2), dataclasses.replace(ALGEBRAIC, fn=fn), xs, 0.5, 1e-6)
    assert all(_agrees(g, w) for g, w in zip(got, want, strict=True))
    assert sum(values) <= 1.5e7


def test_tplus_of_an_algebraic_slab_off_centre():
    # the s coordinates raised AccuracyError here; the reference is scipy's
    # nested quad
    got = apply_Tplus(P(0, 0, 1), func2d("(1+x^2)^(0-2)*ind(y,1,2)"), complex(20.0, 0.5))
    assert abs(got - 0.003924515231572504) <= 1e-12 * 0.003924515231572504


def test_weight_and_kernel_do_not_overflow_apart():
    # v^weight alone overflows at tail nodes (v ~ 1e13) where the kernel
    # underflows, and inf * 0 = NaN raised DomainError; references by scipy's
    # nested quad
    f, z = func2d("ind(-1,1)*exp(0-y)"), complex(0.3, 0.7)
    tplus = 1.4153217270516411e-09
    assert abs(apply_Tplus(P(0, 120, 121), f, z) - tplus) <= 1e-12 * tplus
    projected = complex(-513823388.209345, 439075689.0976011)
    assert abs(bergman_project(50, f, z) - projected) <= 1e-12 * abs(projected)


# -- sources that change sign, and the batched slice -------------------------------

ODD = func2d("x*ind(-1,1)*ind(y,1,2)")
# T+ and T under (0, 0, 1) by mpmath at 25 digits: mpmath.quad of f(w) times
# |z - conj(w)|^-2 and (z - conj(w))^-2 over the source's box or slab
_SIGNED = [
    (ODD, 0.5 + 1j, 0.014926439102378578558,
     complex(-0.037796127629516093824, 0.061949839484529442548)),
    (ODD, 2 + 1j, 0.025852751712032465751,
     complex(-0.037165562817175821946, -0.015074181615944908163)),
    (func2d("exp(0-x^2)*(x-0.5)*ind(y,1,2)"), 1j, -0.13724340829546093985,
     complex(0.12000023946005551373, 0.082347743695348552305)),
]


@pytest.mark.parametrize("f, z, tplus, t", _SIGNED, ids=["odd-0.5+i", "odd-2+i", "gaussian-i"])
def test_sources_that_change_sign_against_mpmath(f, z, tplus, t):
    # |f| has a kink where f changes sign, which is not a knot: its mass
    # only scales the tolerance, and judging it raised AccuracyError
    assert abs(apply_Tplus(P(0, 0, 1), f, z, 1e-6) - tplus) <= 1e-6 * abs(tplus)
    assert abs(apply_T(P(0, 0, 1), f, z, 1e-6) - t) <= 1e-6 * abs(t)


def test_reduction_of_an_odd_source():
    # T+ f(x+i) is odd in x and cancels across an x batch; the reference is
    # a tensor Gauss-Legendre rule
    (row,) = reduction_bound_check(P(0, 0, 1), ODD, y_grid=(1.0,), tol=1e-5)
    assert abs(row["lhs"] - 0.060092599992099836) <= 1e-5
    assert row["slack"] >= 0.0


@pytest.mark.parametrize("src", ["ind(-0.25,0.25)*ind(y,1,2)", "ind(-inf,1)*exp(x)*exp(0-y)*y^0.5",
                                 "x*ind(-1,1)*ind(y,1,2)", "(1+x^2)^(0-1)*y^0.5*exp(0-y)"])
def test_tplus_slice_is_apply_tplus_at_each_abscissa(src):
    # the batch is judged in its sup norm, so each value is within tol of it
    params, f, tol = P(0.5, 0.3, 2.0), func2d(src), 1e-6
    xs = np.array([-6.0, -3.0, -1.5, -0.7, -0.2, 0.0, 0.3, 1.0, 2.5, 5.0])
    batch = _tplus_slice(params, f, xs, 0.5, tol)
    alone = np.array([apply_Tplus(params, f, complex(x, 0.5), tol) for x in xs])
    assert np.max(np.abs(batch - alone)) <= tol * np.max(np.abs(alone))


@pytest.mark.parametrize("f, n", [(BOX, 7), (ALGEBRAIC, 7), (BOX, 3000)], ids=["box", "algebraic", "box-3000"])
def test_halfplane_calls_on_a_batch_keep_the_block_budget(f, n):
    # each call holds at most _BLOCK_ELEMENTS values, batch included, or one
    # v row where a row holds more (3000 abscissae times the u nodes)
    calls = []
    integrand = _compose_kernel(f, np.linspace(-2.0, 2.0, n)[:, None, None], 0.5, 2.0, 0.3, False)

    def fn(u, v):
        vals = integrand.fn(u, v)
        assert vals.shape == (n, np.shape(v)[0], np.shape(u)[-1])
        calls.append((vals.size, np.shape(v)[0]))
        return vals

    quad.integrate_halfplane(dataclasses.replace(integrand, fn=fn), 1e-6)
    assert all(size <= quad._BLOCK_ELEMENTS or rows == 1 for size, rows in calls)
    if n == 7:
        assert any(rows > 1 for _, rows in calls)
    else:
        assert any(size > quad._BLOCK_ELEMENTS for size, _ in calls)


def test_far_field_of_an_algebraic_source_raises():
    # at 1e4 + 0.5i the source's peak sits at s = -1e4/(y+v), narrower than
    # the s nodes there: the residue form gives T = 2.069e-12 - 2.0e-15i,
    # where the u coordinates silently returned 2.007e-15
    for apply in (apply_T, apply_Tplus):
        with pytest.raises(AccuracyError):
            apply(P(0.5, 0.3, 2.0), ALGEBRAIC, complex(1e4, 0.5))


def test_tplus_of_a_slab_is_the_half_line_operator():
    # T+ of h(v) is B(1/2, gamma/2) H h(y): the s integral of the kernel
    # profile is its mass
    params = P(0.3, 0.2, 1.7)
    slab, h = func2d("ind(y,1,2)*y^0.5"), func1d("x^0.5*ind(1,2)")
    for z in (HalfPlanePoint(0.0, 0.5), HalfPlanePoint(-3.0, 1.0), HalfPlanePoint(20.0, 2.0)):
        want = beta(0.5, params.gamma / 2.0) * apply_H(params, h, z.y)
        assert abs(apply_Tplus(params, slab, z) - want) <= 1e-12 * want


def test_kernel_hints_keep_what_the_u_integral_leaves():
    # a source with u decay tau_u < 1 leaves (y+v)^(1-tau_u) of the kernel's
    # v decay after the u integral
    one = Func2D(fn=lambda u, v: 1.0, u_decay_exponent=0.0, v_decay_exponent=0.0)
    for tau_u, v_decay in ((0.0, 1.3), (0.5, 1.8), (1.0, 2.3), (INF, 2.3)):
        u_decay, hints = _kernel_hints(dataclasses.replace(one, u_decay_exponent=tau_u), 3.0, 0.7)
        assert u_decay == tau_u + 3.0
        assert hints.decay_exponent == pytest.approx(v_decay, rel=1e-15)


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


@pytest.mark.parametrize("nu", [1015.7, 1023.0, 1024.0, 1e9, math.inf])
def test_bergman_constant_beyond_the_float_range_raises(nu):
    # |c_nu| = 2^nu (nu+1)/pi leaves the floats just above nu = 1015.6;
    # there c_nu must raise, not return inf or an OverflowError
    with pytest.raises(ParameterError, match="not a finite float"):
        bergman_constant(nu)
    assert cmath.isfinite(bergman_constant(1015.6))


@pytest.mark.parametrize("nu", [math.nan, -1.0, -2.0, -math.inf])
def test_projection_rejects_a_weight_outside_nu_above_minus_one(nu):
    # the weight is checked before the kernel is composed: a NaN weight is
    # a parameter error, not a divergence verdict of the kernel's decay
    with pytest.raises(ParameterError, match="nu > -1"):
        bergman_project(nu, reproducing_probe(3), HalfPlanePoint(0.0, 1.0))


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


_PROBE_U = np.concatenate([[0.0], np.geomspace(1e-3, 1e26, 15)])   # the s and v tails reach 1e26
_PROBE_U = np.concatenate([-_PROBE_U[::-1], _PROBE_U])[None, :]
_PROBE_V = np.array([[0.0], [1e-13], [0.7], [5.0], [1e13]])


@pytest.mark.parametrize("t", [0.25, 1.0, 3.0])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_reproducing_probe_is_the_principal_power(m, t):
    mpmath = pytest.importorskip("mpmath")
    f = reproducing_probe(m, t)
    got = f(_PROBE_U, _PROBE_V)   # a row of u against a column of v
    assert got.shape == (_PROBE_V.size, _PROBE_U.size)
    with mpmath.workprec(120):
        for (i, j), value in np.ndenumerate(got):
            want = (1j / mpmath.mpc(_PROBE_U[0, j], mpmath.mpf(_PROBE_V[i, 0]) + t)) ** m
            assert abs(value - complex(want)) <= 2 * m * 2.0 ** -52 * abs(want)
    # a (batch, rows, n) block against the same column gives the same values
    rows = np.broadcast_to(_PROBE_U, got.shape)
    block = f(np.stack([rows, rows[:, ::-1]]), _PROBE_V)
    assert np.array_equal(block[0], got) and np.array_equal(block[1], got[:, ::-1])


def test_projection_modulus_bound():
    f = BOX  # real nonnegative
    z = HalfPlanePoint(0.0, 1.0)
    lhs = abs(bergman_project(0.0, f, z, 1e-6))
    rhs = (1.0 / math.pi) * apply_Tplus(P(0, 0, 1), f, z, 1e-6)
    assert lhs <= rhs * (1.0 + 1e-5)


# T of BOX at (0.5, 0.3, 2.12) and P_0.47 of the m = 3 probe on the default
# grid, at tol 1e-6: T as computed when the half-plane drives still carried
# a complex |f| channel (summing the complex blocks as they come moves it by
# a few ulp at most), P in the kernel-centred s coordinates of the
# whole-line probe
_T_BOX = [
    complex(0.03296290323874465, -0.0038612120413639146),
    complex(0.009206305412874012, 0.04826114307808147),
    complex(-0.03206953929354224, 0.008544389846862465),
    complex(0.025787420601068766, 0.004292172427452638),
    complex(0.00630164860885101, 0.03303439887126343),
    complex(-0.022396483251682503, 0.013483743670083453),
    complex(0.012522617264939608, 0.006877075313703241),
    complex(0.003043143168364087, 0.015952715152174935),
    complex(-0.009111614801083244, 0.011004025797461165),
]
_P_PROBE = [
    complex(-0.03277196176604459, -0.16750113791533916),
    complex(0.29629629629629634, 0.0),
    complex(-0.03277196176604459, 0.16750113791533913),
    complex(0.016000000000001312, -0.08800000000000019),
    complex(0.12500000000000017, -1.3877787807814457e-17),
    complex(0.016000000000001305, 0.08800000000000022),
    complex(0.01800000000000001, -0.02600000000000001),
    complex(0.03703703703703647, -3.469446951953614e-18),
    complex(0.01800000000000001, 0.02600000000000001),
]
# the same P values integrated over u, before the s coordinates
_P_PROBE_U = [
    complex(-0.03277196176604459, -0.16750113791533913),
    complex(0.29629629629635773, 2.7755575615628914e-17),
    complex(-0.03277196176604459, 0.16750113791533916),
    complex(0.016000000000001312, -0.08800000000000019),
    complex(0.12500000000006006, 0.0),
    complex(0.016000000000001312, 0.08800000000000022),
    complex(0.018000000000000013, -0.02600000000000001),
    complex(0.03703703703707026, 3.469446951953614e-18),
    complex(0.018000000000000013, 0.02600000000000001),
]


def test_s_coordinates_move_the_probe_values_toward_the_exact_ones():
    # nearer the exact (i/(z+i))^3, up to an ulp where the u value was exact
    for z, p_new, p_u in zip(default_probe_grid(), _P_PROBE, _P_PROBE_U):
        exact = (1j / (z.z + 1j)) ** 3
        assert abs(p_new - exact) <= abs(p_u - exact) + 2.0 ** -52 * abs(exact)


def test_complex_drives_keep_the_result_types_and_values():
    grid = default_probe_grid()
    params = P(0.5, 0.3, 2.12)
    for z, t_old, p_old in zip(grid, _T_BOX, _P_PROBE):
        t_new = apply_T(params, BOX, z, 1e-6)
        p_new = bergman_project(0.47, reproducing_probe(3), z, 1e-6)
        assert type(t_new) is complex and type(p_new) is complex
        assert abs(t_new - t_old) <= 1e-14 * abs(t_old)
        assert abs(p_new - p_old) <= 1e-14 * abs(p_old)
    assert type(apply_Tplus(params, BOX, grid[0], 1e-6)) is float
    assert type(column_integral(P(0, 1, 2), 0.0, grid[0], 1e-6)) is float


# -- reduction inequality ---------------------------------------------------------

def test_reduction_bound_box():
    rows = reduction_bound_check(P(0, 0, 1), BOX, y_grid=(0.5, 1.0, 2.0), tol=1e-5, p=2.0)
    for row in rows:
        assert row["slack"] > 0.0  # strict slack for the box


def test_reduction_refuses_a_source_without_u_decay():
    # T+ f(x+iy) of a slab decays no faster in x than the slab itself
    with pytest.raises(DivergenceError):
        reduction_bound_check(P(0, 0, 1), func2d("ind(y,1,2)"), y_grid=(1.0,), tol=1e-4)


def test_reduction_bound_zero_function():
    zero = func2d("0*x*y*ind(-1,1)*ind(y,1,2)")
    rows = reduction_bound_check(P(0, 0, 1), zero, y_grid=(1.0,), tol=1e-5, p=2.0)
    assert rows[0]["lhs"] == 0.0 and rows[0]["rhs"] == 0.0


@pytest.mark.parametrize("gamma", [1e-320])
def test_reduction_with_a_side_that_is_not_finite_is_a_domain_error(gamma):
    # B(1/2, gamma/2) is inf at gamma = 1e-320
    with pytest.raises(DomainError) as exc:
        reduction_bound_check(P(0, 0, gamma), BOX, y_grid=(1.0,), tol=1e-5)
    assert f"y = 1.0, gamma = {gamma}" in str(exc.value)


@pytest.mark.parametrize("gamma", [1e300, 1e308])
def test_reduction_at_a_huge_gamma_has_both_sides_zero(gamma):
    # B(1/2, 5e307) = 2.5e-154 is finite since log_beta's Stirling form (the sum of
    # lgammas was inf - inf = nan at 1e308), and (y+v)^-gamma underflows on both sides
    rows = reduction_bound_check(P(0, 0, gamma), BOX, y_grid=(1.0,), tol=1e-5)
    assert rows == [{"y": 1.0, "lhs": 0.0, "rhs": 0.0, "slack": 0.0}]


def test_reduction_requires_positive_gamma():
    with pytest.raises(ParameterError):
        reduction_bound_check(P(0, 0, -0.5), BOX)


def test_reduction_rejects_a_bad_tol_at_entry(monkeypatch):
    # the tol given is named, before any slice norm runs at a clamped tol
    monkeypatch.setattr(quad, "_drive", None)
    for tol in (-1.0, 0.0, 0.5, math.nan):
        with pytest.raises(ParameterError, match=f"got {tol}"):
            reduction_bound_check(P(0, 0, 1), BOX, tol=tol)


# -- support pruning ----------------------------------------------------------------

PRUNED_SOURCES = ["ind(-0.25,0.25)*ind(y,1,2)", "ind(y,0.5,1.5)",
                  "ind(-1,0.5)*y^0.5*ind(y,0.5,3)"]


def _unpruned(f):
    # the whole domain by the 2D quadrature: without the supports, and without
    # the steps of a separable source, whose closed form f is then checked against
    return dataclasses.replace(f, u_support=(-INF, INF), v_support=(0.0, INF),
                               u_steps=None, v_factor=None)


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


# -- separable sources: the u integral in closed form ------------------------------

def _no_halfplane_drive(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quad.integrate_halfplane ran for a separable source")
    monkeypatch.setattr(quad, "integrate_halfplane", refuse)


def _tplus_u_integral(mpmath, x, d, k, lo, hi):
    """int_lo^hi ((x-u)^2 + d^2)^(-k/2) du by the incomplete Beta function."""
    def psi(t):
        if mpmath.isinf(t):
            return mpmath.sign(t) * mpmath.beta(0.5, (k - 1) / 2) / 2
        return mpmath.sign(t) * mpmath.betainc(0.5, (k - 1) / 2, 0, t * t / (1 + t * t)) / 2
    return d ** (1 - k) * (psi((hi - x) / d) - psi((lo - x) / d))


def _step_reference(params, steps, z, complex_kernel, v_lo=1.0, v_hi=2.0):
    """y^alpha int_{v_lo}^{v_hi} v^beta sum c (u integral of the kernel over [lo, hi]) dv,
    the u integral in closed form at 60 digits, the v integral by 24-point Gauss-Legendre
    (the integrand is analytic within distance 1 of [v_lo, v_hi])."""
    mpmath = pytest.importorskip("mpmath")
    nodes, weights = np.polynomial.legendre.leggauss(24)
    with mpmath.workdps(60):
        x, y = mpmath.mpf(z.real), mpmath.mpf(z.imag)
        k = 1 + mpmath.mpf(params.gamma)
        total = 0
        for t, w in zip(nodes, weights):
            v = (v_lo + v_hi) / 2 + (v_hi - v_lo) / 2 * mpmath.mpf(t)
            d = y + v
            for c, lo, hi in steps:
                lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
                if complex_kernel:
                    def F(u):
                        return 0 if mpmath.isinf(u) else (x - u + 1j * d) ** (1 - k) / (k - 1)
                    part = F(hi) - F(lo)
                else:
                    part = _tplus_u_integral(mpmath, x, d, k, lo, hi)
                total += c * (v_hi - v_lo) / 2 * mpmath.mpf(w) * v ** params.beta * part
        value = y ** params.alpha * total
        return complex(value) if complex_kernel else float(value)


@pytest.mark.parametrize("alpha, beta_, a", [(0.5, 0.5, 0.2), (0.1, 0.3, 0.0), (0.25, 0.4, -0.5)])
def test_column_integral_runs_no_halfplane_drive(monkeypatch, alpha, beta_, a):
    mpmath = pytest.importorskip("mpmath")
    _no_halfplane_drive(monkeypatch)
    gamma = alpha + beta_ + 1.0
    want = mpmath.beta(0.5, mpmath.mpf(gamma) / 2) * mpmath.beta(mpmath.mpf(beta_) - a,
                                                                   mpmath.mpf(alpha) + a + 1)
    got = column_integral(P(alpha, beta_, gamma), a, complex(-0.7, 1.3))
    assert abs(got - want) <= 1e-14 * want


def test_slab_tplus_is_the_half_line_operator(monkeypatch):
    # T+ of g = 1 times h(v) is B(1/2, gamma/2) H h(y): slabs in closed form
    mpmath = pytest.importorskip("mpmath")
    _no_halfplane_drive(monkeypatch)
    params, y = P(0.2, 0.3, 1.1), 0.8
    with mpmath.workdps(30):
        h = mpmath.quad(lambda v: v ** 0.3 * (y + v) ** -1.1, [0.7, 1.45])
        want = mpmath.beta(0.5, 0.55) * y ** 0.2 * h
    got = apply_Tplus(params, func2d("ind(y,0.7,1.45)"), complex(0.4, y))
    assert abs(got - want) <= 1e-14 * want


def test_slab_t_and_projection_are_exactly_zero(monkeypatch):
    _no_halfplane_drive(monkeypatch)
    slab = func2d("2*ind(y,0.7,1.45)")
    assert apply_T(P(0.2, 0.3, 1.1), slab, complex(0.4, 0.8)) == 0.0
    assert bergman_project(0.5, slab, complex(-3.0, 0.2)) == 0.0


@pytest.mark.parametrize("src", ["y^(0-2)*ind(y,0,1)", "ind(-1,1)*y^(0-2)*ind(y,0,1)"])
@pytest.mark.parametrize("operator", [apply_Tplus, apply_T])
def test_a_divergent_v_factor_raises_as_before(src, operator):
    # the u integral of T on a slab is 0, but the v integral of |f| diverges
    with pytest.raises(DivergenceError) as exc:
        operator(P(0, 0, 1), func2d(src), complex(0.5, 1.0))
    assert exc.value.endpoint == "origin"


@pytest.mark.parametrize("gamma", [0.0, -0.2])
def test_slab_tplus_without_u_decay_diverges(gamma):
    with pytest.raises(DivergenceError) as exc:
        apply_Tplus(P(0.2, 0.3, gamma), func2d("ind(y,0.7,1.45)"), complex(0.4, 0.8))
    assert exc.value.endpoint == "u-infinity"


@pytest.mark.parametrize("gamma", [0.3, 1.0, 1.37, 2.5])
def test_box_against_mpmath(monkeypatch, gamma):
    _no_halfplane_drive(monkeypatch)
    params, tol = P(0.2, 0.3, gamma), 1e-8
    for x in (0.0, 0.3, 5.0, 1e3, 1e8, 1e13):
        for y in (0.1, 1.0):
            z = complex(x, y)
            scale = _step_reference(params, [(1.0, -0.25, 0.25)], z, False)
            assert abs(apply_Tplus(params, BOX, z, tol) - scale) <= tol * scale, z
            want = _step_reference(params, [(1.0, -0.25, 0.25)], z, True)
            assert abs(apply_T(params, BOX, z, tol) - want) <= tol * scale, z


def test_box_far_out_against_mpmath():
    z = complex(1e13, 0.5)
    want = _step_reference(P(0, 0, 1), [(1.0, -0.25, 0.25)], z, False)
    assert abs(apply_Tplus(P(0, 0, 1), BOX, z) - want) <= 1e-12 * want


@pytest.mark.parametrize("src, steps", [("ind(-inf,0)*ind(y,1,2)", [(1.0, -INF, 0.0)]),
                                        ("ind(0,inf)*ind(y,1,2)", [(1.0, 0.0, INF)])])
def test_one_sided_steps_against_mpmath(monkeypatch, src, steps):
    _no_halfplane_drive(monkeypatch)
    params = P(0.2, 0.3, 1.37)
    for z in (complex(0.7, 0.5), complex(-3.0, 1.0), complex(40.0, 0.2)):
        want = _step_reference(params, steps, z, False)
        assert abs(apply_Tplus(params, func2d(src), z, 1e-8) - want) <= 1e-8 * want
        tw = _step_reference(params, steps, z, True)
        assert abs(apply_T(params, func2d(src), z, 1e-8) - tw) <= 1e-8 * want


def test_cancelling_steps(monkeypatch):
    # the mass channel sum |c| |step integral| scales the tolerance, so T+ at x = 0,
    # where the two steps cancel exactly, converges to 0 within tol times the mass
    _no_halfplane_drive(monkeypatch)
    odd, even = func2d("(ind(0,1)-ind(-1,0))*ind(y,1,2)"), func2d("(ind(0,1)+ind(-1,0))*ind(y,1,2)")
    params, steps = P(0, 0, 1), [(1.0, 0.0, 1.0), (-1.0, -1.0, 0.0)]
    want = _step_reference(params, steps, complex(0.5, 0.5), False)
    assert abs(apply_Tplus(params, odd, complex(0.5, 0.5), 1e-8) - want) <= 1e-8 * abs(want)
    mass = apply_Tplus(params, even, complex(0.0, 0.5))
    assert abs(apply_Tplus(params, odd, complex(0.0, 0.5))) <= 1e-6 * mass


def test_dilated_box_is_the_box_of_the_dilated_expression():
    f, g = BOX.dilate(4.0), func2d("ind(-0.0625,0.0625)*ind(y,0.25,0.5)")
    assert f.u_steps == g.u_steps == ((1.0, -0.0625, 0.0625),)
    assert f.v_factor.pieces == g.v_factor.pieces
    for z in (complex(0.1, 0.3), complex(-2.0, 0.1)):
        assert apply_Tplus(P(0.2, 0.3, 1.1), f, z) == pytest.approx(apply_Tplus(P(0.2, 0.3, 1.1), g, z),
                                                                    rel=1e-15)


def test_sources_outside_the_closed_form_keep_the_halfplane_drive():
    # values recorded before the closed form: a box without u decay of the kernel
    # (gamma <= 0), the reproducing probe and a non-separable source, bit for bit
    assert apply_Tplus(P(0.2, 0.3, -1.0), BOX, complex(0.3, 0.5)) == 0.48961398529863925
    assert apply_Tplus(P(0.2, 0.3, -0.5), BOX, complex(0.3, 0.5)) == 0.34498102647798135
    assert apply_T(P(0.2, 0.3, -0.5), BOX, complex(0.3, 0.5)) == complex(0.26145511388537973,
                                                                         -0.22468402738558116)
    algebraic = func2d("(1+x^2)^(0-1)*y^0.5*exp(0-y)")
    assert apply_Tplus(P(0.5, 0.3, 2.0), algebraic, complex(10.0, 0.5)) == 0.008165539246052426
    assert [complex(r["projected_re"], r["projected_im"]) for r in reproduce_check(0.4, 3)] == [
        complex(0.12500000000000006, 1.3877787807814457e-17),
        complex(0.016000000000001055, 0.08800000000000012),
        complex(0.018000000000000006, -0.02599999999999999),
        complex(0.14400000000000002, 0.20800000000000002),
        complex(-0.013348616531971388, 0.027393682622132588)]


def test_only_sources_without_steps_reach_the_halfplane_drive(monkeypatch):
    calls = []
    real = quad.integrate_halfplane
    monkeypatch.setattr(quad, "integrate_halfplane", lambda *a, **k: calls.append(1) or real(*a, **k))
    apply_Tplus(P(0, 0, 1), BOX, complex(0.5, 1.0))
    apply_T(P(0, 0, 1), BOX, complex(0.5, 1.0))
    bergman_project(0.5, BOX, complex(0.5, 1.0))
    assert not calls
    apply_Tplus(P(0, 0, 1), func2d("x*ind(-1,1)*ind(y,1,2)"), complex(0.5, 1.0))
    bergman_project(0.5, reproducing_probe(3), complex(0.5, 1.0))
    assert len(calls) == 2


def test_ill_conditioned_psi_tables_keep_the_halfplane_drive(monkeypatch):
    # from gamma ~ 7.15, B(1/2, gamma/2) is over _SERIES_COND times its tail beyond
    # |s| = 1, and a difference of Psi values could cancel by as much
    assert bergman._psi_tables(7.0) is not None and bergman._psi_tables(7.5) is None
    calls = []
    real = quad.integrate_halfplane
    monkeypatch.setattr(quad, "integrate_halfplane", lambda *a, **k: calls.append(1) or real(*a, **k))
    apply_Tplus(P(0, 0, 10.0), BOX, complex(0.5, 1.0))
    assert len(calls) == 1


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


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_column_integral_is_the_closed_form(tol):
    # B(1/2, gamma/2) B(beta-a, alpha+a+1); the u coordinates were 1.1e-4 off
    want = beta(0.5, 1.0) * beta(0.3, 1.7)
    assert abs(column_integral(P(0.5, 0.5, 2.0), 0.2, complex(0.3, 0.7), tol) - want) <= 1e-12


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
