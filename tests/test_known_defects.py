"""The defect ledger: one test per known wrong or failing result.

Each test asserts the correct behaviour against a pinned reference (mpmath
digits, a residue form or a closed form, written as literals so that the
file runs without mpmath) and is marked strict xfail with the failure the
code shows today.  A fix turns its test into an XPASS, which fails the
run until the mark is removed; a change in how a defect fails (another
error class) fails the run too.  The ROADMAP item named in each reason
holds the diagnosis and the plan.
"""

import math

import pytest

from oplab.bergman import apply_T, apply_Tplus, reduction_bound_check, reproduce_check
from oplab.errors import AccuracyError, DomainError
from oplab.funcdsl import func1d, func2d
from oplab.hilbert import OperatorParams, WeightedSpaceSpec, apply_H, sharp_norm, weighted_lp_norm

P = OperatorParams
DID_NOT_RAISE = pytest.fail.Exception   # what pytest.raises raises when nothing is raised

ALGEBRAIC = "(1+x^2)^(0-1)*y^0.5*exp(0-y)"

# T+ and T of ALGEBRAIC under (0.5, 0.3, 2) at x + 0.5i: T+ by nested mpmath
# quadrature at 25 digits; T from the residue of (1+u^2)^-1 at u = -i,
# pi y^alpha int v^(beta+0.5) e^-v (x + i(1.5+v))^-3 dv
TPLUS_ALGEBRAIC = {100.0: 6.31403339614979e-5, 1e4: 6.0971943622866e-9, 1e6: 6.09514298122854e-13}
T_ALGEBRAIC = {100.0: 2.0533547171847e-6 - 2.03653790338325e-7j,
               1e4: 2.06901295713614e-12 - 2.04832320043418e-15j,
               1e6: 2.06901453232533e-18 - 2.04832438703936e-23j}


def _close(got, want, tol):
    return abs(got - want) <= tol * abs(want)


# -- ROADMAP item 1: drives at the kernel's scale only -------------------------

@pytest.mark.xfail(strict=True, raises=AccuracyError,
                   reason="ROADMAP item 1: the s drive misses an algebraic source's peak far from it")
@pytest.mark.parametrize("x", [100.0, 1e4])
@pytest.mark.parametrize("apply", [apply_Tplus, apply_T], ids=["Tplus", "T"])
def test_far_field_of_an_algebraic_source(apply, x):
    want = (TPLUS_ALGEBRAIC if apply is apply_Tplus else T_ALGEBRAIC)[x]
    assert _close(apply(P(0.5, 0.3, 2), func2d(ALGEBRAIC), complex(x, 0.5), 1e-6), want, 1e-6)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: beyond the raising range T+ and T miss the peak silently")
@pytest.mark.parametrize("apply", [apply_Tplus, apply_T], ids=["Tplus", "T"])
def test_far_field_of_an_algebraic_source_beyond_the_raising_range(apply):
    # today T+ is 6.095122296e-13 (3.4e-6 relative) and T is 1.36e-21
    want = (TPLUS_ALGEBRAIC if apply is apply_Tplus else T_ALGEBRAIC)[1e6]
    assert _close(apply(P(0.5, 0.3, 2), func2d(ALGEBRAIC), 1e6 + 0.5j, 1e-6), want, 1e-6)


@pytest.mark.xfail(strict=True, raises=AccuracyError,
                   reason="ROADMAP item 1: the u drive of a box far from the probe fails")
def test_far_field_of_an_algebraic_box():
    got = apply_Tplus(P(0.5, 0.3, 2), func2d("(1+x^2)^(0-1)*ind(y,0.5,2)"), 100 + 0.5j, 1e-6)
    assert _close(got, 8.78870989046698e-5, 1e-6)   # nested mpmath quadrature


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: a Gaussian source underflows at every s node far from it")
def test_far_field_of_a_gaussian_source():
    # today exactly 0.0
    got = apply_Tplus(P(0, 0, 1), func2d("exp(0-x^2)*ind(y,1,2)"), 100 + 0.5j, 1e-6)
    assert _close(got, 1.77199599086659e-4, 1e-6)   # nested mpmath quadrature


@pytest.mark.xfail(strict=True, raises=AccuracyError,
                   reason="ROADMAP item 1: the x drive reaches abscissae where _tplus_slice raises")
def test_reduction_inequality_of_an_algebraic_source():
    (row,) = reduction_bound_check(P(0, 0, 1), func2d(ALGEBRAIC), (0.5,), 1e-4)
    assert row["slack"] >= -1e-4 * row["rhs"]


@pytest.mark.xfail(strict=True, raises=AccuracyError,
                   reason="ROADMAP item 1: _apply_quad has knots at the probe scale only")
def test_H_far_from_the_source():
    # H f(x) = int y e^-y / (x+y) dy = 1/x - 2/x^2 + ..., 1e-100 in floats
    assert _close(apply_H(P(0, 0, 1), func1d("x*exp(0-x)"), 1e100), 1e-100, 1e-10)


# -- ROADMAP item 2: hints and knots -------------------------------------------

@pytest.mark.xfail(strict=True, raises=DID_NOT_RAISE,
                   reason="ROADMAP item 2: a negative base is certified as a power; the norm is 0.0")
def test_negative_base_on_the_whole_support():
    with pytest.raises(DomainError):
        weighted_lp_norm(func1d("(x-1)^0.5*ind(0,1)"), WeightedSpaceSpec(1, 0), 1e-10)


@pytest.mark.xfail(strict=True, raises=AccuracyError,
                   reason="ROADMAP item 2: a negative base ends in AccuracyError")
def test_negative_base_on_part_of_the_support():
    with pytest.raises(DomainError):
        weighted_lp_norm(func1d("(x-0.5)^0.5*ind(0,1)"), WeightedSpaceSpec(1, 0), 1e-10)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: a singularity at a knot is lost within one ulp of it")
def test_knot_singularity_at_the_right_end():
    # today 2 - 1.56e-8
    got = weighted_lp_norm(func1d("(1-x)^(0-0.5)*ind(0,1)"), WeightedSpaceSpec(1, 0), 1e-10)
    assert _close(got, 2.0, 1e-10)


@pytest.mark.xfail(strict=True, raises=AccuracyError,
                   reason="ROADMAP item 2: a singularity at a left knot fails the drive")
@pytest.mark.parametrize("power, norm", [(0.5, 2.0), (0.9, 10.0)])
def test_knot_singularity_at_the_left_end(power, norm):
    # int_1^2 (x-1)^-c dx = 1/(1-c)
    got = weighted_lp_norm(func1d(f"(x-1)^(0-{power})*ind(1,2)"), WeightedSpaceSpec(1, 0), 1e-10)
    assert _close(got, norm, 1e-10)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: H of a knot singularity is 5.6e-9 off")
def test_H_of_a_knot_singularity():
    # int_0^1 (1-y)^-1/2 / (1/2+y) dy = 2/sqrt(3/2) artanh(1/sqrt(3/2)); today 1.8717626097767865
    got = apply_H(P(0, 0, 1), func1d("(1-x)^(0-0.5)*ind(0,1)"), 0.5, 1e-10)
    assert _close(got, 1.8717626202071402, 1e-10)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: log counts as exponent 0, so the sup is a grid value")
def test_sup_of_a_log_singularity():
    # today the grid scan's 13.8155
    assert math.isinf(weighted_lp_norm(func1d("abs(log(x))*ind(0,1)"), WeightedSpaceSpec(math.inf), 1e-10))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: B(1/2, 1/2) through exp(lgamma) is 5 ulp off pi")
def test_sharp_norm_is_pi():
    # today 3.1415926535897953
    assert abs(sharp_norm(WeightedSpaceSpec(2, 0), P(0, 0, 1)) - math.pi) <= math.ulp(math.pi)


# -- ROADMAP item 4(b): the drive's floor ---------------------------------------

@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4(b): the floor accepts an error far above tol at nu = 50")
def test_reproduction_at_nu_50_is_within_tol_or_raises():
    # today abs_error 9.36e-3 at tol 1e-6
    try:
        (row,) = reproduce_check(50, 3, points=[0.5 + 0.5j], tol=1e-6)
    except AccuracyError:
        return
    assert row["abs_error"] <= 10 * 1e-6
