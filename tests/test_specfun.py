"""Gamma/Beta special functions: spot values, accuracy, algebraic laws."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplab.errors import DomainError
from oplab.quad import SingularityHints, integrate_semiaxis
from oplab.specfun import beta, log_beta, log_gamma


def test_log_gamma_spot_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)


def test_log_gamma_accuracy_sweep():
    # target: 1e-13 relative (abs near the zeros of lnGamma) on [1e-6, 1e6]
    xs = np.geomspace(1e-6, 1e6, 5001)
    for x in xs:
        ref = math.lgamma(x)
        assert abs(log_gamma(float(x)) - ref) <= 1e-13 * max(1.0, abs(ref))


def test_beta_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(17)
    for m, n in rng.uniform(0.01, 20.0, (300, 2)):
        want = mpmath.beta(mpmath.mpf(m), mpmath.mpf(n))
        assert abs(beta(m, n) - want) <= 1e-13 * want


def test_log_beta_over_the_float_range():
    # no NaN for any pair of positive floats (the sum of lgammas was inf - inf past
    # ~2.6e305), and within 1e-14 max(1, |ln B|) of mpmath wherever B is a normal float
    mpmath = pytest.importorskip("mpmath")
    grid = np.geomspace(1e-300, 1e308, 25).tolist() + [0.5, 3.0, 7.9, 8.0, 8.1, 100.0, 1e5, 1e16]
    normal = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)
    with mpmath.workdps(340):
        for m, n in itertools.product(grid, repeat=2):
            got = log_beta(m, n)
            assert not math.isnan(got), (m, n)
            want = mpmath.loggamma(m) + mpmath.loggamma(n) - mpmath.loggamma(mpmath.mpf(m) + n)
            if normal[0] <= want <= normal[1]:
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (m, n)


def test_beta_at_the_top_of_the_float_range():
    # B(1/2, 5e305) = sqrt(pi/5e305) (1 - 1/(8 n) ...), where the sum of lgammas was NaN
    assert beta(0.5, 5e305) == pytest.approx(math.sqrt(math.pi / 5e305), rel=1e-14)
    assert log_beta(1.7e308, 1.7e308) == -math.inf   # ln B is below the float range


def test_log_gamma_beyond_the_float_range_is_inf():
    assert log_gamma(1e306) == math.inf


def test_beta_beyond_the_float_range_is_inf():
    assert beta(0.5, 5e-321) == math.inf
    assert beta(5e-321, 0.5) == math.inf


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-3.2)


def test_beta_spot_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)
    assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_beta_domain():
    with pytest.raises(DomainError):
        beta(0.0, 1.0)
    with pytest.raises(DomainError):
        beta(1.0, -0.5)
    with pytest.raises(DomainError):
        log_beta(-1.0, 2.0)


def test_beta_large_arguments_no_overflow():
    # assembled in log space: the individual Gammas would overflow
    val = beta(400.0, 300.0)
    ref = math.exp(math.lgamma(400) + math.lgamma(300) - math.lgamma(700))
    assert val == pytest.approx(ref, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-3, 50.0), st.floats(1e-3, 50.0))
def test_beta_symmetry(m, n):
    assert beta(m, n) == pytest.approx(beta(n, m), rel=1e-13)


def test_beta_symmetry_bulk():
    rng = np.random.default_rng(11)
    m = rng.uniform(1e-6, 50.0, 10_000)
    n = rng.uniform(1e-6, 50.0, 10_000)
    for a, b in zip(m, n):
        assert abs(beta(a, b) / beta(b, a) - 1.0) <= 1e-13


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-2, 40.0), st.floats(1e-2, 40.0))
def test_beta_pascal_recurrence(m, n):
    assert beta(m + 1.0, n) + beta(m, n + 1.0) == pytest.approx(beta(m, n), rel=1e-12)


def test_beta_integral_representation_cross_module():
    # B(m,n) = int_0^inf u^(m-1) (1+u)^(-m-n) du, quadrature as the oracle
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = rng.uniform(0.1, 10.0)
        n = rng.uniform(0.1, 10.0)

        def integrand(u):
            return u ** (m - 1.0) * (1.0 + u) ** (-(m + n))

        hints = SingularityHints((), m - 1.0, n + 1.0)
        got = float(integrate_semiaxis(integrand, hints, 1e-10))
        assert got == pytest.approx(beta(m, n), rel=1e-9)


def test_log_beta_matches_beta():
    assert math.exp(log_beta(3.5, 0.25)) == pytest.approx(beta(3.5, 0.25), rel=1e-14)
