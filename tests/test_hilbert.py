"""Half-line operator family: application, norms, verdicts, sharpness."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from oplab import hilbert, quad
from oplab.errors import DivergenceError, DomainError, ParameterError
from oplab.funcdsl import func1d
from oplab.hilbert import (
    ExtremalFamily,
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


# -- closed form for piece sums ---------------------------------------------

def _segments(a, b, z1, z2, dz):
    """_beta_segment of the elements (a[i], b[i], z1[i], z2[i], dz[i]) in one call."""
    a, b, z1, z2, dz = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, b, z1, z2, dz))
    return hilbert._beta_segment(hilbert._series(a, b), np.arange(a.size), z1, z2, dz,
                                 np.ones(a.size), np.zeros(a.size))


def _seeded_segments(mpmath):
    """The seeded (a, b, z1, z2, dz) elements and their mpmath betainc values."""
    rng = np.random.default_rng(11)
    elements, want = [], []
    for _ in range(300):
        a, b, z2 = rng.uniform(-2.5, 5.0), rng.uniform(-5.0, 5.0), rng.uniform(1e-6, 0.5)
        r = rng.choice([0.0, rng.uniform(0.0, 1.0), 1.0 - 10.0 ** rng.uniform(-9.0, -1.0)])
        if r == 0.0:
            a = abs(a) + 0.1   # z1 = 0 needs a > 0
        z1, dz = z2 * r, z2 * (1.0 - r)
        elements.append((a, b, z1, min(z1 + dz, 0.5), dz))
        with mpmath.workdps(40):
            want.append(float(mpmath.betainc(a, b, z1, mpmath.mpf(z1) + mpmath.mpf(dz))))
    return elements, want


def test_beta_segment_matches_mpmath_betainc():
    mpmath = pytest.importorskip("mpmath")
    elements, want = _seeded_segments(mpmath)
    got = np.array([_segments(*element)[0] for element in elements])
    want = np.array(want)
    finite = np.isfinite(got)
    assert finite.mean() > 0.95   # the rest cancels too much and hands over
    assert np.max(np.abs(got[finite] - want[finite]) / np.abs(want[finite])) <= 1e-14


def test_beta_segment_in_one_batch():
    # the seeded elements and some that use every row count, the log
    # term, segments ending at z2 = 1/2 with -1 < b < 0 (the ratio bound
    # g = |1-b/N| exceeds 1 at every N), 256 rows, and the hand-over, in one call
    mpmath = pytest.importorskip("mpmath")
    elements, want = _seeded_segments(mpmath)
    for z2 in np.geomspace(1e-8, 0.5, 12):
        elements += [(1.3, -0.7, 0.0, z2, z2), (-0.6, 2.4, 0.3 * z2, z2, 0.7 * z2)]
    for a, b, z1 in itertools.product((0.5, 1.3, 2.0), (-0.02, -0.3, -0.57), (0.0, 0.1)):
        elements.append((a, b, z1, 0.5, 0.5 - z1))
    elements += [(0.0, 1.5, 0.1, 0.4, 0.3), (-1.0, 0.5, 0.05, 0.5, 0.45),   # poles
                 (0.7, -30.0, 0.0, 0.5, 0.5),                              # 256 rows
                 (1.0, 40.0, 0.0, 0.5, 0.5)]                               # cancels: NaN
    with mpmath.workdps(40):
        for a, b, z1, z2, dz in elements[len(want):]:
            want.append(float(mpmath.quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1),
                                          [z1, mpmath.mpf(z1) + mpmath.mpf(dz)])))
    got = _segments(*zip(*elements))
    want = np.array(want)
    one_by_one = np.array([_segments(*element)[0] for element in elements])
    assert np.array_equal(np.isnan(got), np.isnan(one_by_one))
    assert np.isnan(got[-1]) and np.isfinite(got[-4:-1]).all()
    finite = np.isfinite(got)
    assert np.max(np.abs(got[finite] - want[finite]) / np.abs(want[finite])) <= 1e-14


def test_series_sizes_every_segment_up_to_one_half():
    # -1 < b < 0 makes the ratio bound g = |1-b/N| exceed 1 at every N, so
    # the bound theta/g with theta = 1/2 alone never reaches z2 = 1/2
    a, b = (v.ravel() for v in np.meshgrid([0.1, 0.5, 1.3, 2.0, 4.0], [-0.99, -0.57, -0.3, -0.02]))
    assert (hilbert._series(a, b).reach[:, -1] >= 0.5).all()


def _H_reference(mpmath, pieces, params, x):
    """H f(x) from 2F1 antiderivatives at 40 digits."""
    with mpmath.workdps(40):
        x, ga = mpmath.mpf(x), mpmath.mpf(params.gamma)
        total = 0
        for c, s, lo, hi in pieces:
            m = mpmath.mpf(s) + params.beta
            if math.isinf(hi):   # int_lo^inf y^m (x+y)^-g dy, through u = 1/y
                k = ga - m - 1
                part = mpmath.mpf(lo) ** (-k) / k * mpmath.hyp2f1(ga, k, k + 1, -x / lo)
            else:
                def F(Y):
                    return Y ** (m + 1) / (m + 1) * x ** -ga * mpmath.hyp2f1(ga, m + 1, m + 2, -Y / x)
                part = F(mpmath.mpf(hi)) - (F(mpmath.mpf(lo)) if lo > 0 else 0)
            total += c * part
        return float(x ** params.alpha * total)


@pytest.mark.parametrize("src, params", [
    ("x^20*ind(1,2)", P(0.1, 3, 1.1)),              # needs well over 60 terms near x = 1
    ("ind(100,100.001)", P(0, 0, 2)),               # narrow: no cancellation in the differences
    ("x^(0-0.9)*ind(0,1)", P(0.5, 0, 1)),           # lo = 0
    ("x^0.3*ind(2,inf)", P(0.2, 0.1, 2.5)),         # hi = inf
    ("x^(0-2.5)*ind(1,3)", P(0.2, 0.1, 0.7)),       # a = m+1 <= 0
    ("x^3*ind(0.5,4)", P(0.1, 0.2, 0.5)),           # b = gamma-m-1 <= 0
    ("2*x^0.5*ind(1,2)-ind(3,inf)", P(0.3, 0.2, 1.9)),
])
def test_closed_form_H_matches_hyp2f1(src, params):
    mpmath = pytest.importorskip("mpmath")
    f = func1d(src)
    xs = np.geomspace(1e-8, 1e8, 33)
    want = np.array([_H_reference(mpmath, f.pieces, params, x) for x in xs])
    series = hilbert._apply_pieces(params, f.pieces, xs)
    closed = np.isfinite(series)
    assert closed.mean() > 0.9
    assert np.max(np.abs(series[closed] - want[closed]) / np.abs(want[closed])) <= 1e-13
    # probes where the series gives up run the quadrature
    got = apply_H_many(params, f, xs)
    assert np.array_equal(got[closed], series[closed])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-9


@pytest.mark.parametrize("src, params", [
    ("ind(1,2)", P(0.3, 0.2, 1.5)), ("x^(0-0.9)*ind(0,1)", P(0.5, 0, 1)),
    ("2*x^0.5*ind(1,2)-ind(3,inf)", P(0.3, 0.2, 1.9)), ("x^(0-0.3)*ind(0.5,inf)", P(0, 0.4, 1.7)),
])
def test_closed_form_agrees_with_the_quadrature(src, params):
    f = func1d(src)
    xs = np.geomspace(1e-3, 1e3, 25)
    closed = apply_H_many(params, f, xs)
    quadrature = apply_H_many(params, dataclasses.replace(f, pieces=None), xs)
    assert not np.array_equal(closed, quadrature)
    assert np.max(np.abs(closed - quadrature) / np.abs(quadrature)) <= 1e-9


def test_integer_beta_parameters_take_the_log_term():
    # ind(1,2) under (0,0,1), the classical operator, has b = gamma-m-1 = 0:
    # the segment above y = x is the pole term log(z2/z1)
    mpmath = pytest.importorskip("mpmath")
    xs = np.geomspace(1e-4, 1e4, 17)
    got = hilbert._apply_pieces(P(0, 0, 1), func1d("ind(1,2)").pieces, xs)
    assert np.max(np.abs(got - np.log1p(1.0 / (xs + 1.0))) / got) <= 1e-14   # ln((x+2)/(x+1))
    # Beta parameter a = m+1 = -1 and -2 below y = x, and b = -1 above it
    for src, params in [("x^(0-2)*ind(1,3)", P(0.2, 0, 1.3)), ("x^(0-3)*ind(0.5,2)", P(0.1, 0, 0.7)),
                        ("x^2*ind(1,2)", P(0, 0, 2))]:
        (c, s, lo, hi), = func1d(src).pieces
        got = hilbert._apply_pieces(params, func1d(src).pieces, xs)
        assert np.isfinite(got).all()
        with mpmath.workdps(40):
            want = np.array([float(c * mpmath.mpf(x) ** params.alpha * mpmath.quad(
                lambda y: y ** (s + params.beta) * (x + y) ** -params.gamma, [lo, hi]))
                for x in xs])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14, src


@pytest.mark.parametrize("src, params, x", [
    ("x^3.608*ind(0.0019,0.0828)", P(0.28, 2.77, 0.68), 1e42),   # z2^a is subnormal
    ("x^3.362*ind(0,0.153)", P(1.9, 1.29, 0.56), 1e-45),         # x^(alpha+m+1-gamma) is
])
def test_underflow_hands_over_to_the_quadrature(src, params, x):
    mpmath = pytest.importorskip("mpmath")
    f = func1d(src)
    (c, s, lo, hi), = f.pieces
    m = s + params.beta
    a, b = m + 1.0, params.gamma - m - 1.0
    with mpmath.workdps(50):
        X, half = mpmath.mpf(x), mpmath.mpf(1) / 2
        if hi < x:   # the piece lies below y = x
            seg = mpmath.betainc(a, b, lo / (X + lo), hi / (X + hi))
        else:        # lo = 0 < x < hi
            seg = mpmath.betainc(a, b, 0, half) + mpmath.betainc(b, a, X / (X + hi), half)
        want = float(c * X ** (params.alpha + m + 1 - params.gamma) * seg)
    assert np.isnan(hilbert._apply_pieces(params, f.pieces, np.array([x]))).all()
    assert apply_H(params, f, x) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("src, endpoint", [("x^(0-1.5)*ind(0,1)", "origin"),
                                           ("x^2*ind(1,inf)", "infinity")])
def test_divergent_pieces_still_raise(src, endpoint):
    with pytest.raises(DivergenceError) as exc:
        apply_H(P(0, 0, 1), func1d(src), 1.0)
    assert exc.value.endpoint == endpoint


def _count_drives(monkeypatch):
    drives = []
    for name in ("integrate_semiaxis", "integrate_truncated"):
        original = getattr(quad, name)
        monkeypatch.setattr(quad, name, lambda *args, _f=original, **kwargs:
                            drives.append(1) or _f(*args, **kwargs))
    return drives


@pytest.mark.parametrize("src", ["ind(1,2)", "x*exp(0-x)"])
def test_apply_H_many_of_no_probes_is_empty(src):
    # the closed-form and the quadrature path alike
    out = apply_H_many(P(0, 0, 1), func1d(src), [])
    assert isinstance(out, np.ndarray) and out.shape == (0,)
    with pytest.raises(ParameterError, match="at least one probe point"):
        dilation_residual(P(0, 0, 1), func1d(src), 2.0, [])


def test_apply_H_many_at_huge_probes():
    # H ind(1,2)(x) = log1p(1/(x+1)) under (0,0,1); x*(y2-y1)/((x+y1)(x+y2))
    # overflows in its denominator past x ~ 1.3e154
    xs = np.array([1e150, 1e154, 1e155, 1e200, 1e300])
    got = apply_H_many(P(0, 0, 1), func1d("ind(1,2)"), xs)
    want = np.log1p(1.0 / (xs + 1.0))
    assert np.all(np.abs(got - want) <= 1e-14 * want)
    # a piece up to infinity: pi*sqrt(2)*x^-0.75 less int_0^1, O(1/x)
    xs = np.array([1e200, 1e300])
    got = apply_H_many(P(0, 0, 1), func1d("x^(0-0.75)*ind(1,inf)"), xs)
    assert np.all(np.abs(got / (math.pi * math.sqrt(2.0) * xs ** -0.75) - 1.0) <= 1e-14)


@pytest.mark.parametrize("bad", [INF, math.nan, -1.0, 0.0])
def test_apply_H_many_rejects_probes_that_are_not_positive_and_finite(bad):
    for src in ("ind(1,2)", "x*exp(0-x)"):
        with pytest.raises(DomainError, match=r"probe points must be positive and finite, got \[.*\]"):
            apply_H_many(P(0, 0, 1), func1d(src), [1.0, bad])


def test_apply_H_many_checks_tol_without_a_drive():
    for tol in (-5.0, 0.5, math.nan):
        with pytest.raises(ParameterError, match="tolerance"):
            apply_H_many(P(0.1, 0.2, 1.3), func1d("ind(1,3)"), [1.0], tol=tol)


def test_piece_sources_run_no_drive(monkeypatch):
    drives = _count_drives(monkeypatch)
    apply_H_many(P(0.3, 0.2, 1.9), func1d("2*x^0.5*ind(1,2)-ind(3,inf)"), np.geomspace(1e-3, 1e3, 200))
    assert drives == []
    apply_H_many(P(0.3, 0.2, 1.9), func1d("exp(0-x)"), np.geomspace(1e-3, 1e3, 200))
    assert len(drives) == 4   # 200 probes in batches of 64


@pytest.mark.parametrize("xi", [0.05, 2.0, 3.5])
def test_extremal_quotient_runs_no_drive(monkeypatch, xi):
    # window (0, 2): inside it, on its edge (b = 0 in both Beta segments)
    # and beyond it
    drives = _count_drives(monkeypatch)
    extremal_quotient(WeightedSpaceSpec(2.0, 0.0), P(0.5, 0.5, 2.0), xi)
    assert drives == []


# -- norms -------------------------------------------------------------------

def test_weighted_norm_examples():
    assert weighted_lp_norm(func1d("x^(-0.505)*ind(1,inf)"), WeightedSpaceSpec(2, 0)) == pytest.approx(
        0.01 ** -0.5, rel=1e-9)  # truncated power with tail exponent -1-xi: norm = xi^(-1/p)
    assert weighted_lp_norm(func1d("ind(1,2)"), WeightedSpaceSpec(2, 0)) == pytest.approx(1.0, rel=1e-10)
    assert weighted_lp_norm(func1d("ind(0,1)"), WeightedSpaceSpec(1, 1)) == pytest.approx(0.5, rel=1e-10)


@pytest.mark.parametrize("src, p, a", [
    ("-2*x^0.5*ind(1,3)", 1.5, 0.3),               # c < 0, s != 0
    ("x^(0-0.4)*ind(0,2)", 2.0, 0.0),              # lo = 0
    ("x^(0-1)*ind(2,inf)", 3.0, 0.5),              # hi = inf
    ("3*ind(0.5,1)-x^2*ind(1,4)", 1.2, -0.5),      # two pieces
    ("ind(100,100.001)", 2.0, 1.0),                # narrow
    ("x^(0-0.5)*ind(1,2)", 2.0, 0.0),              # e = sp+a+1 = 0: log(hi/lo)
])
def test_piece_norm_closed_form_matches_mpmath(monkeypatch, src, p, a):
    mpmath = pytest.importorskip("mpmath")
    f = func1d(src)
    calls = _count_drives(monkeypatch)
    got = weighted_lp_norm(f, WeightedSpaceSpec(p, a))
    assert f.pieces and calls == []
    with mpmath.workdps(40):   # int_lo^hi y^(sp+a) dy with y = e^t, smooth at both ends
        total = sum(abs(mpmath.mpf(c)) ** p * mpmath.quad(lambda t: mpmath.exp(t * (s * p + a + 1)),
                                                          [mpmath.log(lo), mpmath.log(hi)])
                    for c, s, lo, hi in f.pieces)
        want = float(total ** (1 / mpmath.mpf(p)))
    assert abs(got - want) <= 1e-14 * want


def test_piece_norm_is_exact():
    assert weighted_lp_norm(func1d("ind(1,2)"), WeightedSpaceSpec(2, 0)) == 1.0
    assert weighted_lp_norm(func1d("x^(0-0.9)*ind(0,1)"), WeightedSpaceSpec(1, 0)) == 1.0 / (1.0 - 0.9)


def test_overlapping_pieces_keep_the_drive(monkeypatch):
    calls = _count_drives(monkeypatch)
    got = weighted_lp_norm(func1d("ind(0,2)+ind(1,3)"), WeightedSpaceSpec(2, 0))
    assert calls == [1]
    assert got == pytest.approx(math.sqrt(6.0), rel=1e-10)   # |f|^2 = 1, 4, 1 on [0,1], [1,2], [2,3]


@pytest.mark.parametrize("src, p, endpoint", [("x^(0-1.5)*ind(0,1)", 1.0, "origin"),
                                              ("ind(1,inf)", 2.0, "infinity")])
def test_divergent_piece_norm_raises(monkeypatch, src, p, endpoint):
    calls = _count_drives(monkeypatch)
    with pytest.raises(DivergenceError) as exc:
        weighted_lp_norm(func1d(src), WeightedSpaceSpec(p, 0))
    assert exc.value.endpoint == endpoint
    assert calls == []


def test_weighted_norm_essential_sup():
    f = func1d("x/(1+x)^2")  # max 1/4 at x = 1
    assert weighted_lp_norm(f, WeightedSpaceSpec(INF)) == pytest.approx(0.25, rel=1e-9)
    # breakpoints outside the default scan range [1e-6, 1e6] widen it
    for src in ("ind(1e7,2e7)", "ind(1e-9,2e-9)"):
        assert weighted_lp_norm(func1d(src), WeightedSpaceSpec(INF)) == 1.0
    # hint exponents below 0 at either end say the function is unbounded
    for src in ("x^(0-0.5)*ind(0,1)", "x^0.5"):
        assert weighted_lp_norm(func1d(src), WeightedSpaceSpec(INF)) == INF
    assert weighted_lp_norm(func1d("x*exp(0-x)"), WeightedSpaceSpec(INF)) == 0.36787944117144233


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


def test_image_of_a_source_vanishing_near_the_origin():
    # ind(1,2) is zero near 0, so H f ~ x^alpha there whatever gamma
    params, f = P(0, 0, 2), func1d("ind(1,2)")
    assert abs(image_norm(params, f, 2, 0) - math.sqrt(1.5 - 2.0 * math.log(2.0))) <= 1e-10
    assert abs(bilinear_pairing(params, f, func1d("ind(0.5,3)"), 0) - math.log(4.0 / 3.0)) <= 1e-10


@pytest.mark.parametrize("q, b", [(0.5, 0.0), (2.0, -1.5), (math.nan, 0.0)])
def test_image_norm_validates_its_space(q, b):
    with pytest.raises(ParameterError):
        image_norm(P(0, 0, 1), func1d("ind(1,2)"), q, b)


def test_space_spec_validation():
    with pytest.raises(ParameterError):
        WeightedSpaceSpec(0.5, 0.0)
    with pytest.raises(ParameterError):
        WeightedSpaceSpec(2.0, -1.0)
    with pytest.raises(ParameterError):
        WeightedSpaceSpec(INF, 0.0)  # weight must be absent at p = inf
    WeightedSpaceSpec(INF)  # fine
    for a in (INF, math.nan):
        with pytest.raises(ParameterError, match="finite"):
            WeightedSpaceSpec(2.0, a)


def test_solve_gamma_validates_its_spaces():
    with pytest.raises(ParameterError, match="weight exponent"):
        solve_gamma(2, 3, None, 0.5, 0.2, 0.3)   # a missing at finite p
    with pytest.raises(ParameterError, match="weight exponent"):
        solve_gamma(2, 3, -3, 0.5, 0.2, 0.3)
    with pytest.raises(ParameterError, match="p must satisfy"):
        solve_gamma(0.5, 3, 0, 0.5, 0.2, 0.3)
    with pytest.raises(ParameterError, match="p must satisfy"):
        solve_gamma(math.nan, 3, 0, 0.5, 0.2, 0.3)
    with pytest.raises(ParameterError, match="alpha must be a finite real"):
        solve_gamma(2, 3, 0, 0.5, math.nan, 0.3)
    assert solve_gamma(2, INF, 0, None, 0.5, 0.0) == 1.0


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


def test_extremal_quotient_matches_mpmath_betainc():
    # Q = B_{1/2}(gamma-m-1, m+1) + B_{1/2}(m+xi+1, gamma-m-xi-1),
    # m = beta-(a+1+xi)/p, inside, on and beyond the window p(beta+1)-(a+1)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(12)
    for _ in range(8):
        p, al, be = rng.uniform(1.2, 4.0), rng.uniform(0.0, 1.0), rng.uniform(-0.5, 1.0)
        a = rng.uniform(max(-1.0, -p * al - 1.0), p * (be + 1.0) - 1.0)
        window = p * (be + 1.0) - (a + 1.0)
        for xi in (window * 1e-3, window * rng.uniform(0.05, 0.95), window, window * rng.uniform(1.0, 3.0)):
            got = extremal_quotient(WeightedSpaceSpec(p, a), P(al, be, al + be + 1.0), xi)
            with mpmath.workdps(40):
                ga, m = mpmath.mpf(al) + be + 1, be - (a + 1 + mpmath.mpf(xi)) / p
                half = mpmath.mpf(1) / 2
                want = (mpmath.betainc(ga - m - 1, m + 1, 0, half)
                        + mpmath.betainc(m + xi + 1, ga - m - xi - 1, 0, half))
            assert abs(got - want) <= 1e-14 * want, (p, a, al, be, xi)


def test_extremal_quotient_monotone_sequence():
    space = WeightedSpaceSpec(2, 0)
    vals = [extremal_quotient(space, P(0, 0, 1), xi) for xi in (0.5, 0.1, 0.01)]
    assert vals[0] < vals[1] < vals[2] < math.pi


def test_extremal_correction_bound_brackets_the_quotient():
    # quotient = lead - xi*corr with 0 <= xi*corr <= correction_bound =
    # xi/[(beta+1-e_f)(beta+1-e_f+xi)], e_f = (a+1+xi)/p; and quotient <= sharp
    tol = 1e-9
    for (p, a, al, be) in [(2.0, 0.0, 0.0, 0.0), (2.0, 0.5, 0.25, 0.5), (3.0, 0.0, 0.1, 0.2)]:
        params = P(al, be, al + be + 1.0)
        space = WeightedSpaceSpec(p, a)
        sharp = sharp_norm(space, params)
        for xi in (0.5, 0.05, 0.01, 1e-4):
            e_f = (a + 1.0 + xi) / p
            lead = beta(be + 1.0 - e_f, al + e_f)
            bound = ExtremalFamily(xi, space).correction_bound(params)
            quotient = extremal_quotient(space, params, xi)
            assert lead - bound - tol <= quotient <= lead
            assert quotient <= sharp + tol
    space = WeightedSpaceSpec(2, 0)  # window (0, 1) under (0, 0, 1)
    for xi in (0.0, -0.1, 1.0, 2.0):
        with pytest.raises(ParameterError, match="xi must lie"):
            ExtremalFamily(xi, space).correction_bound(P(0, 0, 1))


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


def test_growth_exponent_needs_nonzero_norms():
    with pytest.raises(ParameterError, match="nonzero norm"):
        growth_exponent(2, 2, 0, 0, P(0, 0, 1), f=func1d("0*ind(1,2)"))
    # x^300 underflows to 0 on the truncated window (0, 0.001/R]
    with pytest.raises(ParameterError, match="truncated image norm is zero"):
        growth_exponent(2, 2, 0, 0, P(300, 0, 301), cutoff=1e-3)


def test_codilating_norm_of_a_singular_source(monkeypatch):
    # int_0^10 |H f| dx for f = x^-0.9 ind(0,1) under (0.2, 0, 1.2): H f ~ x^-0.9
    # at 0, not x^alpha.  Reference: mpmath, x = u^10,
    # int_0^(10^0.1) 10 betainc(0.1, 1.1, 0, 1/(1+u^10)) du
    values = []
    real = quad.integrate_truncated

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        values.append(float(out))
        return out

    monkeypatch.setattr(quad, "integrate_truncated", recorded)
    growth_exponent(1, 1, 0, 0, P(0.2, 0, 1.2), f=func1d("x^(0-0.9)*ind(0,1)"),
                    R_grid=[1.0, 2.0])
    assert abs(values[0] - 120.2501842446051) <= 1e-10


def test_growth_exponent_probe_count(monkeypatch):
    # the README dilate command: H f is smooth at f's edges, so they do
    # not split the co-dilating window
    probes = []
    real = hilbert.apply_H_many

    def counted(params, f, xs, *args, **kwargs):
        out = real(params, f, xs, *args, **kwargs)
        probes.append(out.size)
        return out

    monkeypatch.setattr(hilbert, "apply_H_many", counted)
    assert growth_exponent(2, 2, 0, 0, P(0, 0, 2)) == pytest.approx(-1.0, abs=0.02)
    assert 0 < sum(probes) <= 3600


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
