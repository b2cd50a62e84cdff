"""Quadrature engine: closed-form oracles, hints, divergence signals."""

import math

import numpy as np
import pytest

from oplab import quad
from oplab.errors import AccuracyError, DivergenceError, DomainError, ParameterError
from oplab.funcdsl import Func2D, func2d
from oplab.quad import (
    SingularityHints,
    integrate_halfplane,
    integrate_interval,
    integrate_real_line,
    integrate_semiaxis,
    integrate_truncated,
)
from oplab.specfun import beta


def test_semiaxis_examples():
    got = integrate_semiaxis(lambda y: (1 + y) ** -2.0, SingularityHints(decay_exponent=2.0), 1e-10)
    assert float(got) == pytest.approx(1.0, rel=1e-10)

    got = integrate_semiaxis(lambda y: y ** -0.5 * (1 + y) ** -1.0,
                             SingularityHints(left_exponent=-0.5, decay_exponent=1.5), 1e-10)
    assert float(got) == pytest.approx(math.pi, rel=1e-10)

    got = integrate_semiaxis(lambda y: y ** 2 * (1 + y) ** -6.0,
                             SingularityHints(left_exponent=2.0, decay_exponent=4.0), 1e-10)
    assert float(got) == pytest.approx(beta(3.0, 3.0), rel=1e-10)  # = 1/30


def test_semiaxis_beta_oracle_property():
    rng = np.random.default_rng(42)
    tol = 1e-10
    for _ in range(100):
        m = rng.uniform(0.1, 10.0)
        n = rng.uniform(0.1, 10.0)
        got = integrate_semiaxis(lambda u: u ** (m - 1) * (1 + u) ** (-(m + n)),
                                 SingularityHints((), m - 1.0, n + 1.0), tol)
        assert abs(float(got) / beta(m, n) - 1.0) <= 10 * tol


def test_linearity():
    tol = 1e-10
    h1 = SingularityHints((), -0.5, 1.5)
    f = lambda y: y ** -0.5 * (1 + y) ** -1.0
    g = lambda y: (1 + y) ** -2.0
    combo = integrate_semiaxis(lambda y: 3.0 * f(y) - 2.0 * g(y), h1, tol)
    parts = 3.0 * integrate_semiaxis(f, h1, tol) - 2.0 * integrate_semiaxis(g, SingularityHints(decay_exponent=2.0), tol)
    assert float(combo) == pytest.approx(float(parts), rel=10 * tol)


def test_refinement_monotonicity_on_golden_set():
    # halving tol never worsens the discrepancy (up to a machine floor)
    golden = [
        (lambda y: y ** 2 * (1 + y) ** -6.0, SingularityHints((), 2.0, 4.0), beta(3, 3)),
        (lambda y: y ** -0.5 * (1 + y) ** -1.0, SingularityHints((), -0.5, 1.5), math.pi),
        (lambda y: (1 + y) ** -2.0, SingularityHints((), 0.0, 2.0), 1.0),
    ]
    for f, hints, exact in golden:
        prev = None
        for tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            err = abs(float(integrate_semiaxis(f, hints, tol)) / exact - 1.0)
            err = max(err, 5e-15)  # machine floor
            if prev is not None:
                assert err <= prev * (1.0 + 1e-9)
            prev = err


def test_near_critical_tail():
    # int_1^inf x^(-1-xi) dx = 1/xi: impossible for a plain 1/y inversion,
    # handled by the log tail plus power-law completion
    for xi in (0.1, 0.01, 1e-3):
        f = lambda y: np.where(y >= 1.0, y ** (-1.0 - xi), 0.0)
        got = integrate_semiaxis(f, SingularityHints((1.0,), 0.0, 1.0 + xi), 1e-10)
        assert float(got) == pytest.approx(1.0 / xi, rel=1e-10)


def test_breakpoint_splitting():
    f = lambda y: np.where((y >= 1.0) & (y <= 2.0), 1.0 / (1.0 + y), 0.0)
    got = integrate_semiaxis(f, SingularityHints((1.0, 2.0)), 1e-10)
    assert float(got) == pytest.approx(math.log(1.5), rel=1e-10)


def test_batch_payload():
    ms = np.array([0.5, 2.0, 3.0])

    def fb(u):
        return u[None, :] ** (ms[:, None] - 1.0) * (1 + u[None, :]) ** -5.0

    got = integrate_semiaxis(fb, SingularityHints((), -0.5, 3.0), 1e-10)
    expect = np.array([beta(0.5, 4.5), beta(2, 3), beta(3, 2)])
    assert np.allclose(got, expect, rtol=1e-10)


def test_divergence_signals():
    with pytest.raises(DivergenceError) as exc:
        integrate_semiaxis(lambda y: 1 / y, SingularityHints((), -1.0, 2.0))
    assert exc.value.endpoint == "origin"
    with pytest.raises(DivergenceError) as exc:
        integrate_semiaxis(lambda y: 1 / (1 + y), SingularityHints((), 0.0, 1.0))
    assert exc.value.endpoint == "infinity"


def test_truncated_entry_point():
    got = integrate_truncated(lambda y: np.ones_like(y), SingularityHints(), 3.7, 1e-10)
    assert float(got) == pytest.approx(3.7, rel=1e-12)
    # origin divergence still rejected
    with pytest.raises(DivergenceError):
        integrate_truncated(lambda y: y ** -1.2, SingularityHints((), -1.2, 2.0), 1.0)
    # but a divergent tail is fine below the cutoff
    got = integrate_truncated(lambda y: np.ones_like(y) / (1 + y),
                              SingularityHints((), 0.0, 1.0), 10.0, 1e-10)
    assert float(got) == pytest.approx(math.log(11.0), rel=1e-10)
    for cutoff in (0.0, math.inf):
        with pytest.raises(ParameterError, match="cutoff must be positive finite"):
            integrate_truncated(lambda y: np.ones_like(y), SingularityHints(), cutoff)


def test_interval_endpoint_singularity():
    got = integrate_interval(lambda y: y ** -0.5, 0.0, 1.0, 1e-12)
    assert float(got) == pytest.approx(2.0, rel=1e-12)


def test_real_line():
    got = integrate_real_line(lambda u: 1.0 / (u * u + 1.0), 1e-10, decay_exponent=2.0)
    assert float(got) == pytest.approx(math.pi, rel=1e-10)
    got = integrate_real_line(lambda u: np.exp(-u * u), 1e-10, breakpoints=(0.0,))
    assert float(got) == pytest.approx(math.sqrt(math.pi), rel=1e-10)
    with pytest.raises(DivergenceError):
        integrate_real_line(lambda u: 1.0 / (1 + abs(u)), decay_exponent=1.0)


def test_finite_support_is_the_interval_rule(monkeypatch):
    drives = []
    drive = quad._drive
    monkeypatch.setattr(quad, "_drive", lambda *args: drives.append(args[0]) or drive(*args))

    def f(u):
        return np.cos(u) * np.abs(u - 0.3) ** 0.5 * (np.abs(u - 1.0) <= 1.0)

    bps = (-3.0, 0.3, 5.0)
    # only breakpoints inside the support count; the end exponents are not consulted
    want = integrate_interval(f, 0.25, 2.0, 1e-12, breakpoints=bps)
    assert integrate_real_line(f, 1e-12, breakpoints=bps, decay_exponent=0.5,
                               support=(0.25, 2.0)) == want
    hints = SingularityHints((0.3, 5.0), left_exponent=-3.0, decay_exponent=0.5)
    assert integrate_semiaxis(f, hints, 1e-12, support=(0.25, 2.0)) == want
    assert len(drives) == 3
    # a support with one open end: the finite end is a knot, and only the
    # open end gets a mapped panel (on the half-line (0, c) is the truncated rule)
    hints = SingularityHints((0.3, 2.0), left_exponent=0.0)
    assert integrate_semiaxis(f, hints, 1e-12, support=(0.0, 2.0)) == integrate_truncated(f, hints, 2.0, 1e-12)
    tops = []

    def g(u):
        tops.append(float(np.max(u)))
        return f(u)

    got = integrate_real_line(g, 1e-12, breakpoints=(0.0, 0.3, 2.0), support=(-math.inf, 2.0))
    assert max(tops) <= 2.0
    assert got == pytest.approx(integrate_real_line(f, 1e-12, breakpoints=(0.0, 0.3, 2.0)), rel=1e-12)
    assert len(drives) == 7
    # an empty support, such as a zero function's (inf, -inf), keeps the whole axis
    zero = func2d("0*x*y")
    assert zero.u_support == zero.v_support == (math.inf, -math.inf)
    g = lambda y: np.exp(-y * y)
    assert integrate_semiaxis(g, hints, support=zero.v_support) == integrate_semiaxis(g, hints)
    assert integrate_real_line(g, breakpoints=bps, support=zero.u_support) == \
        integrate_real_line(g, breakpoints=bps)
    assert len(drives) == 11
    assert drives[-4] == drives[-3] and drives[-2] == drives[-1] and len(drives[-1]) >= 1


_ENTRY_POINTS = {
    "integrate_semiaxis": lambda f: integrate_semiaxis(f, SingularityHints((0.5,), decay_exponent=3.0)),
    "integrate_truncated": lambda f: integrate_truncated(f, SingularityHints((0.5,)), 2.0),
    "integrate_interval": lambda f: integrate_interval(f, 0.0, 2.0, breakpoints=(0.5,)),
    "integrate_real_line": lambda f: integrate_real_line(f, breakpoints=(0.5,), decay_exponent=3.0,
                                                         support=(-math.inf, 4.0)),
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_no_1d_entry_point_calls_another(monkeypatch, name):
    # perfbench counts quad.drives on these names: one call must be one drive
    drives = []
    drive = quad._drive
    monkeypatch.setattr(quad, "_drive", lambda *args: drives.append(1) or drive(*args))
    def other_entry_point(*args, **kwargs):
        pytest.fail(f"{name} called another entry point")

    for other in _ENTRY_POINTS:
        if other != name:
            monkeypatch.setattr(quad, other, other_entry_point)
    _ENTRY_POINTS[name](lambda y: np.exp(-y * y))
    assert len(drives) == 1


def _per_panel_nodes(panel, level):
    """One panel's nodes and weights at `level`, by the per-panel rule the
    level-major builder replaced: the reference it must match bit for bit."""
    near_left, d_left, d_right, w = quad._level_nodes(level)[:4]
    hw = 0.5 * (panel.b - panel.a)
    s = np.where(near_left, panel.a + hw * d_left, panel.b - hw * d_right)
    if panel.kind is None:
        return s, hw * w
    if panel.kind == "exp":
        x = panel.base * np.exp(panel.sign * s)
        jac = x
    else:
        x = panel.base + np.expm1(s) if panel.sign > 0 else panel.base - np.expm1(s)
        jac = np.exp(s)
    return x, hw * w * jac


def test_level_major_nodes_match_the_per_panel_rule(monkeypatch):
    drives = []
    drive = quad._drive
    monkeypatch.setattr(quad, "_drive", lambda panels, *args: drives.append(panels) or drive(panels, *args))
    f = lambda y: np.exp(-np.abs(y))
    hints = SingularityHints((0.5, 3.0))
    integrate_semiaxis(f, hints)
    integrate_semiaxis(f, hints, support=(0.25, 4.0))
    integrate_truncated(f, hints, 2.0)
    integrate_interval(f, -1.0, 2.0, breakpoints=(0.0, 0.5))
    integrate_real_line(f, breakpoints=(-1.0, 0.0, 2.0), decay_exponent=3.0)
    assert len(drives) == 5
    assert {(p.kind, p.sign) for panels in drives for p in panels} == {
        (None, 1.0), ("exp", 1.0), ("exp", -1.0), ("expm1", 1.0), ("expm1", -1.0)}
    for panels in drives:
        plan = quad._plan(panels)
        for level in range(11):
            x, w = quad._plan_nodes(plan, level)
            ref = [_per_panel_nodes(p, level) for p in panels]
            assert np.array_equal(x, np.concatenate([r[0] for r in ref]))
            assert np.array_equal(w, np.concatenate([r[1] for r in ref]))


def test_non_finite_values_off_the_fringe_raise():
    # under/overflow at nodes double-exponentially close to a panel end is zeroed
    f = lambda y: np.where(np.minimum(y, 1.0 - y) < 1e-200, np.inf, 1.0)
    assert float(integrate_interval(f, 0.0, 1.0, 1e-12)) == pytest.approx(1.0, rel=1e-12)
    # anywhere else it means the integrand is undefined there, batched or not
    g = lambda y: np.where(np.abs(y - 0.5) < 0.1, np.nan, 1.0)
    with pytest.raises(DomainError, match=r"integrand is nan at 0\.5,"):
        integrate_interval(g, 0.0, 1.0)
    with pytest.raises(DomainError, match="away from the ends"):
        integrate_semiaxis(lambda y: np.stack([np.exp(-y), g(y)]), SingularityHints((0.25, 1.0)))
    # and in a complex half-plane integrand, named by its non-finite part
    nan_box = Func2D(fn=lambda u, v: np.where((np.abs(u - 0.3) < 0.1) & (v > 1.0) & (v < 2.0),
                                              np.nan, 1j) * np.exp(-u * u - v),
                     u_breakpoints=(-1.0, 1.0), v_breakpoints=(1.0, 2.0))
    with pytest.raises(DomainError, match=r"integrand is nan at 0\.3"):
        integrate_halfplane(nan_box)
    # a fringe inf in one row of a batch is zeroed too
    got = integrate_interval(lambda y: np.stack([np.ones_like(y), f(y)]), 0.0, 1.0, 1e-12)
    assert np.allclose(got, 1.0, rtol=1e-12)
    # a mapped panel lies past the outermost knot, where the hints certify
    # the decay: inf*0 there (y^25 overflows, e^-y underflows) is zeroed
    tail = lambda y: y ** 25 * np.exp(-y)
    assert float(integrate_semiaxis(tail, SingularityHints(left_exponent=25.0, decay_exponent=math.inf))) \
        == pytest.approx(math.gamma(26), rel=1e-10)
    origin = lambda y: y ** -30 * np.exp(-1.0 / y)
    assert float(integrate_semiaxis(origin, SingularityHints(decay_exponent=30.0))) \
        == pytest.approx(math.gamma(29), rel=1e-10)


def _family_rows(u, n):
    k = np.arange(n)[:, None]
    return (1.0 + 0.1 * k) * (1.0 + (u - 0.05 * k) ** 2) ** -1.5


@pytest.mark.parametrize("dtype", [float, complex])
def test_a_row_integrates_alike_alone_and_in_a_batch(dtype):
    # every row converges at the first level that counts (tol 0.25), so the
    # batch and each row alone run the same levels over the same panels:
    # a BLAS reduction (vals @ w) would block the rows and break the bits
    n = 37
    phase = np.exp(0.3j * np.arange(n))[:, None] if dtype is complex else np.ones((n, 1))

    def family(u):
        return phase * _family_rows(u, n)

    kw = dict(breakpoints=(-1.0, 0.5, 2.0), decay_exponent=3.0)
    batch = integrate_real_line(family, 0.25, **kw)
    for i in range(n):
        alone = integrate_real_line(lambda u: family(u)[i], 0.25, **kw)
        assert batch[i] == alone
    rng = np.random.default_rng(5)
    for size in (1, 2, 3, 7, 16, 33, 100, 1001):
        vals, w = rng.standard_normal((n, size)).astype(dtype), rng.uniform(size=size)
        sums, masses = quad._row_sums(vals, w)
        for i in range(n):
            assert (sums[i], masses[i]) == quad._row_sums(vals[i], w)


def test_integrands_that_only_broadcast_against_the_nodes():
    assert float(integrate_interval(lambda y: 2.0, 0.0, 3.0)) == pytest.approx(6.0, rel=1e-14)
    got = integrate_interval(lambda y: np.array([[1.0], [-2.0]]), 0.0, 3.0)
    assert np.allclose(got, [3.0, -6.0], rtol=1e-14)
    slab = Func2D(fn=lambda u, v: 1.0, u_support=(-1.0, 1.0), v_support=(1.0, 2.0))
    assert float(integrate_halfplane(slab, 1e-8)) == pytest.approx(2.0, rel=1e-12)


def test_halfplane_examples():
    f1 = Func2D(fn=lambda u, v: (u * u + (1.0 + v) ** 2) ** -1.5,
                u_decay_exponent=3.0, v_decay_exponent=3.0)
    assert float(integrate_halfplane(f1, 1e-6)) == pytest.approx(2.0, rel=1e-6)

    # iterating the row integral then the half-line formula:
    # B(1/2,2) * int v (1+v)^-4 dv = (4/3) * B(2,2) = 4/18 = 2/9
    f2 = Func2D(fn=lambda u, v: v * (u * u + (1.0 + v) ** 2) ** -2.5,
                u_decay_exponent=5.0, v_left_exponent=1.0, v_decay_exponent=4.0)
    assert float(integrate_halfplane(f2, 1e-6)) == pytest.approx(2.0 / 9.0, rel=1e-6)

    zero = Func2D(fn=lambda u, v: np.zeros(np.broadcast(u, v).shape),
                  u_breakpoints=(-1.0, 1.0), v_breakpoints=(1.0, 2.0))
    assert float(integrate_halfplane(zero, 1e-6)) == 0.0


@pytest.mark.parametrize("case", ["f1", "f2", "complex-8", "complex-10", "slab"])
def test_halfplane_examples_match_the_lockstep_drive(case):
    # values of the inner drive that refined every v row to the level of the
    # hardest one: retiring the rows whose weighted change is below rounding
    # keeps each part within 1e-14 relative, or where it cancels to 0 within
    # 1e-16 of the |f| mass (2 for the complex example, whose integral is 0)
    cancelling = Func2D(fn=lambda u, v: (1j / (u + 1j * (np.asarray(v) + 1.0))) ** 3,
                        u_decay_exponent=3.0, v_decay_exponent=3.0)
    f, tol, want, zero = {
        "f1": (Func2D(fn=lambda u, v: (u * u + (1.0 + v) ** 2) ** -1.5, u_decay_exponent=3.0,
                      v_decay_exponent=3.0), 1e-6, 2.000000004316411, 0.0),
        "f2": (Func2D(fn=lambda u, v: v * (u * u + (1.0 + v) ** 2) ** -2.5, u_decay_exponent=5.0,
                      v_left_exponent=1.0, v_decay_exponent=4.0), 1e-6, 0.22222222223325744, 0.0),
        "complex-8": (cancelling, 1e-8, -4.284964081730569e-14 + 5.2129296044059663e-17j, 2e-16),
        "complex-10": (cancelling, 1e-10, -1.467583920118371e-14 + 7.621909442527656e-17j, 2e-16),
        "slab": (Func2D(fn=lambda u, v: 1.0, u_support=(-1.0, 1.0), v_support=(1.0, 2.0)), 1e-8, 2.0, 0.0),
    }[case]
    got = complex(integrate_halfplane(f, tol))
    for g, w in ((got.real, want.real), (got.imag, want.imag)):
        assert abs(g - w) <= max(1e-14 * abs(w), zero)


def test_halfplane_divergence_guards():
    bad = Func2D(fn=lambda u, v: np.broadcast_to(1.0, np.broadcast(u, v).shape),
                 u_decay_exponent=3.0, v_left_exponent=-1.0, v_decay_exponent=3.0)
    with pytest.raises(DivergenceError):
        integrate_halfplane(bad)
    bad2 = Func2D(fn=lambda u, v: np.broadcast_to(1.0, np.broadcast(u, v).shape),
                  u_decay_exponent=0.5, v_left_exponent=0.0, v_decay_exponent=3.0)
    with pytest.raises(DivergenceError):
        integrate_halfplane(bad2)


def test_complex_integrand():
    f = Func2D(fn=lambda u, v: (1j / (u + 1j * (np.asarray(v) + 1.0))) ** 3,
               u_decay_exponent=3.0, v_decay_exponent=3.0)
    val = integrate_halfplane(f, 1e-8)
    assert isinstance(complex(val), complex)
    # independent check: inner integral has the closed form of a residue
    # computation; just require self-consistency across tolerances
    val2 = integrate_halfplane(f, 1e-10)
    assert abs(complex(val) - complex(val2)) <= 1e-7


def test_accuracy_error_budget():
    # an integrand with a hidden interior feature the hints do not declare
    f = lambda y: 1.0 / ((y - math.pi) ** 2 + 1e-24)
    with pytest.raises(AccuracyError):
        integrate_semiaxis(f, SingularityHints((), 0.0, 2.0), 1e-13)


def test_hint_validation():
    with pytest.raises(ParameterError):
        SingularityHints((-1.0,))
    with pytest.raises(ParameterError):
        SingularityHints((math.inf,))
    with pytest.raises(ParameterError):
        integrate_interval(lambda y: y, 2.0, 1.0)


def test_log_grid_sup_raises_on_a_nan_between_grid_points():
    # the NaN window around the peak holds no grid point; the refinement reaches it
    def bump(x):
        return np.where(np.abs(x - 1.01) < 1e-4, np.nan, 1.0 / (1.0 + np.log(x / 1.01) ** 2))

    assert not np.isnan(bump(np.geomspace(1e-6, 1e6, 481))).any()
    with pytest.raises(DomainError, match=r"function is nan at 1\.010"):
        quad.log_grid_sup(bump, 1e-6, 1e6, 481, 90)
