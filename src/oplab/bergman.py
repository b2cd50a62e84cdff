"""Positive and complex Bergman-type operators on the upper half-plane.

For z = x+iy, w = u+iv with y, v > 0 the operators are

    T+ f(z) = y^alpha * integral f(w) v^beta |z - conj(w)|^-(1+gamma) du dv
    T  f(z) = y^alpha * integral f(w) v^beta (z - conj(w))^-(1+gamma) du dv

and the weighted Bergman projection is

    P_nu f(z) = c_nu * integral f(w) (z - conj(w))^-(2+nu) v^nu du dv,
    c_nu = 2^nu / pi * (nu+1) * i^(2+nu).

Since z - conj(w) = (x-u) + i(y+v) always has positive imaginary part,
the principal branch of the complex power is smooth over the whole
integration domain; that is the single branch convention used here, and
it pins the phase of c_nu through the reproducing property (at nu = 0
the constant is the classical -1/pi).  At every power s it is evaluated
in real arithmetic as the T+ modulus times a phase,

    (z - conj(w))^-s = r2^(-s/2) e^(-i s theta),
    r2 = (x-u)^2 + (y+v)^2,  theta = atan2(y+v, x-u) in (0, pi),

the phase through its half-angle tangent.

The module provides mixed norms on L^{p,q}_nu (inner L^p in x, outer
weighted L^q in y, with the sup-over-y convention at q = inf), kernel
row integrals J_alpha(y) = B(1/2,(alpha-1)/2) y^(1-alpha), operator
application (over u in closed form for a separable source, T and P_nu
by residues for a source rational in u, else by iterated 2D
quadrature), boundedness verdicts for the
mixed-norm criteria and the projection corollaries, the exact norms

    ||T+||_{Linf -> Linf} = B(1/2, gamma/2) B(beta+1, alpha)
    ||T+||_{L1_a -> L1_a} = B(1/2, gamma/2) B(beta-a, alpha+a+1)

in the diagonal endpoint cases gamma = alpha+beta+1, the slicewise
reduction inequality

    ||(T+ f)_y||_{L^p(dx)} <= B(1/2, gamma/2) * H(v -> ||f_v||_p)(y)

that transfers half-line boundedness to the half-plane, and numerical
checks of the reproducing identity P_nu f = f on holomorphic probes.
The verdicts and the exact norms are closed forms; they live in
oplab.theory, which needs no numpy, and are re-exported here.

The T+ criteria on the covered regimes are the half-line criteria at
the outer exponents (theory.sup_criteria, to_sup_criteria,
finite_criteria), which is what the reduction inequality transfers; the
mixed norm is the half-line L^q_nu norm of the slice norms
v -> ||f_v||_p at every q, at q = inf the half-line L^inf norm and its
log-grid scan.  The quadratures over a source f (T+, T, P_nu, mixed
norms, both sides of the reduction check) integrate f only over its
supports (Func2D.u_support / v_support, the support= of the quad
integrators): the kernels are finite and nonzero, so a box, slab or
one-sided source spends no nodes where it vanishes.  T+, T, P_nu and
each level of the reduction's x drive (_tplus_slice, its abscissae a
batch axis) are one _kernel_integral, whose |f| mass scales the
tolerance: sign changes converge.

A source f = g(u) h(v) whose u factor g is a sum of constant steps
c ind(lo, hi) (Func2D.u_steps and v_factor: boxes, slabs, one-sided
sources, the constant 1 of the column integral) is integrated over u in
closed form, s = (u - x)/(y + v) (_separable_integral).  A whole-line
step gives T+ the row integral B(1/2, gamma/2) (y+v)^-gamma, so T+ of a
slab is B(1/2, gamma/2) H h(y) through apply_H, closed form for a piece
sum h, and it gives T and P_nu exactly 0 (their kernels are holomorphic
in w with power above 1).  Every other step runs one integrate_semiaxis
over v: its u integral is the incomplete Beta difference
Psi(s2) - Psi(s1) for T+ (_psi_difference, a Horner sum over
hilbert._series's tables) and [(i - s)^(1-k)]/(k-1) for T and P_nu, or
an 8-point Gauss-Legendre rule of the kernel on a segment narrow against
its distance to the kernel's peak (_step_integral).  A kernel power
k <= 1 (gamma <= 0 for T+ and T), where a whole-line step diverges, and
a T+ gamma above about 7, where Psi differences would cancel, keep
the 2D quadrature.

T and P_nu of a source whose u dependence is rational (Func2D.u_poles:
func2d's partial fractions of a rational g at its poles below the real
line, or the reproducing probe's pole -i(v+t) of order m) run the same v
drive with the u integral by residues (_residue_integral): the kernel
(x - u + i(y+v))^-k is holomorphic in u below the real line, so closing
the u line there leaves -2 pi i times the residues at those poles.  The
v integral stays a drive, so that reproduce_check remains a numerical
check of the reproducing identity: it is within 1e-13 of (i/(z+i))^m
from nu = 0 to 950, and T of an algebraic source such as
(1+x^2)^-1 y^0.5 e^-y is right at every |x| (within 2.3e-15 of the
residue form at 1e6).  T+ of such a source, whose kernel is not
holomorphic, keeps the 2D quadrature.

The 2D quadrature runs one quad.integrate_halfplane of a _compose_kernel
integrand.  A source that lives on the whole u line with no u knots
(_centred, such as T+ of an algebraic source) integrates over the kernel's
angle e = arccot s instead of u.  Then z - conj(w) = (y+v)(i - s) and
|i - s| = 1/|sin e|, so the kernel is a fixed profile of e times
(y+v)^(1-k), evaluated once per row of e nodes and shared by every v.
The s line becomes the finite interval [-pi/2, pi/2]: both of its ends
sit at the knot e = 0, where tanh-sinh clusters its nodes, and s = 0 at
the smooth ends, so the drive needs no mapped tail and no power-law
completion; a power substitution keeps near-critical decays bounded
(_centred_integrand).  A source with a finite u support or u knots keeps
the u rule, since its knots would move with v in e.  Far from an
algebraically decaying source its peak at s = -x/(y+v) is narrower than
the nodes there: the drives raise AccuracyError over a range of |x| (60
to 1e5 for T+ of the README's example), and beyond it they miss the peak
without noticing; a Gaussian source is missed from about |x| = 1e4.
Sources rational in u leave this fault behind for T and P_nu only.

All operations are pure; probe grids and quadratures may be evaluated
concurrently and merged in input order.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import quad
from .errors import DivergenceError, DomainError, ParameterError
from .funcdsl import Const, Func1D, Func2D, func2d
from .hilbert import _SERIES_COND, _series, apply_H, weighted_lp_norm
from .quad import SingularityHints
from .specfun import beta as beta_fn
from .theory import (BergmanVerdictRequest, MixedNormSpec, OperatorParams, WeightedSpaceSpec,
                     bergman_verdict, tplus_exact_norm)

__all__ = [
    "HalfPlanePoint", "MixedNormSpec", "BergmanVerdictRequest",
    "kernel_row_integral", "mixed_norm", "apply_Tplus", "apply_T",
    "bergman_project", "bergman_constant", "reduction_bound_check",
    "column_integral", "bergman_verdict", "tplus_exact_norm",
    "reproducing_probe", "reproduce_check", "default_probe_grid",
]


@dataclass(frozen=True)
class HalfPlanePoint:
    """A point z = x + iy of the upper half-plane (y > 0)."""

    x: float
    y: float

    def __post_init__(self):
        if not (self.y > 0.0 and math.isfinite(self.y) and math.isfinite(self.x)):
            raise ParameterError(f"need finite x and y > 0, got x={self.x}, y={self.y}")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)

    @classmethod
    def of(cls, z) -> "HalfPlanePoint":
        if isinstance(z, HalfPlanePoint):
            return z
        z = complex(z)
        return cls(z.real, z.imag)


def default_probe_grid() -> list[HalfPlanePoint]:
    """The default 3x3 probe grid y in {1/2, 1, 2} x x in {-1, 0, 1}."""
    return [HalfPlanePoint(x, y) for y in (0.5, 1.0, 2.0) for x in (-1.0, 0.0, 1.0)]


# --------------------------------------------------------------------------
# kernel integrals and norms
# --------------------------------------------------------------------------

def kernel_row_integral(alpha: float, y: float) -> float:
    """J_alpha(y) = int_R |x+iy|^-alpha dx = B(1/2, (alpha-1)/2) y^(1-alpha).

    Diverges for alpha <= 1 (DivergenceError); the closed form is
    cross-checked against direct quadrature in the test suite.
    """
    if not y > 0.0:
        raise DomainError(f"y must be positive, got {y}")
    if not alpha > 1.0:
        raise DivergenceError(
            f"row integral diverges for alpha = {alpha} <= 1", endpoint="u-infinity")
    return beta_fn(0.5, (alpha - 1.0) / 2.0) * y ** (1.0 - alpha)


def _slice_norm(f: Func2D, p: float, tol: float) -> Func1D:
    """v -> || f_v ||_{L^p(du)} as a Func1D with f's v hints; the finite
    positive ends of f's v support join the breakpoints, so the q = inf
    scan covers the support."""
    def fn(v):
        vcol = v[:, None]
        vals = quad.integrate_real_line(
            lambda u: np.abs(f(u[None, :], vcol)) ** p, tol, breakpoints=f.u_breakpoints,
            decay_exponent=p * f.u_decay_exponent, support=f.u_support)
        return np.asarray(vals) ** (1.0 / p)

    ends = tuple(v for v in f.v_support if 0.0 < v < math.inf)
    return Func1D(fn=fn, breakpoints=f.v_breakpoints + ends,
                  left_exponent=f.v_left_exponent, decay_exponent=f.v_decay_exponent)


def mixed_norm(f: Func2D, spec: MixedNormSpec, tol: float = quad.DEFAULT_TOL_2D) -> float:
    """||f||_{p,q,nu} = (int_0^inf (int_R |f|^p dx)^{q/p} y^nu dy)^{1/q},
    the half-line L^q_nu norm (weighted_lp_norm) of the slice norms, with
    the sup-over-y convention when q = inf: the half-line L^inf norm, inf
    when f's v hint exponents say the slice norms are unbounded and
    otherwise its log-grid scan, a heuristic lower bound."""
    p, q, nu = spec.p, spec.q, spec.nu
    if math.isinf(p):
        raise ParameterError("p = inf mixed norms are not supported; use pointwise sup checks")
    return weighted_lp_norm(_slice_norm(f, p, max(tol / 20.0, 1e-13)), WeightedSpaceSpec(q, nu), tol)


# --------------------------------------------------------------------------
# operator application
# --------------------------------------------------------------------------

def _phase(t, s: float):
    """e^(-i s theta) for an array t holding theta, which it overwrites.

    numpy's complex power would call a scalar cpow per element, so the
    phase e^(i phi), phi = -s theta, goes through the half-angle tangent
    t = tan(phi/2), e^(i phi) = ((1 - t^2) + 2it) / (1 + t^2), written in
    place: one tan costs less than a sin and a cos (numpy 2's AVX-512
    float64 tan is vectorised, its sin and cos are scalar loops); t stays
    finite, and each part is within a few ulp of |e^(i phi)| = 1.
    """
    t *= -s / 2.0
    np.tan(t, out=t)
    out = np.empty(t.shape, dtype=complex)
    np.multiply(t, 2.0, out=out.imag)
    np.square(t, out=t)
    np.subtract(1.0, t, out=out.real)
    t += 1.0
    out.real /= t
    out.imag /= t
    return out


def _kernel(du, dv, s: float, complex_kernel: bool, v=None, weight: float = 0.0):
    """v^weight |du + i dv|^-s, or with complex_kernel v^weight times the
    principal (du + i dv)^-s, for du = x-u and dv = y+v > 0 broadcasting to
    the kernel's shape: the modulus in a real buffer written in place,
    times the _phase of theta = atan2(dv, du) in (0, pi).

    The weight (v^beta or v^nu of _compose_kernel) joins the modulus's base
    as v^(-2 weight/s): formed apart, v^weight overflows at tail nodes
    (v ~ 1e13) where the modulus underflows, and inf * 0 is NaN.  At s = 0
    the modulus is 1 and v^weight all of it.
    """
    if complex_kernel:
        t = np.asarray(np.arctan2(dv, du))
        out = _phase(t, s)
        modulus = np.add(du ** 2, dv ** 2, out=t)
    else:
        modulus = np.add(du ** 2, dv ** 2)
    if weight and s:
        modulus *= v ** (-2.0 * weight / s)
    np.power(modulus, -s / 2.0, out=modulus)
    if weight and not s:
        modulus *= v ** weight
    if not complex_kernel:
        return modulus
    out *= modulus
    return out


def _kernel_hints(f: Func2D, kernel_power: float, weight: float) -> tuple[float, SingularityHints]:
    """The u decay exponent and the v hints of
    f(w) v^weight |z - conj(w)|^(-kernel_power): the kernel adds
    kernel_power to both decays and the weight shifts the v exponents.
    Against a source whose u decay tau_u is below 1 the u integral keeps
    (y+v)^(1 - tau_u) of the kernel's (y+v)^-kernel_power, so the v decay
    is kernel_power - weight + tau_v - max(0, 1 - tau_u)."""
    v_hints = SingularityHints(
        f.v_breakpoints,
        f.v_left_exponent + weight,
        f.v_decay_exponent - weight + kernel_power - max(0.0, 1.0 - f.u_decay_exponent),
    )
    return f.u_decay_exponent + kernel_power, v_hints


def _centred(f: Func2D) -> bool:
    """Whether the u integral of f against a kernel runs in the
    kernel-centred angle coordinate of _centred_integrand: f lives on the
    whole u line with no u knots, which would move with v there."""
    return f.u_support == (-math.inf, math.inf) and not f.u_breakpoints


def _centred_integrand(f: Func2D, x, y: float, kernel_power: float, weight: float,
                       complex_kernel: bool, m: float):
    """(r, v) -> the integrand f(w) v^weight (z - conj(w))^-k du, k =
    kernel_power, over the angle e = sign(r) |r|^m = arccot s of the
    kernel's own coordinate s = (u - x)/d, d = y+v, for r in
    [-(pi/2)^(1/m), (pi/2)^(1/m)].

    With u = x + d cot e, z - conj(w) = d (i - s), |i - s| = 1/|sin e| and
    du = d csc^2 e de, so the integrand is f(u, v) v^weight d^(1-k) times
    the profile |sin e|^(k-2) e^(-ik arg(i - s)), arg = pi - e for e > 0 and
    -e for e < 0, and de = m |r|^(m-1) dr.  Both ends of the s line sit at
    the knot r = 0, where tanh-sinh clusters its nodes, and s = 0 at the
    smooth ends r = +-(pi/2)^(1/m).  A source decaying like |u|^-tau_u makes
    the integrand ~ |e|^(tau - 2), tau = tau_u + k; m = max(1, 1/(tau - 1))
    makes it bounded in r, as the profile written
    m |r|^(m(k-1)-1) (sin e/e)^(k-2) shows: it stays finite where e
    underflows.

    The profile and cot e live on the r nodes alone, computed once for
    each level's row, which every inner drive of the integrand meets
    again; the factor (v/d)^weight d^(1+weight-k) lives on the v nodes
    alone.  x may be an array broadcasting against r and v (a batch of
    points).  A full block that f returns as its own array takes both
    factors in place; a result that only broadcasts keeps the out-of-place
    product."""
    k = kernel_power
    rows = {}   # (cot e, profile) by the bytes of the r row

    def row(r):
        key = r.tobytes()
        if key not in rows:
            e = np.copysign(np.abs(r) ** m, r)
            profile = m * np.abs(r) ** (m * (k - 1.0) - 1.0) * np.sinc(e / math.pi) ** (k - 2.0)
            if complex_kernel:
                profile = profile * _phase(np.where(r > 0.0, math.pi - e, -e), k)
            rows[key] = 1.0 / np.tan(e), profile
        return rows[key]

    def fn(r, v):
        cot, profile = row(r)
        d = y + v
        scale = (v / d) ** weight * d ** (1.0 + weight - k)
        u = x + d * cot
        vals = np.asarray(f(u, v))
        own = vals.flags.owndata and vals.shape == u.shape and vals.dtype == np.result_type(vals, profile)
        out = vals if own else None
        return np.multiply(np.multiply(vals, scale, out=out), profile, out=out)
    return fn


def _compose_kernel(f: Func2D, x, y: float, kernel_power: float, weight: float,
                    complex_kernel: bool) -> Func2D:
    """f(w) * v^weight * (z - conj(w))^(-kernel_power) at z = x + iy with
    combined hints, over (u, v), or over (r, v) when f is _centred; the
    kernel factors are finite and nonzero, so f's supports carry over.  A
    float x is a u knot; a batch of abscissae, axes before (v, u), is not.
    A _centred source needs a u decay tau > 1 of the integrand, as the
    whole u line does."""
    u_decay, v_hints = _kernel_hints(f, kernel_power, weight)
    u_support = f.u_support
    if _centred(f):
        if not u_decay > 1.0:
            raise DivergenceError(f"real-line integral diverges: decay exponent {u_decay} <= 1",
                                  endpoint="u-infinity")
        m = max(1.0, 1.0 / (u_decay - 1.0))
        fn = _centred_integrand(f, x, y, kernel_power, weight, complex_kernel, m)
        reach = (math.pi / 2.0) ** (1.0 / m)
        u_breakpoints, u_support = (0.0,), (-reach, reach)
    else:
        def fn(u, v):
            return f(u, v) * _kernel(x - u, y + v, kernel_power, complex_kernel, v, weight)
        u_breakpoints = tuple(sorted({*f.u_breakpoints, x})) if np.ndim(x) == 0 else f.u_breakpoints
    return Func2D(
        fn=fn,
        u_breakpoints=u_breakpoints,
        v_breakpoints=v_hints.breakpoints,
        u_decay_exponent=u_decay,
        v_left_exponent=v_hints.left_exponent,
        v_decay_exponent=v_hints.decay_exponent,
        u_support=u_support,
        v_support=f.v_support,
    )


# the 8-point Gauss-Legendre rule on [-1, 1], numpy.polynomial.legendre.leggauss(8)
# written out, so that importing bergman does not import numpy.polynomial (~4 ms)
_GL_NODES = np.array([0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GL_NODES = np.concatenate([-_GL_NODES[::-1], _GL_NODES])
_GL_WEIGHTS = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166])
_GL_WEIGHTS = np.concatenate([_GL_WEIGHTS, _GL_WEIGHTS[::-1]])


@functools.lru_cache(maxsize=16)
def _psi_tables(gamma: float) -> tuple | None:
    """The rows of hilbert._series for the pairs (1/2, gamma/2) and
    (gamma/2, 1/2), sized for z <= 1/2, over -(a+n) and in Horner order
    (last row first), as float lists.  None where no row count is enough,
    or where B(1/2, gamma/2) = B_{1/2}(1/2, gamma/2) + B_{1/2}(gamma/2, 1/2)
    exceeds _SERIES_COND times the second, the tail beyond |s| = 1: a
    difference of Psi values could cancel by more (gamma above about 7)."""
    tables, halves = [], []
    for a, b in ((0.5, gamma / 2.0), (gamma / 2.0, 0.5)):
        series = _series([a], [b])
        if series.reach[0, -1] < 0.5:
            return None
        rows = series.scaled[:, 0]
        halves.append(-(0.5 ** a) * (rows @ 0.5 ** np.arange(rows.size)))
        tables.append(rows[::-1].tolist())
    return tuple(tables) if sum(halves) <= _SERIES_COND * halves[1] else None


def _psi_difference(s1: np.ndarray, s2: np.ndarray, gamma: float, psi: tuple) -> np.ndarray:
    """Psi(s2) - Psi(s1), Psi(s) = int_0^s (1+t^2)^-(1+gamma)/2 dt.

    For |s| <= 1, Psi(s) = sign(s) B_W(1/2, gamma/2)/2, W = s^2/(1+s^2)
    <= 1/2; beyond, sign(s) (B(1/2, gamma/2) - B_z(gamma/2, 1/2))/2,
    z = 1/(1+s^2) <= 1/2, formed as r^2/(1+r^2), r = 1/s, so that s = +-inf
    gives z = 0.  psi is B(1/2, gamma/2) and the _psi_tables: each Beta
    pair sums the W or z of both ends by Horner, B_z(a, b) =
    -z^a sum rows_n z^n.  Two ends in one tail subtract their B_z directly."""
    whole, *tables = psi
    s = np.concatenate([s1, s2])
    inner = np.abs(s) <= 1.0
    t = np.square(np.where(inner, s, 1.0 / s))
    t /= 1.0 + t
    q = np.empty(s.size)
    for part, rows, a in ((inner, tables[0], 0.5), (~inner, tables[1], gamma / 2.0)):
        z = t[part]
        total = np.zeros(z.shape)
        for c in rows:
            total *= z
            total += c
        q[part] = -(z ** a) * total
    ends = np.copysign(0.5, s) * np.where(inner, q, whole - q)
    m = s1.size
    same_tail = ~inner[:m] & ~inner[m:] & (np.sign(s1) == np.sign(s2))
    return np.where(same_tail, np.copysign(0.5, s1) * (q[:m] - q[m:]), ends[m:] - ends[:m])


def _step_integral(x, d, lo: float, hi: float, kernel_power: float, complex_kernel: bool,
                   psi) -> np.ndarray:
    """int_lo^hi (x - u + i d)^-k du / d^(1-k) = int_{s1}^{s2} (i - s)^-k ds,
    k = kernel_power and s = (u - x)/d, or the integral of its modulus,
    for arrays x and d > 0 of one shape.

    The width s2 - s1 = (hi - lo)/d is formed, never the difference of s
    values.  A segment narrower than max(|mid s|, 1)/max(8, k) takes an
    8-point Gauss-Legendre rule of _kernel: the branch points s = +-i lie
    beyond the Bernstein ellipse of ratio 16, and a large power k cannot
    make the kernel vary by more than e^(1/2) over the segment.  A wider
    segment takes the antiderivative: _psi_difference for the modulus,
    [(i - s)^(1-k)]/(k-1) through _kernel for the complex power."""
    k = kernel_power
    s1, s2, width = (lo - x) / d, (hi - x) / d, (hi - lo) / d
    mid = (0.5 * lo + 0.5 * hi - x) / d
    narrow = width < np.maximum(np.abs(mid), 1.0) / max(8.0, k)
    out = np.empty(x.shape, dtype=complex if complex_kernel else float)
    if narrow.any():
        half = 0.5 * width[narrow]
        nodes = mid[narrow][:, None] + half[:, None] * _GL_NODES
        out[narrow] = half * np.einsum("...k,k->...", _kernel(-nodes, 1.0, k, complex_kernel), _GL_WEIGHTS)
    wide = ~narrow
    if narrow.all():
        return out
    if complex_kernel:
        ends = [_kernel(-s[wide], 1.0, k - 1.0, True) for s in (s1, s2)]
        out[wide] = (ends[1] - ends[0]) / (k - 1.0)
    else:
        out[wide] = _psi_difference(s1[wide], s2[wide], k - 1.0, psi)
    return out


def _residue_integral(x, d, v, kernel_power: float, poles: tuple) -> tuple:
    """int g(u) (x - u + i d)^-k du / d^(1-k), k = kernel_power, for the
    pole terms A (u - p + i s v)^-j of g (Func2D.u_poles), and the sum of
    its terms' moduli, for a column x and rows d > 0 and v of one shape.

    The kernel is holomorphic in u below the real line (its branch point
    u = x + i d lies above), so closing the u line below gives -2 pi i
    times the residues at the lower poles q = p - i s v, A (k)_(j-1)/(j-1)!
    (x - q + i d)^(1-k-j); a pole above contributes nothing.  In the
    kernel's scale d each term is d^-j times the _kernel power k + j - 1 of
    ((x - Re p) + i (d + s v - Im p))/d, whose imaginary part is at least
    1, so that no factor over- or underflows where the term does not."""
    k = kernel_power
    value = mass = 0.0
    for p, s, j, a in poles:
        rising = math.prod((k + i) / (i + 1.0) for i in range(j - 1))   # (k)_(j-1) / (j-1)!
        part = _kernel((x - p.real) / d, (d + s * v - p.imag) / d, k + j - 1.0, True)
        part *= (-2j * math.pi * a * rising) * d ** -float(j)
        value, mass = value + part, mass + np.abs(part)
    return value, mass


def _separable_integral(f: Func2D, xs: np.ndarray, y: float, kernel_power: float, weight: float,
                        complex_kernel: bool, tables, tol: float) -> np.ndarray:
    """The integral of _kernel_integral at the abscissae xs (1-D) for a
    source with a v_factor h and u_steps, k = kernel_power > 1, or, for T
    and P_nu, u_poles.

    A whole-line step c contributes c B(1/2, (k-1)/2) (y+v)^(1-k) to the u
    integral of the modulus, so c B(1/2, (k-1)/2) H h(y) in all, H with
    (0, weight, k-1) through apply_H (closed form for a piece sum h), and
    exactly 0 to the u integral of the complex power.  The other steps, or
    the poles, run one integrate_semiaxis over v of their u form times
    h(v) (v/d)^weight d^(1+weight-k), d = y+v: the sum of c _step_integral
    over the steps, or the _residue_integral.  It runs in blocks of at most
    quad._BLOCK_ELEMENTS (x, v) values, with the sum of the moduli of the
    u form's terms as the mass channel that scales the tolerance
    (_channel_magnitude), so that cancelling terms converge.  The v hints
    of poles are h's, with the u integral's decay k + j - 1 at the lowest
    order j, also where a pole moves with v."""
    k, h = kernel_power, f.v_factor
    out = np.zeros(xs.shape, dtype=complex if complex_kernel else float)
    if complex_kernel and f.u_poles is not None:
        lowest = min(j for _, _, j, _ in f.u_poles)
        v_hints = SingularityHints(h.breakpoints, h.left_exponent + weight,
                                   h.decay_exponent - weight + k + lowest - 1.0)

        def u_form(x, d, v):
            return _residue_integral(x, d, v, k, f.u_poles)
    else:
        whole = sum(c for c, lo, hi in f.u_steps if (lo, hi) == (-math.inf, math.inf))
        steps = [(c, lo, hi) for c, lo, hi in f.u_steps if (lo, hi) != (-math.inf, math.inf)]
        v_hints = _kernel_hints(f, k, weight)[1]
        line = None if complex_kernel else beta_fn(0.5, (k - 1.0) / 2.0)
        psi = tables and (line, *tables)
        if whole and not complex_kernel:
            out += whole * line * apply_H(OperatorParams(0.0, weight, k - 1.0), h, y, tol)
        elif not steps:   # where the v integral diverges, as the half-plane drive would say
            quad._support_plan(f.v_support, 0.0, v_hints.breakpoints, v_hints.left_exponent,
                               v_hints.decay_exponent)
        if not steps:
            return out

        def u_form(x, d, v):
            x, d = np.broadcast_arrays(x, d)
            value, mass = 0.0, 0.0
            for c, lo, hi in steps:
                part = _step_integral(x, d, lo, hi, k, complex_kernel, psi)
                value, mass = value + c * part, mass + abs(c) * np.abs(part)
            return value, mass

    def integrand(v):
        d = y + v
        hv = h(v) * (v / d) ** weight * d ** (1.0 + weight - k)
        rows = max(1, quad._BLOCK_ELEMENTS // v.size)
        for start in range(0, xs.size, rows):
            value, mass = u_form(xs[start:start + rows, None], d, v)
            yield np.stack([value * hv, mass * np.abs(hv)])

    return out + quad.integrate_semiaxis(integrand, v_hints, tol, support=f.v_support,
                                         magnitude=quad._channel_magnitude)[0]


def _kernel_integral(f: Func2D, x, y: float, kernel_power: float, weight: float,
                     complex_kernel: bool, tol: float):
    """int f(w) v^weight (z - conj(w))^(-kernel_power) du dv at z = x+iy,
    or with the modulus |z - conj(w)| when not complex_kernel, for a float
    x or a 1-D batch of abscissae (the result has x's shape).

    Over u in closed form (_separable_integral): T and P_nu of a source
    with u_poles whose u integral converges (u decay plus kernel_power
    above 1), by residues, and a source with u_steps whose u integrals
    converge (kernel_power > 1) and whose finite steps, under the modulus,
    have well-conditioned _psi_tables.  Every other source runs one
    quad.integrate_halfplane of _compose_kernel, which raises the
    DivergenceError of a whole-line step at kernel_power <= 1."""
    k = kernel_power
    residues = complex_kernel and f.u_poles is not None and f.u_decay_exponent + k > 1.0
    finite = any((lo, hi) != (-math.inf, math.inf) for _, lo, hi in f.u_steps or ())
    tables = _psi_tables(k - 1.0) if finite and not complex_kernel and k > 1.0 else None
    closed = f.u_steps is not None and k > 1.0 and not (finite and not complex_kernel and tables is None)
    if not (residues or closed):
        integrand = _compose_kernel(f, x if np.ndim(x) == 0 else x[:, None, None], y, k, weight,
                                    complex_kernel)
        return quad.integrate_halfplane(integrand, tol)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    with np.errstate(all="ignore"):
        out = _separable_integral(f, xs, y, k, weight, complex_kernel, tables, tol)
    return out.reshape(np.shape(x))


def apply_Tplus(params: OperatorParams, f: Func2D, z, tol: float = quad.DEFAULT_TOL_2D) -> float:
    """T+ f(z) by iterated quadrature (inner over u, outer over v), or over
    u in closed form for a source with u_steps (_kernel_integral)."""
    z = HalfPlanePoint.of(z)
    integral = _kernel_integral(f, z.x, z.y, 1.0 + params.gamma, params.beta, False, tol)
    return z.y ** params.alpha * float(integral)


def apply_T(params: OperatorParams, f: Func2D, z, tol: float = quad.DEFAULT_TOL_2D) -> complex:
    """T f(z); the kernel power uses the principal branch, which is
    well-defined since Im(z - conj(w)) = y + v > 0."""
    z = HalfPlanePoint.of(z)
    integral = _kernel_integral(f, z.x, z.y, 1.0 + params.gamma, params.beta, True, tol)
    return z.y ** params.alpha * complex(integral)


def bergman_constant(nu: float) -> complex:
    """c_nu = 2^nu/pi * (nu+1) * i^(2+nu), with the principal i^(2+nu).

    This is the unique phase for which P_nu reproduces holomorphic
    probes when the kernel power (z - conj(w))^-(2+nu) is taken on the
    principal branch (verified numerically across nu in the test suite);
    at nu = 0 it reduces to the classical -1/pi.
    """
    if not nu > -1.0:
        raise ParameterError(f"projection weight must satisfy nu > -1, got {nu}")
    # log |c_nu| decides first, so that 2.0 ** nu cannot overflow
    log_size = nu * math.log(2.0) + math.log1p(nu) - math.log(math.pi)
    c_nu = (2.0 ** nu / math.pi) * (nu + 1.0) * cmath.exp(1j * (2.0 + nu) * math.pi / 2.0) \
        if log_size < 710.0 else math.inf
    if not cmath.isfinite(c_nu):
        raise ParameterError(f"c_nu = 2^nu/pi * (nu+1) is not a finite float at nu = {nu}")
    return c_nu


def bergman_project(nu: float, f: Func2D, z, tol: float = quad.DEFAULT_TOL_2D) -> complex:
    """P_nu f(z) = c_nu * integral f(w) (z - conj(w))^-(2+nu) v^nu dV(w)."""
    z = HalfPlanePoint.of(z)
    c_nu = bergman_constant(nu)
    return c_nu * complex(_kernel_integral(f, z.x, z.y, 2.0 + nu, nu, True, tol))


def reproducing_probe(m: int, t: float = 1.0) -> Func2D:
    """The holomorphic probe f(w) = (i/(w+it))^m, decaying like |w|^-m: in
    u, the pole term i^m (u + it + iv)^-m, with the v factor 1."""
    if m != int(m) or m < 2:
        raise ParameterError(f"need an integer m >= 2 for an integrable probe, got {m}")
    bits = bin(int(m))[3:]   # m's binary digits after the leading 1

    def fn(u, v):
        # i/(u+ib) = (b+iu)/(u^2+b^2), b = v+t, and its m-th power by repeated
        # squaring: numpy's complex / and ** run a scalar loop per element
        b = np.asarray(v) + t
        r2 = np.square(u, out=np.empty(np.broadcast_shapes(np.shape(u), b.shape)))
        r2 += b * b
        z = np.empty(r2.shape, dtype=complex)
        np.divide(b, r2, out=z.real)
        np.divide(u, r2, out=z.imag)
        del r2   # one full buffer fewer while the power is formed
        power = z
        for bit in bits:
            power = power * power
            if bit == "1":
                power *= z
        return power

    return Func2D(fn=fn, u_decay_exponent=float(m), v_left_exponent=0.0,
                  v_decay_exponent=float(m), u_poles=((-1j * t, 1.0, int(m), 1j ** (int(m) % 4)),),
                  v_factor=Func1D(fn=np.ones_like, decay_exponent=0.0))


def reproduce_check(nu: float, m: int, points=None, tol: float = quad.DEFAULT_TOL_2D) -> list[dict]:
    """Evaluate P_nu f against f at probe points for f = (i/(z+i))^m.

    Returns one row per probe with the projected value, the true value,
    and the absolute error (the reproducing identity makes them equal for
    holomorphic integrable probes).
    """
    if points is None:
        points = [HalfPlanePoint(0.0, 1.0), HalfPlanePoint(1.0, 1.0),
                  HalfPlanePoint(-1.0, 2.0), HalfPlanePoint(0.5, 0.5),
                  HalfPlanePoint(2.0, 1.5)]
    f = reproducing_probe(m)
    rows = []
    for zp in points:
        zp = HalfPlanePoint.of(zp)
        projected = bergman_project(nu, f, zp, tol)
        exact = (1j / (zp.z + 1j)) ** m
        rows.append({
            "x": zp.x, "y": zp.y,
            "projected_re": projected.real, "projected_im": projected.imag,
            "exact_re": exact.real, "exact_im": exact.imag,
            "abs_error": abs(projected - exact),
        })
    return rows


# --------------------------------------------------------------------------
# reduction to the half-line and the L1 column test
# --------------------------------------------------------------------------

def _tplus_slice(params: OperatorParams, f: Func2D, xs: np.ndarray, y: float, tol: float) -> np.ndarray:
    """T+ f(x+iy) for a batch of abscissae x at fixed height y: one
    _kernel_integral with the abscissae as a batch axis, judged in the
    batch sup norm (a _centred source shares one kernel profile)."""
    return y ** params.alpha * _kernel_integral(f, xs, y, 1.0 + params.gamma, params.beta, False, tol)


def reduction_bound_check(params: OperatorParams, f: Func2D, y_grid=None,
                          tol: float = 1e-6, p: float = 2.0) -> list[dict]:
    """Check the slicewise reduction inequality

        ||(T+ f)_y||_{L^p(dx)} <= B(1/2, gamma/2) * H(v -> ||f_v||_p)(y)

    at each grid height.  Returns one row per y with both sides and the
    slack (nonnegative up to tol when the inequality holds); a side that
    is not finite (gamma at the ends of the floats) is a DomainError.
    """
    if not params.gamma > 0.0:
        raise ParameterError("the reduction inequality needs gamma > 0")
    if not 1.0 <= p < math.inf:
        raise ParameterError(f"the reduction inequality needs 1 <= p < inf, got {p}")
    quad._check_tol(tol)
    if y_grid is None:
        y_grid = (0.5, 1.0, 2.0)
    if not all(0.0 < y < math.inf for y in y_grid):
        raise ParameterError(f"the reduction heights must be positive and finite, got {list(y_grid)}")
    c_gamma = beta_fn(0.5, params.gamma / 2.0)
    slice_norm = _slice_norm(f, p, max(tol / 20.0, 1e-13))
    # x -> T+ f(x+iy) is real-analytic for y > 0, so f's u-edges are not
    # edges of the lhs integrand: the x axis has no knots.  T+ f(x+iy)
    # decays like |x|^-(1+gamma), or like f itself when f's u decay is slower
    lhs_decay = p * min(1.0 + params.gamma, f.u_decay_exponent)
    rows = []
    for y in y_grid:
        def lhs_integrand(xs):
            return np.abs(_tplus_slice(params, f, xs, y, tol / 10.0)) ** p

        lhs = float(quad.integrate_real_line(
            lhs_integrand, tol, decay_exponent=lhs_decay)) ** (1.0 / p)
        rhs = c_gamma * apply_H(params, slice_norm, y, tol)
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            raise DomainError(f"the reduction inequality at y = {y}, gamma = {params.gamma} "
                              f"has a side that is not finite: lhs {lhs}, rhs {rhs}")
        rows.append({"y": float(y), "lhs": lhs, "rhs": rhs, "slack": rhs - lhs})
    return rows


def column_integral(params: OperatorParams, a: float, w, tol: float = quad.DEFAULT_TOL_2D) -> float:
    """Mass of the L^1_a kernel column at w = u+iv:

        int_{R x (0,inf)} y^(alpha+a) v^(beta-a) |x-u+i(y+v)|^-(1+gamma) dx dy,

    which is constant in w and equals B(1/2,gamma/2) B(beta-a, alpha+a+1)
    under gamma = alpha+beta+1, -alpha < a+1 < beta+1."""
    # |x-u+i(y+v)| is symmetric in z and w: the column is T+ of the
    # constant 1 at w, with the exponent triple (beta-a, alpha+a, gamma),
    # in closed form: B(1/2, gamma/2) times H of the one piece 1 on (0, inf)
    one = func2d(Const(1.0))
    return apply_Tplus(OperatorParams(params.beta - a, params.alpha + a, params.gamma), one, w, tol)
