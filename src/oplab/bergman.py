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
application by iterated 2D quadrature, boundedness verdicts for the
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
integrators): the kernels are finite and nonzero, so a box or slab
source spends no nodes where it vanishes.

All operations are pure; probe grids and quadratures may be evaluated
concurrently and merged in input order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import quad
from .errors import DivergenceError, DomainError, ParameterError
from .funcdsl import Func1D, Func2D
from .hilbert import apply_H, weighted_lp_norm
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
                  left_exponent=f.v_left_exponent, decay_exponent=f.v_decay_exponent,
                  label="slice p-norm")


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

def _kernel(du, dv, s: float, complex_kernel: bool):
    """|du + i dv|^-s, or with complex_kernel the principal (du + i dv)^-s,
    for du = x-u and dv = y+v > 0 broadcasting to the kernel's shape.

    numpy's complex power would call a scalar cpow per element, so the
    power is the phase e^(i phi), phi = -s theta with
    theta = atan2(dv, du) in (0, pi), times the modulus, in three buffers
    written in place.  The phase goes through the half-angle tangent
    t = tan(phi/2),
    e^(i phi) = ((1 - t^2) + 2it) / (1 + t^2): one tan costs less than a
    sin and a cos (numpy 2's AVX-512 float64 tan is vectorised, its sin
    and cos are scalar loops); t stays finite, and each part is within a
    few ulp of |e^(i phi)| = 1.
    """
    if not complex_kernel:
        return (du ** 2 + dv ** 2) ** (-s / 2.0)
    t = np.asarray(np.arctan2(dv, du))
    t *= -s / 2.0
    np.tan(t, out=t)
    out = np.empty(t.shape, dtype=complex)
    np.multiply(t, 2.0, out=out.imag)
    np.square(t, out=t)
    np.subtract(1.0, t, out=out.real)
    t += 1.0
    out.real /= t
    out.imag /= t
    np.add(du ** 2, dv ** 2, out=t)
    out *= np.power(t, -s / 2.0, out=t)
    return out


def _kernel_hints(f: Func2D, kernel_power: float, weight: float) -> tuple[float, SingularityHints]:
    """The u decay exponent and the v hints of f(w) v^weight |z - conj(w)|^(-kernel_power):
    the kernel adds kernel_power to both decays, the weight shifts the v exponents."""
    v_hints = SingularityHints(
        f.v_breakpoints,
        f.v_left_exponent + weight,
        f.v_decay_exponent - weight + kernel_power,
    )
    return f.u_decay_exponent + kernel_power, v_hints


def _compose_kernel(f: Func2D, z: HalfPlanePoint, kernel_power: float, weight: float,
                    complex_kernel: bool) -> Func2D:
    """f(w) * v^weight * (z - conj(w))^(-kernel_power) with combined hints;
    the kernel factors are finite and nonzero, so f's supports carry over."""
    x, y = z.x, z.y

    def fn(u, v):
        return f(u, v) * np.asarray(v) ** weight * _kernel(x - u, y + v, kernel_power, complex_kernel)

    u_decay, v_hints = _kernel_hints(f, kernel_power, weight)
    return Func2D(
        fn=fn,
        u_breakpoints=tuple(sorted({*f.u_breakpoints, x})),
        v_breakpoints=v_hints.breakpoints,
        u_decay_exponent=u_decay,
        v_left_exponent=v_hints.left_exponent,
        v_decay_exponent=v_hints.decay_exponent,
        u_support=f.u_support,
        v_support=f.v_support,
    )


def apply_Tplus(params: OperatorParams, f: Func2D, z, tol: float = quad.DEFAULT_TOL_2D) -> float:
    """T+ f(z) by iterated quadrature (inner over u, outer over v)."""
    z = HalfPlanePoint.of(z)
    integrand = _compose_kernel(f, z, 1.0 + params.gamma, params.beta, complex_kernel=False)
    return z.y ** params.alpha * float(quad.integrate_halfplane(integrand, tol))


def apply_T(params: OperatorParams, f: Func2D, z, tol: float = quad.DEFAULT_TOL_2D) -> complex:
    """T f(z); the kernel power uses the principal branch, which is
    well-defined since Im(z - conj(w)) = y + v > 0."""
    z = HalfPlanePoint.of(z)
    integrand = _compose_kernel(f, z, 1.0 + params.gamma, params.beta, complex_kernel=True)
    return z.y ** params.alpha * complex(quad.integrate_halfplane(integrand, tol))


def bergman_constant(nu: float) -> complex:
    """c_nu = 2^nu/pi * (nu+1) * i^(2+nu), with the principal i^(2+nu).

    This is the unique phase for which P_nu reproduces holomorphic
    probes when the kernel power (z - conj(w))^-(2+nu) is taken on the
    principal branch (verified numerically across nu in the test suite);
    at nu = 0 it reduces to the classical -1/pi.
    """
    if not nu > -1.0:
        raise ParameterError(f"projection weight must satisfy nu > -1, got {nu}")
    return (2.0 ** nu / math.pi) * (nu + 1.0) * cmath.exp(1j * (2.0 + nu) * math.pi / 2.0)


def bergman_project(nu: float, f: Func2D, z, tol: float = quad.DEFAULT_TOL_2D) -> complex:
    """P_nu f(z) = c_nu * integral f(w) (z - conj(w))^-(2+nu) v^nu dV(w)."""
    z = HalfPlanePoint.of(z)
    integrand = _compose_kernel(f, z, 2.0 + nu, nu, complex_kernel=True)
    return bergman_constant(nu) * complex(quad.integrate_halfplane(integrand, tol))


def reproducing_probe(m: int, t: float = 1.0) -> Func2D:
    """The holomorphic probe f(w) = (i/(w+it))^m, decaying like |w|^-m."""
    if m < 2:
        raise ParameterError("need m >= 2 for an integrable probe")

    def fn(u, v):
        return (1j / (u + 1j * (np.asarray(v) + t))) ** m

    return Func2D(fn=fn, u_decay_exponent=float(m), v_left_exponent=0.0,
                  v_decay_exponent=float(m), label=f"(i/(w+{t}i))^{m}")


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
    """T+ f(x+iy) for a batch of abscissae x at fixed height y.

    The abscissae go through the (x, v, u) kernel tensor in blocks of 8
    on f's unpruned (u, v) grid; where f's supports prune panels from
    the grid the block grows in proportion, so the tensor keeps its size.
    """
    al, be, ga = params.alpha, params.beta, params.gamma
    out = np.empty(xs.shape, dtype=float)
    inner_tol = max(tol / 20.0, 1e-13)
    u_decay, v_hints = _kernel_hints(f, 1.0 + ga, be)
    unpruned = (quad.panel_count((-math.inf, math.inf), f.u_breakpoints, semiaxis=False)
                * quad.panel_count((0.0, math.inf), f.v_breakpoints, semiaxis=True))
    pruned = (quad.panel_count(f.u_support, f.u_breakpoints, semiaxis=False)
              * quad.panel_count(f.v_support, f.v_breakpoints, semiaxis=True))
    block = 8 * unpruned // pruned
    for start in range(0, xs.size, block):
        chunk = xs[start:start + block]
        xcol = chunk[:, None, None]

        def outer(v):
            vrow = v[None, :, None]

            def inner(u):
                u = u[None, None, :]
                return f(u, vrow) * _kernel(xcol - u, y + vrow, 1.0 + ga, False)

            planes = quad.integrate_real_line(
                inner, inner_tol, breakpoints=f.u_breakpoints,
                decay_exponent=u_decay, support=f.u_support)
            return planes * v[None, :] ** be

        out[start:start + block] = quad.integrate_semiaxis(outer, v_hints, tol, support=f.v_support)
    return y ** al * out


def reduction_bound_check(params: OperatorParams, f: Func2D, y_grid=None,
                          tol: float = 1e-6, p: float = 2.0) -> list[dict]:
    """Check the slicewise reduction inequality

        ||(T+ f)_y||_{L^p(dx)} <= B(1/2, gamma/2) * H(v -> ||f_v||_p)(y)

    at each grid height.  Returns one row per y with both sides and the
    slack (nonnegative up to tol when the inequality holds).
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
    # edges of the lhs integrand and a source with a finite u support does
    # not split the x axis there; any other source keeps the x grid (and
    # so the values) of the full-domain path.
    lo, hi = f.u_support
    x_knots = () if -math.inf < lo < hi < math.inf else f.u_breakpoints
    rows = []
    for y in y_grid:
        def lhs_integrand(xs):
            return np.abs(_tplus_slice(params, f, xs, y, tol / 10.0)) ** p

        lhs = float(quad.integrate_real_line(
            lhs_integrand, tol, breakpoints=x_knots,
            decay_exponent=p * (1.0 + params.gamma))) ** (1.0 / p)
        rhs = c_gamma * apply_H(params, slice_norm, y, tol)
        rows.append({"y": float(y), "lhs": lhs, "rhs": rhs, "slack": rhs - lhs})
    return rows


def column_integral(params: OperatorParams, a: float, w, tol: float = quad.DEFAULT_TOL_2D) -> float:
    """Mass of the L^1_a kernel column at w = u+iv:

        int_{R x (0,inf)} y^(alpha+a) v^(beta-a) |x-u+i(y+v)|^-(1+gamma) dx dy,

    which is constant in w and equals B(1/2,gamma/2) B(beta-a, alpha+a+1)
    under gamma = alpha+beta+1, -alpha < a+1 < beta+1."""
    # |x-u+i(y+v)| is symmetric in z and w: the column is T+ of the
    # constant 1 at w, with the exponent triple (beta-a, alpha+a, gamma)
    one = Func2D(fn=lambda u, v: 1.0, u_decay_exponent=0.0, v_decay_exponent=0.0)
    return apply_Tplus(OperatorParams(params.beta - a, params.alpha + a, params.gamma), one, w, tol)
