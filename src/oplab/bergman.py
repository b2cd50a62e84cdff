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
the constant is the classical -1/pi).  At a non-integer power s it is
evaluated in real arithmetic as the T+ modulus times a phase,

    (z - conj(w))^-s = r2^(-s/2) e^(-i s theta),
    r2 = (x-u)^2 + (y+v)^2,  theta = atan2(y+v, x-u) in (0, pi),

the phase through its half-angle tangent; at an integer s it is numpy's
complex power (repeated multiplication).

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

The T+ criteria on the covered regimes are the half-line criteria at
the outer exponents (hilbert.sup_criteria, to_sup_criteria,
finite_criteria), which is what the reduction inequality transfers; the
mixed norm at finite q is the half-line L^q_nu norm of the slice norms
v -> ||f_v||_p.  The quadratures over a source f (T+, T, P_nu, mixed
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
from .hilbert import (OperatorParams, WeightedSpaceSpec, apply_H, diagonal_relation,
                      finite_criteria, sharp_norm, sup_criteria, to_sup_criteria,
                      weighted_lp_norm)
from .quad import SingularityHints
from .reports import ConditionReport, InequalityCheck, RelationCheck, verdict_report
from .specfun import beta as beta_fn

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


@dataclass(frozen=True)
class MixedNormSpec:
    """L^{p,q}_nu data: inner exponent p, outer exponent q, weight nu.

    nu must satisfy nu > -1 when q is finite and must be absent (None)
    when q = inf, where the norm is the sup over y of the slice norms.
    """

    p: float
    q: float
    nu: float | None = None

    def __post_init__(self):
        if not self.p >= 1.0:
            raise ParameterError(f"p must satisfy 1 <= p <= inf, got {self.p}")
        if not self.q >= 1.0:
            raise ParameterError(f"q must satisfy 1 <= q <= inf, got {self.q}")
        if math.isinf(self.q):
            if self.nu is not None:
                raise ParameterError("q = inf takes no weight exponent; pass nu=None")
        else:
            if self.nu is None or not self.nu > -1.0:
                raise ParameterError(f"weight exponent must satisfy nu > -1, got {self.nu}")


@dataclass(frozen=True)
class BergmanVerdictRequest:
    """Which operator, between which mixed-norm spaces."""

    operator: str  # "tplus" | "t" | "projection"
    source: MixedNormSpec
    target: MixedNormSpec
    params: OperatorParams

    def __post_init__(self):
        if self.operator not in ("tplus", "t", "projection"):
            raise ParameterError(f"unknown operator selector {self.operator!r}")
        if self.operator == "projection":
            if self.params.alpha != 0.0 or not diagonal_relation(self.params).holds:
                raise ParameterError(
                    "the projection selector requires alpha = 0 and gamma = beta + 1 "
                    "(beta is the projection weight)")


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
    """v -> || f_v ||_{L^p(du)} as a Func1D with f's v hints."""
    def fn(v):
        vcol = v[:, None]
        vals = quad.integrate_real_line(
            lambda u: np.abs(f(u[None, :], vcol)) ** p, tol, breakpoints=f.u_breakpoints,
            decay_exponent=p * f.u_decay_exponent, support=f.u_support)
        return np.asarray(vals) ** (1.0 / p)

    return Func1D(fn=fn, breakpoints=f.v_breakpoints, left_exponent=f.v_left_exponent,
                  decay_exponent=f.v_decay_exponent, label="slice p-norm")


def mixed_norm(f: Func2D, spec: MixedNormSpec, tol: float = quad.DEFAULT_TOL_2D) -> float:
    """||f||_{p,q,nu} = (int_0^inf (int_R |f|^p dx)^{q/p} y^nu dy)^{1/q},
    the half-line L^q_nu norm of the slice norms, with the sup-over-y
    convention when q = inf (the heuristic of the half-line essential
    sup, quad.log_grid_sup, on a 241-point grid over [1e-6, 1e6] widened
    to f's v breakpoints and support, with 80 refinement steps)."""
    p, q, nu = spec.p, spec.q, spec.nu
    if math.isinf(p):
        raise ParameterError("p = inf mixed norms are not supported; use pointwise sup checks")
    if math.isinf(q):
        return quad.log_grid_sup(_slice_norm(f, p, tol / 10.0), 1e-6, 1e6, 241, 80,
                                 knots=(*f.v_breakpoints, *f.v_support))
    return weighted_lp_norm(_slice_norm(f, p, max(tol / 20.0, 1e-13)), WeightedSpaceSpec(q, nu), tol)


# --------------------------------------------------------------------------
# operator application
# --------------------------------------------------------------------------

def _kernel(du, dv, s: float, complex_kernel: bool):
    """|du + i dv|^-s, or with complex_kernel the principal (du + i dv)^-s,
    for du = x-u and dv = y+v > 0 broadcasting to the kernel's shape.

    At an integer s numpy's complex power multiplies repeatedly.  At any
    other s it would call a scalar cpow per element, so the power is the
    phase e^(i phi), phi = -s theta with theta = atan2(dv, du) in (0, pi),
    times the modulus, in three buffers written in place.  The phase goes
    through the half-angle tangent t = tan(phi/2),
    e^(i phi) = ((1 - t^2) + 2it) / (1 + t^2): one tan costs less than a
    sin and a cos (numpy 2's AVX-512 float64 tan is vectorised, its sin
    and cos are scalar loops); t stays finite, and each part is within a
    few ulp of |e^(i phi)| = 1.
    """
    if complex_kernel and float(s).is_integer():
        return (du + 1j * dv) ** (-s)
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


def _compose_kernel(f: Func2D, z: HalfPlanePoint, kernel_power: float, weight: float,
                    complex_kernel: bool) -> Func2D:
    """f(w) * v^weight * (z - conj(w))^(-kernel_power) with combined hints;
    the kernel factors are finite and nonzero, so f's supports carry over."""
    x, y = z.x, z.y

    def fn(u, v):
        return f(u, v) * np.asarray(v) ** weight * _kernel(x - u, y + v, kernel_power, complex_kernel)

    return Func2D(
        fn=fn,
        u_breakpoints=tuple(sorted({*f.u_breakpoints, x})),
        v_breakpoints=f.v_breakpoints,
        u_decay_exponent=f.u_decay_exponent + kernel_power,
        v_left_exponent=f.v_left_exponent + weight,
        v_decay_exponent=f.v_decay_exponent - weight + kernel_power,
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
    v_hints = SingularityHints(
        f.v_breakpoints,
        f.v_left_exponent + be,
        f.v_decay_exponent - be + 1.0 + ga,
    )
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
                r2 = (xcol - u[None, None, :]) ** 2 + (y + vrow) ** 2
                return f(u[None, None, :], vrow) * r2 ** (-(1.0 + ga) / 2.0)

            planes = quad.integrate_real_line(
                inner, inner_tol, breakpoints=f.u_breakpoints,
                decay_exponent=f.u_decay_exponent + 1.0 + ga, support=f.u_support)
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
    if y_grid is None:
        y_grid = (0.5, 1.0, 2.0)
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
    w = HalfPlanePoint.of(w)
    # |x-u+i(y+v)| is symmetric in z and w: the column is the T+ kernel
    # of the constant 1 centred at w
    one = Func2D(fn=lambda u, v: 1.0, u_decay_exponent=0.0, v_decay_exponent=0.0)
    integrand = _compose_kernel(one, w, 1.0 + params.gamma, params.alpha + a, complex_kernel=False)
    return w.y ** (params.beta - a) * float(quad.integrate_halfplane(integrand, tol))


# --------------------------------------------------------------------------
# verdicts and exact norms
# --------------------------------------------------------------------------

def tplus_exact_norm(case: str, params: OperatorParams, a: float | None = None) -> float:
    """Exact T+ norm in the endpoint cases: B(1/2, gamma/2) times the
    half-line sharp norm (hilbert.sharp_norm) on the matching space.

    case = "linf":  B(1/2, gamma/2) B(beta+1, alpha) under
                    gamma = alpha+beta+1, alpha > 0, beta > -1.
    case = "l1a":   B(1/2, gamma/2) B(beta-a, alpha+a+1) under
                    gamma = alpha+beta+1, -alpha < a+1 < beta+1.
    """
    if case == "linf":
        space = WeightedSpaceSpec(math.inf)
    elif case == "l1a":
        space = WeightedSpaceSpec(1.0, a)
    else:
        raise ParameterError(f"unknown exact-norm case {case!r} (use 'linf' or 'l1a')")
    norm = sharp_norm(space, params)  # its checks come first, and they imply gamma > 0
    return beta_fn(0.5, params.gamma / 2.0) * norm


def _tplus_verdict(req: BergmanVerdictRequest) -> ConditionReport:
    al, be, ga = req.params.alpha, req.params.beta, req.params.gamma
    src, tgt = req.source, req.target
    p, q, a = src.p, src.q, src.nu
    r, b = tgt.q, tgt.nu
    op = req.operator

    if src.p != tgt.p:
        raise ParameterError("source and target must share the inner exponent p")

    if math.isinf(p):
        if not (math.isinf(q) and math.isinf(r)):
            raise ParameterError("p = inf is covered only in the sup-to-sup case")
        return verdict_report(op, "Linf -> Linf", *sup_criteria(req.params),
                              notes=("exact norm B(1/2,gamma/2)B(beta+1,alpha) when bounded",))

    if p == 1.0 and q == 1.0 and r == 1.0:
        if a is None or b is None or a != b:
            raise ParameterError("the weighted L1 case needs matching weights a = b > -1")
        ineqs = (InequalityCheck("-alpha < a+1", a + 1.0, lower=-al),
                 InequalityCheck("a+1 < beta+1", a + 1.0, upper=be + 1.0))
        return verdict_report(op, "L1_a -> L1_a", diagonal_relation(req.params), ineqs,
                              notes=("exact norm B(1/2,gamma/2)B(beta-a,alpha+a+1) when bounded",))

    if not 1.0 < p < math.inf:
        raise ParameterError(f"unsupported inner exponent p = {p}")

    if 1.0 < q < math.inf and not math.isinf(r):
        if not q <= r:
            raise ParameterError("only the upper-triangle case q <= r is covered")
        return verdict_report(op, "Lpq_a -> Lpr_b (finite)",
                              *finite_criteria(q, r, a, b, req.params, "q", "r"))

    if 1.0 < q < math.inf and math.isinf(r):
        # the alpha > 0 clause is stored; the equivalent window form is
        # computed and displayed for cross-checking
        cross = (InequalityCheck("-q(gamma-beta-1) < a+1", a + 1.0, lower=-q * (ga - be - 1.0)),)
        return verdict_report(op, "Lpq_a -> Lp,inf", *to_sup_criteria(q, a, req.params, "q"),
                              cross=cross)

    if q == 1.0:
        if a != 0.0:
            raise ParameterError("q = 1 sources are the unweighted L^{p,1} spaces (nu = 0)")
        if math.isinf(r):
            relation = RelationCheck("gamma = alpha+beta", ga, al + be)
            ineqs = (InequalityCheck("alpha > 0", al, lower=0.0),
                     InequalityCheck("beta > 0", be, lower=0.0))
            return verdict_report(op, "Lp1 -> Lp,inf", relation, ineqs)
        if r == 1.0:
            if b != 0.0:
                raise ParameterError("the L^{p,1} -> L^{p,1} case is unweighted (nu = 0)")
            ineqs = (InequalityCheck("alpha > -1", al, lower=-1.0),
                     InequalityCheck("beta > 0", be, lower=0.0))
            return verdict_report(op, "Lp1 -> Lp1", diagonal_relation(req.params), ineqs)
        relation = RelationCheck("gamma = alpha+beta+(b+1)/r", ga, al + be + (b + 1.0) / r)
        ineqs = (InequalityCheck("gamma > beta", be, upper=ga),
                 InequalityCheck("beta > 0", be, lower=0.0))
        return verdict_report(op, "Lp1 -> Lpr_b", relation, ineqs)

    if math.isinf(q) and math.isinf(r):
        return verdict_report(op, "Lp,inf -> Lp,inf", *sup_criteria(req.params))

    raise ParameterError(
        f"unsupported regime: source q={q}, target r={r} (q = inf sources pair only with r = inf)")


def _projection_verdict(req: BergmanVerdictRequest) -> ConditionReport:
    be = req.params.beta  # the projection weight
    src, tgt = req.source, req.target
    p, q, a = src.p, src.q, src.nu
    r, b = tgt.q, tgt.nu
    if src.p != tgt.p:
        raise ParameterError("source and target must share the inner exponent p")
    if not be > -1.0:
        raise ParameterError(f"projection weight must satisfy beta > -1, got {be}")

    if p == 1.0 and q == 1.0 and r == 1.0 and a is not None and a == b:
        ineqs = (InequalityCheck("a < beta", a, upper=be),)
        return verdict_report("projection", "L1_a -> A1_a", None, ineqs)

    if not 1.0 < p < math.inf:
        raise ParameterError(f"unsupported inner exponent p = {p} for the projection")

    if 1.0 < q <= r < math.inf:
        relation = RelationCheck("(a+1)/q = (b+1)/r", (a + 1.0) / q, (b + 1.0) / r)
        ineqs = (InequalityCheck("a+1 < q(beta+1)", a + 1.0, upper=q * (be + 1.0)),)
        return verdict_report("projection", "Lpq_a -> Apr_b", relation, ineqs)

    if q == 1.0 and a == 0.0 and 1.0 < r < math.inf:
        relation = RelationCheck("r = b+1", float(r), b + 1.0)
        ineqs = (InequalityCheck("beta > 0", be, lower=0.0),)
        return verdict_report("projection", "Lp1 -> Apr_b", relation, ineqs)

    if q == 1.0 and a == 0.0 and r == 1.0 and b == 0.0:
        ineqs = (InequalityCheck("beta > 0", be, lower=0.0),)
        return verdict_report("projection", "Lp1 -> Ap1", None, ineqs)

    raise ParameterError("unsupported regime for the projection corollaries")


def bergman_verdict(req: BergmanVerdictRequest) -> ConditionReport:
    """Boundedness verdict for T+, T, or the projection P_beta between
    mixed-norm spaces.  T shares the T+ criteria on the covered regimes;
    the projection specializes them through alpha = 0, gamma = beta+1."""
    if req.operator == "projection":
        return _projection_verdict(req)
    return _tplus_verdict(req)
