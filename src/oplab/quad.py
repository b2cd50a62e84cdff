"""Deterministic adaptive quadrature for the operator laboratory.

Three integration domains appear throughout:

  * the half-line (0, inf)        -- integrate_semiaxis / integrate_truncated
  * the real line                 -- integrate_real_line
  * the upper half-plane          -- integrate_halfplane (iterated)

All of them are built from tanh-sinh (double-exponential) panels.  The
domain is split at every declared breakpoint (and at 1 on the half-line),
so integrands are smooth inside each panel and endpoint power
singularities y^sigma, sigma > -1, are absorbed by the transform.

There is one panel type, plain data: a tanh-sinh rule on an interval
[a, b], or on s in [0, S], S = 30, through a map.  The half-line tail
uses y = T*exp(s) and the first half-line panel its mirror image
y = knot*exp(-s); the real-line tails use u = base +/- expm1(s).  A
drive builds each refinement level's nodes and weights for all of its
panels at once: one broadcast over the (a, b, half-width) columns of
each run of interval panels, and one multiply or add per mapped panel on
the [0, S] grid they all share.  Each tail is followed by a power-law
completion term

    int_Y^inf f(y) dy  ~=  f(Y) * Y / (tau - 1),      Y = T*e^S,

where tau is the declared decay exponent, and the origin panel by the
mirror-image completion driven by the left exponent.  The completions
make near-critical endpoint powers (tau or -sigma equal to 1 -+ xi with
tiny xi) computable to full precision, which plain node clustering
cannot do in double precision;
their model error is O(1/Y) relative to the endpoint mass for
integrands with an asymptotic power law, i.e. ~1e-13.

Integrands are evaluated on numpy arrays of nodes and may return a
batch: an array of shape (..., n) is summed over its last axis, so a
single adaptive run can integrate a whole family (all components are
refined in lockstep and convergence is judged in the batch sup norm).
Complex integrands are supported.

Divergent requests are rejected up front from the hints (left exponent
<= -1 or decay exponent <= 1) instead of by runaway refinement; the
truncated entry point exists for the divergence-exponent experiments.

Half-plane sources are often compactly supported (boxes, slabs), so
integrate_real_line and integrate_semiaxis take the support the
integrand vanishes outside (default: the whole axis).  A finite one (on
the half-line, one with a positive lower end) is integrated over
interval panels alone, in the same single drive, with no nodes spent
on tails or the origin; any other support runs the full rule.

An integrand value that is NaN or infinite is zeroed only at a fringe
node of an interval panel, closer than 1e-10 (relative to the
half-width) to one of its ends, at any node of a mapped panel, which lies
beyond the outermost knot where the hints certify the decay, and in the
completions: under/overflow there is expected and its true contribution
is below double precision.  Anywhere else the integrand is undefined
inside its domain, and the drive raises DomainError naming the abscissa.

Everything here is pure and reentrant: the node tables are module caches
filled once per level and never modified, and no call mutates shared state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import AccuracyError, DivergenceError, DomainError, ParameterError

__all__ = [
    "SingularityHints",
    "DEFAULT_TOL_1D",
    "DEFAULT_TOL_2D",
    "integrate_semiaxis",
    "integrate_truncated",
    "integrate_interval",
    "integrate_real_line",
    "panel_count",
    "integrate_halfplane",
    "log_grid_sup",
]

DEFAULT_TOL_1D = 1e-10
DEFAULT_TOL_2D = 1e-6

_T_MAX = 6.0          # tanh-sinh parameter range; weights underflow beyond
_LOG_TAIL_SPAN = 30.0  # tails integrated numerically out to T*e^30
_PI_HALF = math.pi / 2.0
_MIN_LEVEL = 3         # refinement levels always run before convergence counts


@dataclass(frozen=True)
class SingularityHints:
    """What the caller knows about an integrand on (0, inf).

    breakpoints     : positive abscissae where the integrand is non-smooth
                      (indicator edges etc.); the domain is split there.
    left_exponent   : power behaviour y^sigma as y -> 0+; must be > -1
                      or the integral diverges at the origin.
    decay_exponent  : power behaviour y^(-tau) as y -> inf; must be > 1
                      for convergence (may be +inf for compact support or
                      exponential decay).
    """

    breakpoints: tuple[float, ...] = ()
    left_exponent: float = 0.0
    decay_exponent: float = math.inf

    def __post_init__(self):
        bps = tuple(sorted(float(b) for b in self.breakpoints))
        for b in bps:
            if not (b > 0.0 and math.isfinite(b)):
                raise ParameterError(f"semiaxis breakpoints must be positive finite, got {b}")
        object.__setattr__(self, "breakpoints", bps)


# --------------------------------------------------------------------------
# tanh-sinh node tables
# --------------------------------------------------------------------------

_node_cache: dict[int, tuple[np.ndarray, ...]] = {}
_tail_cache: dict[int, tuple[np.ndarray, ...]] = {}
_FRINGE = 1e-10  # relative distance to the nearer panel end that makes a node fringe


def _level_nodes(level: int) -> tuple[np.ndarray, ...]:
    """(near_left, dist_from_left, dist_from_right, weight, offset, fringe)
    for the nodes new at `level`.

    Distances are relative to the half-width of the panel and lie in (0, 2);
    they are computed through exp(-2u) so that nodes double-exponentially
    close to an endpoint keep full relative precision.  A node near the
    left end (dist_from_left <= 1) lies at a + hw*offset, any other at
    b + hw*offset, which rounds exactly as b - hw*dist_from_right.  A fringe
    node lies closer than _FRINGE to an end, where an integrand may
    under/overflow.
    """
    cached = _node_cache.get(level)
    if cached is not None:
        return cached
    if level == 0:
        t = np.arange(-_T_MAX, _T_MAX + 0.5)  # integers -6..6
    else:
        h = 2.0 ** (-level)
        odd = np.arange(1.0, _T_MAX / h, 2.0) * h
        t = np.concatenate([-odd[::-1], odd])
    u = _PI_HALF * np.sinh(t)
    e = np.exp(-2.0 * np.abs(u))
    near = 2.0 * e / (1.0 + e)   # distance to the closer endpoint
    far = 2.0 / (1.0 + e)        # distance to the farther endpoint
    d_left = np.where(u >= 0, far, near)
    d_right = np.where(u >= 0, near, far)
    w = _PI_HALF * np.cosh(t) / np.cosh(u) ** 2
    good = w > 0.0
    near_left, d_left, d_right = d_left[good] <= 1.0, d_left[good], d_right[good]
    offset = np.where(near_left, d_left, -d_right)
    result = (near_left, d_left, d_right, w[good], offset, near[good] < _FRINGE)
    _node_cache[level] = result
    return result


def _tail_nodes(level: int) -> tuple[np.ndarray, ...]:
    """(e^s, e^-s, expm1(s), (S/2)*weight) for the nodes new at `level` on
    s in [0, S]: the one grid every mapped panel shares."""
    cached = _tail_cache.get(level)
    if cached is None:
        near_left, _, _, w, offset, _ = _level_nodes(level)
        hw = 0.5 * _LOG_TAIL_SPAN
        s = np.where(near_left, 0.0, _LOG_TAIL_SPAN) + hw * offset
        cached = _tail_cache[level] = (np.exp(s), np.exp(-s), np.expm1(s), hw * w)
    return cached


class _Panel(NamedTuple):
    """Tanh-sinh panel: the interval [a, b] itself (kind None), or a tail on
    s in [0, S] mapped to y = base*e^(sign*s) (kind "exp": the log tail, +1,
    and the log origin panel, -1) or u = base + sign*expm1(s) (kind "expm1":
    the real-line tails).  The logarithmic origin map turns a power
    singularity y^sigma into a plain exponential e^(-(1+sigma)s), so
    together with the origin completion it stays accurate arbitrarily close
    to sigma = -1.
    """

    a: float = 0.0
    b: float = _LOG_TAIL_SPAN
    kind: str | None = None
    base: float = 0.0
    sign: float = 1.0

    def mapped_nodes(self, level):
        """Nodes and weights new at `level` of a mapped panel."""
        exp_s, exp_neg_s, expm1_s, hw_w = _tail_nodes(level)
        if self.kind == "exp":
            y = self.base * (exp_s if self.sign > 0 else exp_neg_s)
            return y, hw_w * y
        return (self.base + expm1_s if self.sign > 0 else self.base - expm1_s), hw_w * exp_s


def _plan(panels: Sequence[_Panel]) -> list:
    """The panels in order, each run of consecutive interval panels as
    (a, b, half-width) column arrays, so that a level's nodes for the run
    are one broadcast."""
    plan = []
    for mapped, run in itertools.groupby(panels, key=lambda p: p.kind is not None):
        if mapped:
            plan.extend(run)
        else:
            a, b = np.array([(p.a, p.b) for p in run]).T[:, :, None]
            plan.append((a, b, 0.5 * (b - a)))
    return plan


def _plan_nodes(plan: list, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights new at `level` for every panel of the plan, in
    panel order."""
    near_left, _, _, w, offset, _ = _level_nodes(level)
    pts, wts = [], []
    for step in plan:
        if isinstance(step, _Panel):
            x, wt = step.mapped_nodes(level)
        else:
            a, b, hw = step
            x = (np.where(near_left, a, b) + hw * offset).ravel()
            wt = (hw * w).ravel()
        pts.append(x)
        wts.append(wt)
    return np.concatenate(pts), np.concatenate(wts)


def _sanitize(vals: np.ndarray) -> np.ndarray:
    # Non-finite values can only arise from under/overflow at the
    # double-exponential fringe, where the true contribution is below
    # double precision (divergent integrands never get this far: the
    # hints reject them up front).
    if np.isfinite(vals).all():
        return vals
    return np.where(np.isfinite(vals), vals, 0.0)


def _drive(panels, integrand, tol, max_level, completion=0.0):
    """Run all panels in lockstep, refining until the total settles."""
    if not (0.0 < tol < 0.5):
        raise ParameterError(f"tolerance must be in (0, 0.5), got {tol}")
    plan = _plan(panels)
    partial = None
    mass = None
    prev = None
    change = math.inf
    for level in range(max_level + 1):
        x, w = _plan_nodes(plan, level)
        with np.errstate(all="ignore"):
            vals = np.asarray(integrand(x))
        if not np.isfinite(vals).all():
            # a mapped panel lies beyond the outermost knots, where the hints
            # certify the decay: all its nodes count as fringe
            fringe = _level_nodes(level)[5]
            edge = np.concatenate([fringe if p.kind is None else np.ones_like(fringe) for p in panels])
            inside = np.nonzero(~np.isfinite(vals) & ~edge)
            if inside[0].size:
                raise DomainError(f"integrand is {vals[inside][0]} at {float(x[inside[-1][0]])!r}, "
                                  "away from the ends of its quadrature panel")
            vals = _sanitize(vals)
        contrib = (vals * w).sum(axis=-1)
        absorb = (np.abs(vals) * w).sum(axis=-1)
        partial = contrib if partial is None else partial + contrib
        mass = absorb if mass is None else mass + absorb
        total = (2.0 ** (-level)) * partial + completion
        if prev is not None:
            change = float(np.abs(total - prev).max())
        if level >= _MIN_LEVEL:
            # the mass floor recognizes cancellation-to-zero: nothing below
            # machine epsilon times the L1 mass is resolvable anyway
            floor = 1e-15 * (2.0 ** (-level)) * float(mass.max()) + 1e-300
            if change <= max(tol * float(np.abs(total).max()), floor):
                return total
        prev = total
    raise AccuracyError(
        f"quadrature did not reach tol={tol} within {max_level} refinement levels "
        f"(last change {change:.3e})",
        estimate=total,
        last_change=change,
    )


def _completion(integrand, y, denominator: float):
    """Power-law completion sum_i f(y_i) |y_i| / denominator of the mass
    beyond the outermost nodes y_i, from one integrand call."""
    y = np.array(y, dtype=float)
    with np.errstate(all="ignore"):
        vals = _sanitize(np.asarray(integrand(y)))
    return (vals * np.abs(y)).sum(axis=-1) / denominator


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------

def _semiaxis_knots(breakpoints: Sequence[float], upper: float | None) -> list[float]:
    top = upper if upper is not None else max(1.0, breakpoints[-1] if breakpoints else 1.0)
    knots = {0.0, top}
    knots.update(b for b in breakpoints if b < top)
    if 0.0 < 1.0 < top:
        knots.add(1.0)
    return sorted(knots)


def _semiaxis(f, hints: SingularityHints, tol: float, max_level: int, cutoff: float | None):
    """Integral of f over (0, cutoff], or over (0, inf) when cutoff is None."""
    if not hints.left_exponent > -1.0:
        raise DivergenceError(
            f"integral diverges at the origin: left exponent {hints.left_exponent} <= -1",
            endpoint="origin",
        )
    if cutoff is None and not hints.decay_exponent > 1.0:
        raise DivergenceError(
            f"integral diverges at infinity: decay exponent {hints.decay_exponent} <= 1",
            endpoint="infinity",
        )
    knots = _semiaxis_knots(hints.breakpoints, cutoff)
    panels = [_Panel(kind="exp", base=knots[1], sign=-1.0)]
    panels.extend(_Panel(a, b) for a, b in zip(knots[1:], knots[2:]))
    near = knots[1] * math.exp(-_LOG_TAIL_SPAN)
    completion = _completion(f, [near], hints.left_exponent + 1.0)
    if cutoff is None:
        panels.append(_Panel(kind="exp", base=knots[-1]))
        if math.isfinite(hints.decay_exponent):
            far = knots[-1] * math.exp(_LOG_TAIL_SPAN)
            completion = _completion(f, [far], hints.decay_exponent - 1.0) + completion
    return _drive(panels, f, tol, max_level, completion)


def _interval_panels(a: float, b: float, breakpoints: Sequence[float]) -> list[_Panel]:
    knots = sorted({a, b, *(x for x in breakpoints if a < x < b)})
    return [_Panel(lo, hi) for lo, hi in zip(knots, knots[1:])]


def _support_panels(support: tuple[float, float], floor: float,
                    breakpoints: Sequence[float]) -> list[_Panel] | None:
    """Interval panels over support = (lo, hi), the interval the integrand
    vanishes outside, when floor < lo < hi < inf (floor is -inf on the
    real line, 0 on the half-line); else None."""
    lo, hi = support
    return _interval_panels(lo, hi, breakpoints) if floor < lo < hi < math.inf else None


# No 1D entry point calls another: each one runs exactly one drive.

def integrate_semiaxis(f, hints: SingularityHints, tol: float = DEFAULT_TOL_1D, *,
                       support: tuple[float, float] = (0.0, math.inf), max_level: int = 10):
    """Integral of f over (0, inf) to relative tolerance ``tol``.

    ``f`` is called on numpy arrays of nodes and may return a batch with
    node values along the last axis; the result then has the batch shape.
    Raises DivergenceError when the hints say the integral cannot
    converge, AccuracyError when the refinement budget runs out.  An f
    that vanishes outside a ``support`` [lo, hi] with 0 < lo and hi
    finite is integrated over that interval only (breakpoints inside it
    kept), and the endpoint exponents are not consulted.
    """
    panels = _support_panels(support, 0.0, hints.breakpoints)
    if panels is not None:
        return _drive(panels, f, tol, max_level)
    return _semiaxis(f, hints, tol, max_level, None)


def integrate_truncated(f, hints: SingularityHints, cutoff: float, tol: float = DEFAULT_TOL_1D, *, max_level: int = 10):
    """Integral of f over (0, cutoff]; only the origin needs to converge.

    This is the entry point for divergence-exponent experiments where the
    full half-line integral is deliberately infinite.
    """
    if not (cutoff > 0.0 and math.isfinite(cutoff)):
        raise ParameterError(f"cutoff must be positive finite, got {cutoff}")
    return _semiaxis(f, hints, tol, max_level, cutoff)


def _real_line_knots(breakpoints: Sequence[float]) -> list[float]:
    return sorted({float(b) for b in breakpoints}) or [0.0]


def integrate_interval(f, a: float, b: float, tol: float = DEFAULT_TOL_1D, *, breakpoints: Sequence[float] = (), max_level: int = 10):
    """Integral of f over the finite interval [a, b] (endpoint singularities ok)."""
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ParameterError(f"need finite a < b, got [{a}, {b}]")
    return _drive(_interval_panels(a, b, breakpoints), f, tol, max_level)


def integrate_real_line(f, tol: float = DEFAULT_TOL_1D, *, breakpoints: Sequence[float] = (),
                        decay_exponent: float = math.inf,
                        support: tuple[float, float] = (-math.inf, math.inf), max_level: int = 10):
    """Integral of f over the whole real line.

    ``decay_exponent`` is the power behaviour |u|^(-tau) for |u| -> inf
    and must exceed 1.  Batched integrands are supported exactly as in
    integrate_semiaxis.  An f that vanishes outside a finite ``support``
    [lo, hi] is integrated over that interval only (breakpoints inside it
    kept), and the decay exponent is not consulted.
    """
    panels = _support_panels(support, -math.inf, breakpoints)
    if panels is not None:
        return _drive(panels, f, tol, max_level)
    if not decay_exponent > 1.0:
        raise DivergenceError(
            f"real-line integral diverges: decay exponent {decay_exponent} <= 1",
            endpoint="u-infinity",
        )
    knots = _real_line_knots(breakpoints)
    panels = [_Panel(a, b) for a, b in zip(knots, knots[1:])]
    panels.append(_Panel(kind="expm1", base=knots[-1]))
    panels.append(_Panel(kind="expm1", base=knots[0], sign=-1.0))
    completion = 0.0
    if math.isfinite(decay_exponent):
        far = [knots[-1] + math.expm1(_LOG_TAIL_SPAN), knots[0] - math.expm1(_LOG_TAIL_SPAN)]
        completion = _completion(f, far, decay_exponent - 1.0)
    return _drive(panels, f, tol, max_level, completion)


def panel_count(support: tuple[float, float], breakpoints: Sequence[float], *, semiaxis: bool) -> int:
    """Number of panels integrate_semiaxis (semiaxis) or integrate_real_line
    drives for this support and these breakpoints."""
    panels = _support_panels(support, 0.0 if semiaxis else -math.inf, breakpoints)
    if panels is not None:
        return len(panels)
    if semiaxis:  # origin panel, finite panels, tail panel
        return len(_semiaxis_knots(sorted(breakpoints), None))
    return len(_real_line_knots(breakpoints)) + 1  # finite panels and two tails


def integrate_halfplane(f, tol: float = DEFAULT_TOL_2D, *, max_level: int = 9):
    """Iterated integral of f over the upper half-plane R x (0, inf).

    ``f`` is a Func2D-style object: callable as f(u, v) on broadcasting
    arrays, carrying hint attributes u_breakpoints, v_breakpoints,
    u_decay_exponent, v_left_exponent, v_decay_exponent and the supports
    u_support, v_support.  The inner integral runs over u in R (batched
    across the v nodes requested by the outer quadrature); the outer
    integral runs over v in (0, inf).  Both integrate only over a finite
    support.  Complex values are allowed.
    """
    if not f.v_left_exponent > -1.0:
        raise DivergenceError(
            f"half-plane integral diverges at v=0: exponent {f.v_left_exponent} <= -1",
            endpoint="v-origin",
        )
    if not f.v_decay_exponent > 1.0:
        raise DivergenceError(
            f"half-plane integral diverges as v->inf: decay {f.v_decay_exponent} <= 1",
            endpoint="v-infinity",
        )
    inner_tol = max(tol / 20.0, 1e-13)
    u_bps = tuple(f.u_breakpoints)
    u_decay = f.u_decay_exponent

    # The integral is carried together with a companion |f| mass channel:
    # when the inner integrals cancel to noise, the outer convergence
    # criterion still sees the true two-dimensional scale.
    def outer_integrand(v: np.ndarray):
        vcol = v[:, None]

        def inner_integrand(u: np.ndarray):
            vals = np.asarray(f(u[None, :], vcol))
            return np.stack([vals, np.abs(vals).astype(vals.dtype)])

        return integrate_real_line(
            inner_integrand, inner_tol, breakpoints=u_bps, decay_exponent=u_decay,
            support=f.u_support, max_level=max_level,
        )

    hints = SingularityHints(
        breakpoints=tuple(f.v_breakpoints),
        left_exponent=f.v_left_exponent,
        decay_exponent=f.v_decay_exponent,
    )
    pair = integrate_semiaxis(outer_integrand, hints, tol, support=f.v_support, max_level=max_level)
    return pair[0]


def log_grid_sup(fn, lo: float, hi: float, n_grid: int, iters: int, knots: Sequence[float] = ()) -> float:
    """Heuristic sup of |fn| over [lo, hi], widened to cover every positive
    finite knot (breakpoints, support ends): a geometric grid scan of
    n_grid points, then ``iters`` golden-section steps in log x around the
    best grid point.  A lower bound by construction: a feature narrower
    than the grid step can be missed.  ``fn`` is called on numpy arrays
    (the refinement steps pass one point each); a NaN sample raises
    DomainError naming its abscissa.
    """
    def sample(x):
        vals = np.abs(np.asarray(fn(x)))
        nan = np.isnan(vals)
        if nan.any():
            raise DomainError(f"function is nan at {float(x[nan][0])!r}, inside the sup scan")
        return vals

    ends = [k for k in knots if 0.0 < k < math.inf]
    lo, hi = min([lo, *ends]), max([hi, *ends])
    xs = np.geomspace(lo, hi, n_grid)
    vals = sample(xs)
    i = int(np.argmax(vals))
    la, lb = math.log(xs[max(i - 1, 0)]), math.log(xs[min(i + 1, n_grid - 1)])
    phi = (math.sqrt(5.0) - 1.0) / 2.0

    def at(log_x):
        return float(sample(np.array([math.exp(log_x)]))[0])

    c, d = lb - phi * (lb - la), la + phi * (lb - la)
    fc, fd = at(c), at(d)
    for _ in range(iters):
        if fc >= fd:
            lb, d, fd = d, c, fc
            c = lb - phi * (lb - la)
            fc = at(c)
        else:
            la, c, fc = c, d, fd
            d = la + phi * (lb - la)
            fd = at(d)
    return max(float(np.max(vals)), fc, fd)
