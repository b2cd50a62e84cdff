"""Deterministic adaptive quadrature for the operator laboratory.

Three integration domains appear throughout:

  * the half-line (0, inf)        -- integrate_semiaxis / integrate_truncated
  * the real line                 -- integrate_real_line
  * the upper half-plane          -- integrate_halfplane (iterated)

All of them are built from tanh-sinh (double-exponential) panels.  The
domain is split at every declared breakpoint (and at 1 when a half-line
drive starts at the origin), so integrands are smooth inside each panel
and endpoint power singularities y^sigma, sigma > -1, are absorbed by
the transform.

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
A value that only broadcasts against the nodes (a scalar, a (k, 1)
column) is broadcast first, and a generator of blocks of rows along the
last batch axis is summed block by block as it comes (integrate_halfplane
yields its v rows so).  Each level's value and |value| sums are
per-row contractions, np.einsum("...k,k->...", vals, w), which sum
every row by the same loop whatever the batch: a row gives the same
bits integrated alone or in a family.  A BLAS product (vals @ w,
np.dot) is faster but blocks the rows, so a row's sum would depend on
how many rows share its batch.  Complex integrands are summed as they
come and judged by their modulus; their |value| sums are real.

The |value| sums are the integrand's mass.  The half-plane drives let
the |f| mass scale their tolerance and never judge it: |f| has a kink
where f changes sign, off the knots, so its change need not settle.

integrate_halfplane's outer drive hands each v node's weight down, and
its inner drive over u stops refining (and evaluating) a v row once the
row's weighted change is below rounding of the outer level's weighted
mass; the rows still refining keep their bits.

Divergent requests are rejected up front from the hints (left exponent
<= -1 or decay exponent <= 1) instead of by runaway refinement; the
truncated entry point exists for the divergence-exponent experiments.

Half-plane sources are often supported on part of an axis (boxes,
slabs, one-sided sources), so integrate_real_line and integrate_semiaxis
take the support the integrand vanishes outside (default: the whole
axis), and one rule plans every 1D drive from it: the finite ends of the
support are knots, and only its open ends (the origin and infinity on
the half-line, -inf and inf on the real line) get mapped panels,
completions and the hint checks.  integrate_truncated is the half-line
rule on (0, cutoff), integrate_interval the rule on [a, b].

An integrand value that is NaN or infinite is zeroed only at a fringe
node of an interval panel, closer than 1e-10 (relative to the
half-width) to one of its ends, at any node of a mapped panel, which lies
beyond the outermost knot where the hints certify the decay, and in the
completions: under/overflow there is expected and its true contribution
is below double precision.  Anywhere else the integrand is undefined
inside its domain, and the drive raises DomainError naming the abscissa.
The weights are positive, so a non-finite value leaves its row's sum
non-finite: the drive checks the sums and scans the values only then.

Everything here is pure and reentrant: the node tables are module caches
filled once per level and never modified, and no call mutates shared state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import GeneratorType
from typing import Callable, NamedTuple, Sequence

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
    "integrate_halfplane",
    "log_grid_sup",
]

DEFAULT_TOL_1D = 1e-10
DEFAULT_TOL_2D = 1e-6

_T_MAX = 6.0          # tanh-sinh parameter range; weights underflow beyond
_LOG_TAIL_SPAN = 30.0  # tails integrated numerically out to T*e^30
_PI_HALF = math.pi / 2.0
_MIN_LEVEL = 3         # refinement levels always run before convergence counts
_MAX_LEVEL = 10        # refinement budget of every drive
_BLOCK_ELEMENTS = 1 << 15  # values per call of integrate_halfplane's f, batch included
_EPS = 1e-15           # rounding of a sum relative to its |f| mass (floor and row retirement)


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


def _row_sums(vals: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's weighted sum of vals and of |vals| over the node axis,
    by einsum, never BLAS, so that a row's bits do not depend on its batch
    (see the module docstring)."""
    return np.einsum("...k,k->...", vals, w), np.einsum("...k,k->...", np.abs(vals), w)


def _check_tol(tol: float) -> None:
    """The relative tolerance every entry point accepts: 0 < tol < 0.5."""
    if not 0.0 < tol < 0.5:
        raise ParameterError(f"tolerance must be in (0, 0.5), got {tol}")


def _checked_sums(vals: np.ndarray, x: np.ndarray, w: np.ndarray, panels, level: int):
    """_row_sums of one block of values at a level's nodes x.  A non-finite
    value leaves its row's sum non-finite (the weights are positive): only
    then are the values scanned."""
    if vals.shape[-1:] != x.shape:  # einsum needs the node axis
        vals = np.broadcast_to(vals, np.broadcast_shapes(vals.shape, x.shape))
    sums = _row_sums(vals, w)
    if np.isfinite(sums[0]).all() or np.isfinite(vals).all():
        return sums
    # a mapped panel lies beyond the outermost knots, where the hints
    # certify the decay: all its nodes count as fringe
    fringe = _level_nodes(level)[5]
    edge = np.concatenate([fringe if p.kind is None else np.ones_like(fringe) for p in panels])
    inside = np.nonzero(~np.isfinite(vals) & ~edge)
    if inside[0].size:
        bad = vals[inside][0]   # named by a non-finite part, real or complex
        raise DomainError(f"integrand is {bad.real if not np.isfinite(bad.real) else bad.imag} at "
                          f"{float(x[inside[-1][0]])!r}, away from the ends of its quadrature panel")
    return _row_sums(_sanitize(vals), w)


def _modulus(values, mass):
    """The default magnitude: each entry's modulus, judged and scaling."""
    modulus = np.abs(values)
    return modulus, modulus


class _Weighed(NamedTuple):
    """An integrand of integrate_halfplane's drives, called as fn(x, w,
    live) on the nodes x, their weights w in the drive's rule (|y|/d at a
    completion) and the indices of the rows (the last batch axis) still
    refining, or None for all.  rows holds each row's weight in an outer
    rule (an inner drive, whose rows may retire), or is None."""

    fn: Callable
    rows: np.ndarray | None = None


def _weighed(integrand) -> _Weighed:
    """integrand as a _Weighed: itself, or a plain f(x) with no rows."""
    return integrand if isinstance(integrand, _Weighed) else _Weighed(lambda x, w, live: integrand(x))


def _drive(panels, integrand, tol, completion=0.0, magnitude=_modulus):
    """Run all panels in lockstep, refining until the total settles.

    magnitude(values, mass) -> (judged, scale) maps a total, or its change
    between levels, and the level's mass (the rule on |integrand|, without
    completion) to nonnegative entries.  The drive stops when the largest
    judged entry of the change is within tol of the largest entry, judged
    or scale, of the total, the batch sup norm: scale entries only enlarge
    the tolerance.  The rows of a _Weighed integrand with row weights
    retire by integrate_halfplane's rule, with judged and scale for |I|
    and M.  A retired row keeps its total and mass, so its change is 0 and
    the rule judges the live rows' change against every row."""
    _check_tol(tol)
    plan = _plan(panels)
    call, rows = _weighed(integrand)
    retired = None if rows is None else np.zeros(rows.size, dtype=bool)
    partial = mass = prev = live = None
    change = math.inf
    for level in range(_MAX_LEVEL + 1):
        x, w = _plan_nodes(plan, level)
        with np.errstate(all="ignore"):
            vals = call(x, w, live)
            if isinstance(vals, GeneratorType):  # blocks of rows, each summed as it comes
                sums = [_checked_sums(np.asarray(block), x, w, panels, level) for block in vals]
                contrib, absorb = (np.concatenate(part, axis=-1) for part in zip(*sums))
            else:
                contrib, absorb = _checked_sums(np.asarray(vals), x, w, panels, level)
        if live is None:
            partial = contrib if partial is None else partial + contrib
            mass = absorb if mass is None else mass + absorb
        else:   # the sums of the live rows only
            partial[..., live] += contrib
            mass[..., live] += absorb
        total = (2.0 ** (-level)) * partial + completion
        level_mass = (2.0 ** (-level)) * mass
        if live is not None:
            total, level_mass = np.where(retired, prev, total), np.where(retired, prev_mass, level_mass)
        if prev is not None:
            delta = magnitude(total - prev, level_mass)[0]
            change = float(delta.max())
        if level >= _MIN_LEVEL:
            judged, scale = magnitude(total, level_mass)
            # the mass floor recognizes cancellation-to-zero: nothing below
            # machine epsilon times the L1 mass is resolvable anyway
            floor = _EPS * float(level_mass.max()) + 1e-300
            if change <= max(tol * max(float(judged.max()), float(scale.max())), floor):
                return total
            if rows is not None:
                bound = _EPS * (np.maximum(judged, scale) * rows).sum(axis=-1, keepdims=True) / rows.size
                retired |= (delta * rows <= bound).reshape(-1, rows.size).all(axis=0)
                if retired.all():
                    return total
                live = np.flatnonzero(~retired) if retired.any() else None
        prev, prev_mass = total, level_mass
    raise AccuracyError(
        f"quadrature did not reach tol={tol} within {_MAX_LEVEL} refinement levels "
        f"(last change {change:.3e})",
        estimate=total,
        last_change=change,
    )


def _completion(integrand, ends) -> float | np.ndarray:
    """Power-law completions sum_i f(y_i) |y_i| / d of the mass beyond the
    outermost nodes y_i: one integrand call per (points y, denominator d)
    end of a plan, each end's term added to the sum of the ends before it.
    A _Weighed integrand is called on every row, with the weights |y_i| / d."""
    total = 0.0
    for k, (y, denominator) in enumerate(ends):
        y = np.array(y, dtype=float)
        with np.errstate(all="ignore"):
            vals = _weighed(integrand).fn(y, np.abs(y) / denominator, None)
            if isinstance(vals, GeneratorType):  # blocks of rows, small at these few points
                vals = np.concatenate(list(vals), axis=-2)
            vals = _sanitize(np.asarray(vals))
        term = (vals * np.abs(y)).sum(axis=-1) / denominator
        total = term + total if k else term
    return total


def _support_plan(support: tuple[float, float], floor: float, breakpoints: Sequence[float],
                  left_exponent: float = 0.0, decay_exponent: float = math.inf):
    """Panels and completion ends for an integrand that vanishes outside
    support = (lo, hi) on the axis (floor, inf), floor 0 (the half-line)
    or -inf (the real line).

    Interval panels run between the knots: the breakpoints inside the
    support, its finite ends above the floor, and 1 when the half-line
    origin panel is present.  Mapped panels go only at the open ends, in
    the order origin (lo = 0 on the half-line), intervals, right tail
    (hi = inf), left tail (lo = -inf), and only those ends are checked
    against the exponents and completed: the origin by the left exponent,
    the tails, whose far points share one end, by the decay exponent.  An
    empty support (lo >= hi, such as a zero function's (inf, -inf)) keeps
    the whole axis.
    """
    half = floor == 0.0
    lo, hi = max(support[0], floor), support[1]
    if not lo < hi:
        lo, hi = floor, math.inf
    origin, right, left = half and lo == 0.0, hi == math.inf, lo == -math.inf
    if origin and not left_exponent > -1.0:
        raise DivergenceError(f"integral diverges at the origin: left exponent {left_exponent} <= -1",
                              endpoint="origin")
    if (right or left) and not decay_exponent > 1.0:
        what, endpoint = ("integral diverges at infinity", "infinity") if half else \
            ("real-line integral diverges", "u-infinity")
        raise DivergenceError(f"{what}: decay exponent {decay_exponent} <= 1", endpoint=endpoint)
    knots = {float(b) for b in breakpoints if lo < b < hi}
    knots.update(e for e in (lo, hi) if floor < e < math.inf)
    if origin and 1.0 < hi:
        knots.add(1.0)
    knots = sorted(knots) or [0.0]
    panels = [_Panel(kind="exp", base=knots[0], sign=-1.0)] if origin else []
    panels.extend(_Panel(a, b) for a, b in zip(knots, knots[1:]))
    ends = [([knots[0] * math.exp(-_LOG_TAIL_SPAN)], left_exponent + 1.0)] if origin else []
    far = []
    if right:
        panels.append(_Panel(kind="exp" if half else "expm1", base=knots[-1]))
        far.append(knots[-1] * math.exp(_LOG_TAIL_SPAN) if half else knots[-1] + math.expm1(_LOG_TAIL_SPAN))
    if left:
        panels.append(_Panel(kind="expm1", base=knots[0], sign=-1.0))
        far.append(knots[0] - math.expm1(_LOG_TAIL_SPAN))
    if far and math.isfinite(decay_exponent):
        ends.append((far, decay_exponent - 1.0))
    return panels, ends


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------

# No 1D entry point calls another: each one runs exactly one drive.

def integrate_semiaxis(f, hints: SingularityHints, tol: float = DEFAULT_TOL_1D, *,
                       support: tuple[float, float] = (0.0, math.inf), magnitude=_modulus):
    """Integral of f over (0, inf) to relative tolerance ``tol``.

    ``f`` is called on numpy arrays of nodes and may return a batch with
    node values along the last axis; the result then has the batch shape.
    Raises DivergenceError when the hints say the integral cannot
    converge, AccuracyError when the refinement budget runs out.  An f
    that vanishes outside a ``support`` [lo, hi] is integrated over it
    only: its finite ends are knots (with the breakpoints inside it), and
    only an open end (lo = 0, hi = inf) gets a mapped panel, a completion
    and the check of its exponent.  ``magnitude(values, mass)`` returns
    (judged, scale) entries of a result, or of its change, and the |f|
    mass (see _drive); the default judges every modulus, and
    integrate_halfplane's hooks let the |f| mass only scale.
    """
    panels, ends = _support_plan(support, 0.0, hints.breakpoints,
                                 hints.left_exponent, hints.decay_exponent)
    return _drive(panels, f, tol, _completion(f, ends), magnitude)


def integrate_truncated(f, hints: SingularityHints, cutoff: float, tol: float = DEFAULT_TOL_1D):
    """Integral of f over (0, cutoff]: the half-line rule for the support
    (0, cutoff), so only the origin needs to converge.

    This is the entry point for divergence-exponent experiments where the
    full half-line integral is deliberately infinite.
    """
    if not (cutoff > 0.0 and math.isfinite(cutoff)):
        raise ParameterError(f"cutoff must be positive finite, got {cutoff}")
    panels, ends = _support_plan((0.0, cutoff), 0.0, hints.breakpoints,
                                 hints.left_exponent, hints.decay_exponent)
    return _drive(panels, f, tol, _completion(f, ends))


def integrate_interval(f, a: float, b: float, tol: float = DEFAULT_TOL_1D, *, breakpoints: Sequence[float] = ()):
    """Integral of f over the finite interval [a, b] (endpoint singularities ok)."""
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ParameterError(f"need finite a < b, got [{a}, {b}]")
    return _drive(_support_plan((a, b), -math.inf, breakpoints)[0], f, tol)


def integrate_real_line(f, tol: float = DEFAULT_TOL_1D, *, breakpoints: Sequence[float] = (),
                        decay_exponent: float = math.inf,
                        support: tuple[float, float] = (-math.inf, math.inf), magnitude=_modulus):
    """Integral of f over the whole real line.

    ``decay_exponent`` is the power behaviour |u|^(-tau) for |u| -> inf
    and must exceed 1 at an open end.  Batched integrands are supported
    exactly as in integrate_semiaxis, and so are ``support`` and
    ``magnitude``: the finite ends of the support are knots, and only an
    infinite end gets a tail panel, a completion and the decay check.
    """
    panels, ends = _support_plan(support, -math.inf, breakpoints, decay_exponent=decay_exponent)
    return _drive(panels, f, tol, _completion(f, ends), magnitude)


def integrate_halfplane(f, tol: float = DEFAULT_TOL_2D):
    """Iterated integral of f over the upper half-plane R x (0, inf).

    ``f`` is a Func2D-style object: callable as f(u, v) on broadcasting
    arrays, carrying hint attributes u_breakpoints, v_breakpoints,
    u_decay_exponent, v_left_exponent, v_decay_exponent and the supports
    u_support, v_support.  The inner integral runs over u in R (batched
    across the v nodes requested by the outer quadrature); the outer
    integral runs over v in (0, inf).  Both integrate only over the
    support, and both are the 1D integrators with the one refinement
    budget of every drive, so a divergent hint raises their DivergenceError.
    The first coordinate need not be u itself: bergman passes kernel
    integrands of whole-line sources over a finite angle coordinate, with
    its support and knot.  f may return a batch, axes before (v, u), and the result
    then has the batch shape (bergman passes abscissae).  f is called on
    blocks of v rows of at most _BLOCK_ELEMENTS values, batch included, or
    on one row where a row holds more, the first call on one row to read
    the batch shape; the inner drive sums each block as it comes, and each
    row alone, so the blocks change no bit.

    f may be real or complex, and the result is of its type.  Each drive
    judges the value's modulus and lets the |f| mass scale its tolerance,
    so that inner integrals and batches that cancel to noise converge.
    The mass is integrated but never judged: the inner drive's |value|
    row sums, carried to the outer drive as a (value, mass) channel pair.

    The outer drive hands each v row's weight down (its tanh-sinh weight,
    or |v|/denominator at a completion).  From _MIN_LEVEL on, the inner
    drive retires row j once w_j |change_j| <= _EPS sum_k w_k max(|I_k|,
    M_k) / n over its n rows, values I and masses M, at every entry of the
    batch: together the retired rows move the outer level's sum by at most
    rounding of its weighted mass.  A retired row keeps its value and mass,
    and later levels call f on the live rows only, in the same blocks.
    """
    inner_tol = max(tol / 20.0, 1e-13)
    batch = None   # f's batch shape, from its first call
    mass = None    # the |f| mass where the last inner drive returned

    def inner_magnitude(values, level_mass):
        nonlocal mass
        mass = level_mass
        return np.abs(values), level_mass

    def outer_integrand(v: np.ndarray, weights: np.ndarray, _):
        def inner_integrand(u: np.ndarray, _, live):
            nonlocal batch
            rows = v if live is None else v[live]
            start = 0
            while start < rows.size:
                block = 1 if batch is None else max(1, _BLOCK_ELEMENTS // (math.prod(batch) * u.size))
                vals = np.asarray(f(u[None, :], rows[start:start + block, None]))
                if batch is None:
                    batch = np.broadcast_shapes(vals.shape, (1, u.size))[:-2]
                shape = (*batch, min(block, rows.size - start), u.size)
                yield vals if vals.shape == shape else np.broadcast_to(vals, shape)
                start += block

        values = integrate_real_line(_Weighed(inner_integrand, weights), inner_tol,
                                     breakpoints=tuple(f.u_breakpoints), decay_exponent=f.u_decay_exponent,
                                     support=f.u_support, magnitude=inner_magnitude)
        return np.stack([values, mass])

    hints = SingularityHints(tuple(f.v_breakpoints), f.v_left_exponent, f.v_decay_exponent)
    return integrate_semiaxis(_Weighed(outer_integrand), hints, tol, support=f.v_support,
                              magnitude=_channel_magnitude)[0]


def _channel_magnitude(channels: np.ndarray, mass) -> tuple[np.ndarray, np.ndarray]:
    """(judged, scale) of (value, |f| mass) channels: the value's modulus,
    and the mass, which only scales."""
    return np.abs(channels[0]), channels[1].real


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
