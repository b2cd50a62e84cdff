"""The two-parameter-weighted Hilbert-type operator family on (0, inf).

The operator under study is

    H f(x) = x^alpha * int_0^inf f(y) y^beta / (x+y)^gamma dy,

acting between weighted spaces L^p_a = L^p((0,inf), x^a dx).  This module
provides:

  * pointwise application of H and of its weighted adjoint: in closed
    form, through the incomplete Beta function, for sums of pieces
    c*y^s*ind(lo,hi), and by quadrature for every other source,
  * weighted norms (essential sup for p = inf via a documented
    grid-plus-refinement heuristic); H f is itself a Func1D whose
    endpoint exponents are derived in one place, so its norms, the
    duality pairing and the co-dilating window norm read the same hints,
  * re-exported from oplab.theory, where they need no numpy: the
    boundedness verdicts from the parameter criteria -- the balance
    relation gamma = alpha + beta + 1 - (a+1)/p + (b+1)/q together with
    the weight window -p(gamma-beta-1) < a+1 < p(beta+1) in the finite
    regime, and the endpoint variants for q = inf and p = q = inf -- and
    the closed-form sharp norm B(beta+1-(a+1)/p, alpha+(a+1)/p) in the
    diagonal case gamma = alpha+beta+1 (reducing to B(beta-a, alpha+a+1)
    at p = 1 and B(beta+1, alpha) at p = inf),
  * the truncated-power extremal family whose Rayleigh quotients approach
    the sharp norm from below as xi -> 0, each the sum of two incomplete
    Beta values B_{1/2}, applied as H of two pieces at x = 1,
  * dilation-covariance residuals and the dilation growth-exponent
    experiment that reproduces the necessity of the balance relation.

Extended-real conventions: p = inf is spelled math.inf, (a+1)/inf = 0,
and the conjugate exponent of 1 is inf.  All operations are pure given
(params, f); sweeps can run concurrently and merge in input order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import quad
from .errors import DivergenceError, DomainError, ParameterError
from .funcdsl import BinOp, Func1D, Ind, Pow, Var, func1d
from .quad import SingularityHints
from .specfun import beta as beta_fn  # noqa: F401 (bound for perfbench/tracing.py, which wraps it)
from .theory import (OperatorParams, WeightedSpaceSpec, conjugate_exponent,
                     diagonal_relation, finite_criteria, hilbert_verdict, sharp_norm,
                     solve_gamma, source_window_holds, sup_criteria, target_window_holds,
                     to_sup_criteria, weight_term)

__all__ = [
    "OperatorParams", "WeightedSpaceSpec", "ExtremalFamily",
    "apply_H", "apply_H_many", "apply_H_adjoint",
    "weighted_lp_norm", "hilbert_verdict", "sharp_norm",
    "extremal_quotient", "dilation_residual", "growth_exponent",
    "solve_gamma", "source_window_holds", "target_window_holds",
    "bilinear_pairing", "image_norm", "conjugate_exponent", "weight_term",
    "diagonal_relation", "sup_criteria", "to_sup_criteria", "finite_criteria",
]

_BATCH = 64  # x-chunk size for batched applications (bounds peak memory)
_ROW_PROBES = 512  # probes per _beta_segment call of a multi-source _apply_pieces (bounds peak memory)
_SEGMENTS = 4096  # (probe, piece, side) candidates per _beta_segment call (bounds peak memory)


@dataclass(frozen=True)
class ExtremalFamily:
    """Truncated-power pair indexed by xi: f = x^(-(a+1+xi)/p) on [1, inf)."""

    xi: float
    space: WeightedSpaceSpec

    def window(self, params: OperatorParams) -> float:
        return self.space.p * (params.beta + 1.0) - (self.space.a + 1.0)

    def validate(self, params: OperatorParams):
        if not 0.0 < self.xi < self.window(params):
            raise ParameterError(
                f"xi must lie in (0, p(beta+1)-(a+1)) = (0, {self.window(params)}), got {self.xi}"
            )

    def correction_bound(self, params: OperatorParams) -> float:
        """xi*C, the proof's bound on xi*corr in quotient = lead - xi*corr:
        (x+y)^-gamma <= x^-gamma on the correction square gives
        C = 1/((beta+1-e_f)(beta+1-e_f+xi)), e_f = (a+1+xi)/p, in the window."""
        self.validate(params)
        gap = params.beta + 1.0 - (self.space.a + 1.0 + self.xi) / self.space.p
        return self.xi / (gap * (gap + self.xi))


# --------------------------------------------------------------------------
# operator application
# --------------------------------------------------------------------------

def _image_integrand_hints(params: OperatorParams, f: Func1D) -> SingularityHints:
    left = f.left_exponent + params.beta
    decay = f.decay_exponent - params.beta + params.gamma
    return SingularityHints(f.breakpoints, left, decay)


_SERIES_CAP = 1024        # most terms before the series gives up
_SERIES_TAIL = 2.0 ** -56  # tail bound relative to the partial sum
_SERIES_COND = 32.0       # largest sum |terms| / |sum| accepted
_SERIES_ENDS = 8 * 2 ** np.arange(8)  # the row counts an element is sized to: 8 .. _SERIES_CAP
_SERIES_SPLIT = 1024      # terms a stop must save to pay for its numpy calls
_ROWS = np.arange(_SERIES_CAP, dtype=float)[:, None]
_THETA = np.array([0.5, 0.75])[:, None, None]  # the bounds on z2*grow that reach takes the best of
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max  # the normal range
_SIDES = np.array([1.0, -1.0])


class _Series(NamedTuple):
    """_beta_segment's constants for K Beta parameter pairs (a, b), never
    written: the coefficients (1-b)_n/n! of the rows n that an element
    can be sized to (see _series), one column per pair, and scaled, the
    same over -(a+n); the pairs whose a is a non-positive integer (a log
    term at n = -a), None if there are none; and per pair and row count
    N of _SERIES_ENDS, the bound grow = max(1, |1-b/N|) on the later term
    ratios over z2 (inf where a+N <= 1, which the tail test excludes) and
    reach, the largest z2 that N rows are sized for."""

    a: np.ndarray
    b: np.ndarray
    coef: np.ndarray
    scaled: np.ndarray
    pole: np.ndarray | None
    grow: np.ndarray
    reach: np.ndarray


def _series(a, b) -> _Series:
    """The _Series of the pairs (a[i], b[i]).  For a sum that is accepted,
    N rows pass the tail test when z2 g (C z2^(N-1) + 2^-56) <= 2^-56,
    g = grow and C = _SERIES_COND |(1-b)_(N-1)/(N-1)!|, which
    z2 <= min((2^-56 (1-theta)/(g C))^(1/N), theta/g) ensures for every
    theta < 1.  reach is the larger of that bound at theta = 1/2 and 3/4
    (3/4 covers z2 = 1/2 when b < 0 makes g > 1), and its running maximum
    over N, so that the first N whose reach is at least z2 is the first N
    that is enough.  As z2 <= 1/2, the tables stop at the first N whose
    reach is 1/2 or more for every pair, or at _SERIES_CAP."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    ends = _SERIES_ENDS
    with np.errstate(all="ignore"):
        step = 1.0 - b / np.maximum(_ROWS, 1.0)  # coefficient n over n-1
        step[0] = 1.0
        coef = np.cumprod(step, axis=0)
        grow = np.where(a[:, None] + ends > 1.0, np.maximum(1.0, np.abs(1.0 - b[:, None] / ends)), np.inf)
        size = _SERIES_COND * np.abs(coef[ends - 1].T)
        reach = np.minimum((_SERIES_TAIL * (1.0 - _THETA) / (grow * size)) ** (1.0 / ends),
                           _THETA / grow).max(axis=0)
        reach = np.maximum.accumulate(reach, axis=1)
        rows = ends[min((reach < 0.5).any(axis=0).sum(), len(ends) - 1)]
        coef = coef[:rows].copy()
        scaled = coef / (-_ROWS[:rows] - a)
    pole = (a <= 0.0) & (a == np.round(a))
    return _Series(a, b, coef, scaled, pole if pole.any() else None, grow, reach)


def _terms(table, scaled, col, a, powers, log_ratio, n, pole):
    """The series rows n (a column of consecutive row numbers, one per
    row of the coefficients table and of scaled, the table over -(a+n))
    of the elements (col, a, log_ratio), less the factor z2^a:
    coef_n z2^n (1-(z1/z2)^k)/k, k = a+n, or coef_n z2^n log(z2/z1) at
    k = 0 in a pole column."""
    terms = np.take(scaled, col, axis=1)
    terms *= powers
    neg_k = -n - a
    neg_k *= log_ratio
    terms *= np.expm1(neg_k, out=neg_k)
    if pole is not None:
        cols = np.flatnonzero(pole[col])
        row = -a[cols] - n[0, 0]   # the row of the term k = 0
        hit = (0.0 <= row) & (row < n.size)
        cols, row = cols[hit], row[hit].astype(int)
        terms[row, cols] = table[row, col[cols]] * powers[row, cols] * log_ratio[cols]
    return terms


def _beta_segment(series: _Series, col, z1, z2, dz, x, e):
    """x^e * int_{z1}^{z2} z^(a-1) (1-z)^(b-1) dz for 0 <= z1 <= z2 <= 1/2,
    x > 0 and (a, b) the pair col of series (built by _series), with
    dz = z2 - z1 formed by the caller without subtracting z values; all
    arguments but series are 1-D arrays of one size.

    Expanding (1-z)^(b-1) gives the series (DLMF 8.17.7 integrated term
    by term)

        sum_n (1-b)_n/n! * (z2^(a+n) - z1^(a+n)) / (a+n),

    valid for any a when z1 > 0 (the analytic continuation in a), and for
    a > 0 when z1 = 0.  Each difference is z2^k * -expm1(-k*log1p(dz/z1)),
    k = a+n, free of cancellation on narrow segments; where a is a
    non-positive integer, the term n = -a has k = 0 and is the limit
    z2^0 * log(z2/z1).  An element is summed until the tail bound
    |term_n| * rho/(1-rho), rho = z2*max(1, |1-b/(n+1)|) (the largest
    later term ratio), falls below 2^-56 of the partial sum.

    Rows are sized before they are summed.  Term n is at most
    |(1-b)_n/n!| z2^n times the first, and an accepted sum is at least the
    first over _SERIES_COND, so an element gets the first N of 8, 16, 32,
    ..., _SERIES_CAP at which that bound passes the tail test (_series),
    and the cap where none does; the elements of an N run on to the next
    N in use unless stopping saves _SERIES_SPLIT terms, the cost of a
    chunk's numpy calls.  Ordered by N, the elements get each chunk of
    rows over the run that still needs it, the tail bound judges each at
    its N, and each element's terms are summed pairwise over its own rows.

    The result is NaN where the tail bound rejects the sum (more than
    _SERIES_CAP terms would be needed), where the terms cancel by more
    than a factor _SERIES_COND (large b near z = 1/2), so that the value
    would lose more than ~1e-14 relative, and where x^e, z2^a, their
    product or the value leaves the range of normal floats: an underflow
    there would cost precision silently.  A value whose logarithm lies
    below that range is 0.
    """
    pole = series.pole
    with np.errstate(all="ignore"):
        log_z2 = np.log(z2)
        log_ratio = np.log1p(dz / z1)   # log(z2/z1), inf at z1 = 0
        ends = _SERIES_ENDS.tolist()
        need = np.minimum((z2[:, None] > series.reach[col]).sum(axis=1), len(ends) - 1)  # index of N
        count = np.bincount(need, minlength=len(ends)).tolist()
        target, up = list(range(len(ends))), None
        for j in reversed(range(len(ends))):
            if count[j] and up is not None and count[j] * (ends[up] - ends[j]) < _SERIES_SPLIT:
                target[j], count[up], count[j] = up, count[up] + count[j], 0
            elif count[j]:
                up = j
        need = np.take(target, need)
        order = need.argsort(kind="stable")
        need, s_col = need[order], col[order]
        s_a, s_log_z2, s_log_ratio = series.a[s_col], log_z2[order], log_ratio[order]
        # the terms, F-ordered: each element's column sums pairwise over its own rows
        terms = np.empty((col.size, _SERIES_ENDS[need.max(initial=0)])).T
        total, absum, last = np.zeros(col.size), np.zeros(col.size), np.zeros(col.size)
        start, lo = 0, 0
        for stop, hi in zip(ends, itertools.accumulate(count)):
            if hi == lo:   # no element ends at this N
                continue
            n = _ROWS[start:stop]
            terms[start:stop, lo:] = _terms(series.coef[start:stop], series.scaled[start:stop], s_col[lo:],
                                            s_a[lo:], np.exp(n * s_log_z2[lo:]), s_log_ratio[lo:], n, pole)
            ending = terms[:stop, lo:hi]
            size = np.abs(ending)
            total[lo:hi], absum[lo:hi], last[lo:hi] = (
                np.add.reduce(ending, axis=0), np.add.reduce(size, axis=0), size[-1])
            start, lo = stop, hi
        rho = z2[order] * series.grow[s_col, need]
        done = (rho < 1.0) & (last * rho <= (1.0 - rho) * _SERIES_TAIL * np.abs(total))
        accepted = np.empty(col.size)
        accepted[order] = np.where(done & (absum <= _SERIES_COND * np.abs(total)), total, np.nan)
        a = series.a[col]
        x_e, z2_a = x ** e, z2 ** a
        scale = x_e * z2_a
        value = accepted * scale
        checks = np.array([x_e, z2_a, scale, np.abs(value)])
        if not (checks.min() >= _TINY and checks.max() <= _HUGE):
            odd = np.flatnonzero(~((checks.min(axis=0) >= _TINY) & (checks.max(axis=0) <= _HUGE)))
            underflow = (e[odd] * np.log(x[odd]) + a[odd] * log_z2[odd]
                         + np.log(np.abs(accepted[odd])) < np.log(_TINY))
            value[odd] = np.where(underflow, 0.0, np.nan)
    return value


def _pair_series(params: OperatorParams, s: tuple) -> _Series:
    """The _Series of pieces with the exponents s, kept in the cached
    _piece_constants of their sources: pair 2j is piece j's segment below
    y = x, (a, b) = (m+1, gamma-m-1), m = s[j]+beta, and pair 2j+1 the
    one above it, (b, a)."""
    m = np.array(s, dtype=float) + params.beta
    a, b = m + 1.0, params.gamma - m - 1.0
    return _series(np.column_stack([a, b]).ravel(), np.column_stack([b, a]).ravel())


@functools.lru_cache(maxsize=16)
def _piece_constants(params: OperatorParams, sources: tuple):
    """_apply_pieces' constants of k sources (piece tuples), kept for the
    last 16 families: per source and piece, padded with pieces no probe
    meets, lo, hi, the edges (lo, -hi), e, c and the column below y = x in
    the one _pair_series of the distinct exponent tuples (the dilations of
    a source share theirs); and which sources diverge."""
    width = max(map(len, sources))
    c, s, lo, hi = np.array([pieces + ((0.0, 0.0, np.inf, -np.inf),) * (width - len(pieces))
                             for pieces in sources], dtype=float).transpose(2, 0, 1)
    exps = [tuple(term[1] for term in pieces) for pieces in sources]
    distinct = list(dict.fromkeys(exps))
    starts = dict(zip(distinct, itertools.accumulate(map(len, distinct), initial=0)))
    col = 2 * (np.array([starts[x] for x in exps])[:, None] + np.arange(width))
    m = s + params.beta
    e = params.alpha + m + 1.0 - params.gamma
    diverges = ((lo == 0.0) & (m + 1.0 <= 0.0)) | ((hi == np.inf) & (params.gamma - m - 1.0 <= 0.0))
    edges = np.stack([lo, -hi], axis=-1)   # a segment exists where edges < (x, -x)
    return lo, hi, edges, e, c, col, diverges.any(axis=1), _pair_series(params, sum(distinct, ()))


def _apply_pieces(params: OperatorParams, sources, xs: np.ndarray) -> np.ndarray:
    """H f_i(xs[i]) in closed form for k sources f_i = sum c*y^s*ind(lo,hi),
    given as their piece tuples, at probes xs of shape (k, n): NaN at
    probes where a series gives up, and in every row whose source has a
    divergent piece (then the quadrature raises its DivergenceError).

    With y = x*t a piece gives c*x^e int t^m (1+t)^-gamma dt over
    [lo, hi]/x, m = s+beta, e = alpha+m+1-gamma.  Split at y = x: on
    [lo, min(hi, x)], z = y/(x+y) makes it the Beta segment
    (a, b) = (m+1, gamma-m-1); on [max(lo, x), hi], z = x/(x+y) makes it
    the segment (b, a).  Both keep z <= 1/2.  A Beta parameter that is a
    non-positive integer gives the series' log term; it has z1 > 0 on every
    piece that converges.  The width dz = z2 - z1 of a segment [y1, y2]
    is (x/t1) * ((y2-y1)/t2), t = x+y (x/t1 at y2 = inf): both ratios
    lie in (0, 1], so it cannot overflow and underflows only where dz
    itself does.  Each probe meets only its own source's pieces.
    The segments of a call go to _beta_segment in chunks of whole rows of
    about _ROW_PROBES probes, so that a family's series stay as small as
    one source's; a chunk with more than _SEGMENTS (probe, piece, side)
    candidates is split into fewer rows, and a row with more into runs of
    its probes, so that the series of many pieces stay bounded too.
    """
    lo, hi, edges, e, c, col, diverges, series = _piece_constants(params, tuple(sources))
    out = np.full(xs.shape, np.nan)
    live = np.flatnonzero(~diverges)
    n, sides = xs.shape[1], 2 * lo.shape[1]
    step = max(1, min(_ROW_PROBES // max(n, 1), _SEGMENTS // max(n * sides, 1)))
    run = max(1, n if n * sides <= _SEGMENTS else _SEGMENTS // sides)
    for first, start in itertools.product(range(0, live.size, step), range(0, n, run)):
        rows, probes = live[first:first + step], slice(start, start + run)
        x = xs[rows, probes]
        # the segment [y1, y2] of each probe and piece below y = x (side 0) and above it (side 1)
        exists = edges[rows, None] < x[:, :, None, None] * _SIDES
        at, probe, piece, side = exists.nonzero()
        row = rows[at]
        above = side == 1
        xe, lo_e, hi_e = x[at, probe], lo[row, piece], hi[row, piece]
        y1 = np.where(above, np.maximum(lo_e, xe), lo_e)
        y2 = np.where(above, hi_e, np.minimum(hi_e, xe))
        t1, t2 = xe + y1, xe + y2
        x_t1 = xe / t1
        with np.errstate(invalid="ignore"):
            dz = np.where(np.isinf(y2), x_t1, x_t1 * ((y2 - y1) / t2))
            segments = _beta_segment(
                series, col[row, piece] + side,
                np.where(above, xe / t2, y1 / t1),
                np.where(above, x_t1, y2 / t2),
                dz, xe, e[row, piece])
        seg = np.zeros(exists.shape)
        seg[exists] = segments
        out[rows, probes] = (c[rows, None] * seg.sum(axis=3)).sum(axis=2)
    return out


def apply_H(params: OperatorParams, f: Func1D, x: float, tol: float = quad.DEFAULT_TOL_1D) -> float:
    """H f(x) = x^alpha * int_0^inf f(y) y^beta (x+y)^-gamma dy."""
    return float(apply_H_many(params, f, np.array([float(x)]), tol)[0])


def apply_H_many(params: OperatorParams, f: Func1D, xs, tol: float = quad.DEFAULT_TOL_1D) -> np.ndarray:
    """Vectorized apply_H over an array of probe points.

    A source with ``pieces`` (a sum of c*y^s*ind(lo,hi)) is applied in
    closed form through the incomplete Beta series of _beta_segment,
    accurate to ~1e-14 relative whatever ``tol``: each segment is summed
    over the 8, 16, 32, ... or up to 1024 terms its z and Beta parameters
    call for.  The source's constants (exponents, divergence test) are
    built once per (params, pieces) and the series tables (log-term
    flags, coefficients) once per (params, piece exponents), so the calls
    of one norm or pairing share them.  Every other source, and every
    probe where the series gives up, runs the adaptive quadrature (one
    shared refinement per batch of probes), which also raises
    DivergenceError for a divergent piece.  Probes must be positive and
    finite (DomainError); no probes give an empty array.  This is the
    one-source case of _apply_rows, through which growth_exponent applies
    all the dilations of a source in one call per level.
    """
    quad._check_tol(tol)
    xs = np.asarray(xs, dtype=float)
    admitted = (xs > 0) & (xs < np.inf)
    if not admitted.all():
        raise DomainError(f"probe points must be positive and finite, got {xs[~admitted].tolist()}")
    return _apply_rows(params, [f], xs.reshape(1, -1), tol).reshape(xs.shape)


def _apply_rows(params: OperatorParams, fs, xs: np.ndarray, tol: float) -> np.ndarray:
    """H f_i(xs[i]) for the sources fs at positive finite probes xs of
    shape (len(fs), n), each at the probe asked for: one _apply_pieces
    call when every source has pieces, then _apply_quad at ``tol`` for
    each source at its probes that are left NaN, which raises
    DivergenceError for a divergent piece.  A probe is never moved: an
    enclosing drive places none below its first knot times ~e^-30 (quad's
    origin panel)."""
    pieces = [f.pieces for f in fs]
    out = _apply_pieces(params, pieces, xs) if all(pieces) and xs.size else np.full(xs.shape, np.nan)
    rest = ~np.isfinite(out)
    for i in np.flatnonzero(rest.any(axis=1)):
        out[i, rest[i]] = _apply_quad(params, fs[i], xs[i, rest[i]], tol)
    return out


def _apply_quad(params: OperatorParams, f: Func1D, xs_eval: np.ndarray, tol: float) -> np.ndarray:
    """apply_H_many by quadrature, one drive per batch of probes."""
    base_hints = _image_integrand_hints(params, f)
    al, be, ga = params.alpha, params.beta, params.gamma
    out = np.empty_like(xs_eval)
    for start in range(0, xs_eval.size, _BATCH):
        chunk = xs_eval[start:start + _BATCH]
        col = chunk[:, None]
        # Splitting at the probe scale puts the (x+y) knee at a panel
        # edge, where the double-exponential clustering resolves it.
        hints = SingularityHints(
            base_hints.breakpoints + (float(chunk.min()), float(chunk.max())),
            base_hints.left_exponent,
            base_hints.decay_exponent,
        )

        def integrand(y):
            return f(y)[None, :] * y[None, :] ** be * (col + y[None, :]) ** (-ga)

        out[start:start + _BATCH] = quad.integrate_semiaxis(integrand, hints, tol)
    return xs_eval ** al * out


def apply_H_adjoint(params: OperatorParams, a: float, b: float, f: Func1D, y: float,
                    tol: float = quad.DEFAULT_TOL_1D) -> float:
    """Adjoint of H between L^p_a and L^q_b:

        H* f(y) = y^(beta-a) * int_0^inf f(x) x^(alpha+b) (x+y)^-gamma dx,

    which is H itself with the exponent triple (beta-a, alpha+b, gamma).
    """
    return apply_H(OperatorParams(params.beta - a, params.alpha + b, params.gamma), f, y, tol)


# --------------------------------------------------------------------------
# weighted norms
# --------------------------------------------------------------------------

def weighted_lp_norm(f: Func1D, space: WeightedSpaceSpec, tol: float = quad.DEFAULT_TOL_1D) -> float:
    """|| f ||_{p,a} = (int_0^inf |f|^p x^a dx)^(1/p), or the essential sup.

    For finite p, a source whose ``pieces`` c*x^s*ind(lo,hi) do not
    overlap has the closed form (sum |c|^p (hi^e - lo^e)/e)^(1/p),
    e = sp+a+1 (_piece_norm), with no drive and whatever ``tol``; other
    sources run the quadrature.  The p = inf norm is inf when f's hint
    exponents say f is unbounded at 0 or at infinity; otherwise it is a
    documented heuristic lower bound: a 481-point log-grid scan over
    [1e-6, 1e6], widened to f's breakpoints, refined by 90 golden-section
    steps around the best point (quad.log_grid_sup).
    """
    if math.isinf(space.p):
        if f.left_exponent < 0.0 or f.decay_exponent < 0.0:
            return math.inf
        return quad.log_grid_sup(f, 1e-6, 1e6, 481, 90, knots=f.breakpoints)
    p, a = space.p, space.a
    if f.pieces:
        norm = _piece_norm(f.pieces, p, a)
        if norm is not None:
            return norm
    hints = SingularityHints(
        f.breakpoints,
        p * f.left_exponent + a,
        p * f.decay_exponent - a,
    )

    def integrand(y):
        return np.abs(f(y)) ** p * y ** a

    val = float(quad.integrate_semiaxis(integrand, hints, tol))
    return val ** (1.0 / p)


def _piece_norm(pieces, p: float, a: float) -> float | None:
    """(sum |c|^p int_lo^hi y^(sp+a) dy)^(1/p) over the pieces
    c*y^s*ind(lo,hi) with c != 0, or None when two of them overlap.

    A piece gives |c|^p B^e (1 - (b/B)^|e|)/|e|, e = sp+a+1, with B the
    end that dominates y^e (hi for e > 0, lo for e < 0) and b the other;
    (b/B)^|e| = exp(-|e| log(hi/lo)) goes through expm1, free of
    cancellation on narrow pieces and at small e, and e = 0 gives
    log(hi/lo).  A piece that reaches 0 with e <= 0 or infinity with
    e >= 0 raises the quadrature's DivergenceError; a norm beyond the
    float range is inf.
    """
    live = sorted((lo, hi, c, s) for c, s, lo, hi in pieces if c != 0.0)
    if any(prev[1] > nxt[0] for prev, nxt in zip(live, live[1:])):
        return None
    total = 0.0
    try:
        for lo, hi, c, s in live:
            lead = s * p + a   # the exponent of |f|^p y^a on the piece
            e = lead + 1.0
            if lo == 0.0 and e <= 0.0:
                raise DivergenceError(f"integral diverges at the origin: left exponent {lead} <= -1",
                                      endpoint="origin")
            if hi == math.inf and e >= 0.0:
                raise DivergenceError(f"integral diverges at infinity: decay exponent {-lead} <= 1",
                                      endpoint="infinity")
            span = math.inf if lo == 0.0 else math.log1p((hi - lo) / lo)   # log(hi/lo)
            if e == 0.0:
                total += abs(c) ** p * span
            else:
                total += abs(c) ** p * (hi if e > 0.0 else lo) ** e * -math.expm1(-abs(e) * span) / abs(e)
        return total ** (1.0 / p)
    except OverflowError:
        return math.inf


def _image(params: OperatorParams, f: Func1D, tol: float) -> Func1D:
    """H f as a Func1D: apply_H_many at tol/10, knots at f's scale
    (_scale_knots; H f is real-analytic on (0, inf), so it needs no
    breakpoints of its own), and H f's endpoint exponents.  Near 0,
    H f ~ x^alpha, or x^(alpha+1+sigma+beta-gamma) when the mass of
    f(y) y^(beta-gamma) near y = x dominates (sigma+beta-gamma <= -1,
    sigma the left exponent of f); the decay exponent gamma-alpha drops
    by beta+1-tau when f's decay exponent tau <= beta+1."""
    al, be, ga = params.alpha, params.beta, params.gamma
    left = al
    if f.left_exponent + be - ga <= -1.0:
        left = al + 1.0 + f.left_exponent + be - ga
    decay = ga - al
    if f.decay_exponent <= be + 1.0:
        decay = ga - al - (be + 1.0 - f.decay_exponent)
    return Func1D(fn=lambda xs: apply_H_many(params, f, xs, tol / 10.0),
                  breakpoints=_scale_knots(f.breakpoints), left_exponent=left, decay_exponent=decay)


def _scale_knots(breakpoints) -> tuple[float, ...]:
    """The first of each run of breakpoints in which each lies within a
    factor 10 of the one before, unless it lies within a factor 10 of 1,
    the knot of every drive over (0, inf): one knot per cluster of f's
    edges puts a drive over H f at f's scale with no panel between two
    edges of one cluster."""
    bps = sorted(breakpoints)
    return tuple(b for a, b in zip([0.0] + bps, bps) if b > 10.0 * a and not 0.1 <= b <= 10.0)


def image_norm(params: OperatorParams, f: Func1D, q: float, b: float,
               tol: float = quad.DEFAULT_TOL_1D) -> float:
    """|| H f ||_{q,b}, the weighted_lp_norm of H f (nested quadrature,
    batched over the outer nodes); (q, b) must be a valid
    WeightedSpaceSpec."""
    return weighted_lp_norm(_image(params, f, tol), WeightedSpaceSpec(q, b), tol)


def bilinear_pairing(params: OperatorParams, f: Func1D, g: Func1D, weight: float,
                     tol: float = quad.DEFAULT_TOL_1D) -> float:
    """<H f, g> with measure x^weight dx, by iterated quadrature."""
    Hf = _image(params, f, tol)
    hints = SingularityHints(
        g.breakpoints,
        g.left_exponent + Hf.left_exponent + weight,
        g.decay_exponent + Hf.decay_exponent - weight,
    )

    def integrand(xs):
        return Hf(xs) * g(xs) * xs ** weight

    return float(quad.integrate_semiaxis(integrand, hints, tol))


# --------------------------------------------------------------------------
# the extremal family
# --------------------------------------------------------------------------

def extremal_quotient(space: WeightedSpaceSpec, params: OperatorParams, xi: float,
                      tol: float = quad.DEFAULT_TOL_1D) -> float:
    """Rayleigh quotient <g, H f>_a / (||f||_{p,a} ||g||_{p',a}) of the
    truncated-power pair

        f(x) = x^(-(a+1+xi)/p) [x >= 1],    g(x) = x^(-(a+1+xi)/p') [x >= 1],

    whose norms are xi^(-1/p) and xi^(-1/p').  With m = beta - (a+1+xi)/p,

        Q(xi) = I(gamma-m-2) + I(m+xi),
        I(s)  = int_0^1 w^s (1+w)^-gamma dw = B_{1/2}(s+1, gamma-s-1),

    evaluated as H_(0,0,gamma) of x^(gamma-m-2) [x <= 1] + x^(m+xi) [x <= 1]
    at x = 1, in closed form.  Derivation: y = x*t turns the pairing into
    Q = xi int_1^inf x^(-1-xi) J(1/x) dx, J(u) = int_u^inf t^m (1+t)^-gamma dt,
    the diagonal relation making the power of x exactly -1-xi; w = 1/x
    gives xi int_0^1 w^(xi-1) J(w) dw; integrating by parts gives
    J(1) + I(m+xi), and t = 1/w turns J(1) into I(gamma-m-2).

    Both I converge for every xi > 0 inside the window
    -p*alpha < a+1 < p(beta+1): m+xi+1 = beta+1-(a+1)/p + xi/p' > 0 and
    gamma-m-1 = alpha+(a+1+xi)/p > 0.  Both exponents grow with xi, so Q
    falls strictly in xi, and it rises to the sharp norm
    B(beta+1-(a+1)/p, alpha+(a+1)/p) as xi -> 0.  ``tol`` applies only
    where the series hands a probe to the quadrature.
    """
    al, be, ga = params.alpha, params.beta, params.gamma
    p, a = space.p, space.a
    if math.isinf(p) or p <= 1.0:
        raise ParameterError("the extremal family needs 1 < p < inf")
    if not diagonal_relation(params).holds:
        raise ParameterError("extremal quotient needs the diagonal relation gamma = alpha+beta+1")
    if not -p * al < a + 1.0 < p * (be + 1.0):
        raise ParameterError("diagonal window -p*alpha < a+1 < p(beta+1) is violated")
    if not 0.0 < xi < math.inf:
        raise ParameterError(f"xi must be positive and finite, got {xi}")
    m = be - (a + 1.0 + xi) / p
    unit = Ind("x", 0.0, 1.0)
    source = func1d(BinOp("+", BinOp("*", Pow(Var("x"), ga - m - 2.0), unit),
                          BinOp("*", Pow(Var("x"), m + xi), unit)))
    return apply_H(OperatorParams(0.0, 0.0, ga), source, 1.0, tol)


# --------------------------------------------------------------------------
# dilation experiments
# --------------------------------------------------------------------------

def dilation_residual(params: OperatorParams, f: Func1D, R: float, probe_points,
                      tol: float = quad.DEFAULT_TOL_1D) -> float:
    """Covariance residual of the dilation identity

        H f_R(x) = R^(gamma-beta-alpha-1) * (H f)(R x),   f_R(x) = f(R x):

    max over probes of |lhs - rhs| / (1 + |(H f)(R x)|).  Contract: below
    10*tol for admissible inputs.
    """
    probes = np.asarray(probe_points, dtype=float)
    if not probes.size:
        raise ParameterError("the dilation residual needs at least one probe point")
    f_R = f.dilate(R)
    scale = R ** (params.gamma - params.beta - params.alpha - 1.0)
    lhs = apply_H_many(params, f_R, probes, tol)
    at_Rx = apply_H_many(params, f, R * probes, tol)
    return float(np.max(np.abs(lhs - scale * at_Rx) / (1.0 + np.abs(at_Rx))))


def growth_exponent(p: float, q: float, a: float, b: float, params: OperatorParams,
                    f: Func1D | None = None, R_grid=None,
                    tol: float = 1e-9, cutoff: float = 10.0) -> float:
    """Dilation growth exponent of the Rayleigh quotient.

    For the bump f (default the indicator of [1,2]) and each R in the
    geometric grid (1-D, positive and finite), computes
    Q(R) = ||H f_R||_{q,b,<=cutoff/R} / ||f_R||_{p,a}, where the target
    norm is truncated to the co-dilating window (0, cutoff/R] -- the
    covariance identity then makes Q an exact power law R^kappa whether or
    not the full norm converges, with

        kappa = gamma - alpha - beta - 1 - (b+1)/q + (a+1)/p.

    Returns -kappa fitted by least squares on log Q vs log R: zero when
    the balance relation holds, and the divergence exponent
    -(gamma-alpha-beta-1-(b+1)/q+(a+1)/p) when it fails.  The window
    norms of all R are one truncated drive (_codilated_norms), which
    gives their logarithms, so a norm whose q-th power leaves the float
    range still counts; they hold while the windows' probes cutoff*u/R
    are normal floats.  p and q must lie in [1, inf).
    """
    if math.isinf(p) or math.isinf(q):
        raise ParameterError("the growth experiment needs finite p and q")
    if not q >= 1.0:
        raise ParameterError(f"q must satisfy 1 <= q < inf, got {q}")
    if not 0.0 < cutoff < math.inf:
        raise ParameterError(f"cutoff must be positive and finite, got {cutoff}")
    if f is None:
        f = func1d("ind(1,2)")
    if R_grid is None:
        R_grid = np.logspace(-1.5, 1.5, 7)
    R_grid = np.asarray(R_grid, dtype=float)
    if R_grid.ndim != 1 or len(set(R_grid.tolist())) < 2:
        raise ParameterError(f"the growth fit needs a 1-D grid of at least 2 distinct R, got {R_grid.tolist()}")
    space = WeightedSpaceSpec(p, a)
    family = [f.dilate(R) for R in R_grid]
    nf = np.array([weighted_lp_norm(f_R, space, tol) for f_R in family])
    if not nf.all():
        raise ParameterError("the growth fit needs a source function of nonzero norm")
    log_nH = _codilated_norms(params, family, cutoff / R_grid, q, b, tol)
    if np.isneginf(log_nH).any():
        raise ParameterError(f"the truncated image norm is zero at R = {R_grid[np.isneginf(log_nH)][0]}")
    slope = np.polyfit(np.log(R_grid), log_nH - np.log(nf), 1)[0]
    return -float(slope)


def _codilated_norms(params: OperatorParams, family, h: np.ndarray, q: float, b: float,
                     tol: float) -> np.ndarray:
    """log ||H f_R||_{q,b} on the windows (0, h[i]], f_R = family[i], as
    the rows of one truncated drive over u = x/h in (0, 1], whose nodes
    of each level are one _apply_rows call.

    Row i is |H f_R(h u) / H f_R(h)|^q u^b, the window norm's integrand
    over its value at u = 1 (unscaled where H f_R(h) = 0), so that
    ||H f_R||^q = |H f_R(h)|^q h^(b+1) times the row's integral, taken
    in logarithms.  By the covariance identity the rows of dilations,
    h = cutoff/R, are one function of u up to that scale, which can span
    decades: divided out, each row is judged at its own size wherever the
    rows differ by more than rounding (probes that the series hands to
    the quadrature), and its integral stays in range whatever the range
    of |H f_R(h)|^q.  The window is completed at 0 with H f_R's left
    exponent; f's breakpoints do not split it, since H f_R is smooth
    there.
    """
    h = h[:, None]
    hints = SingularityHints((), q * _image(params, family[0], tol).left_exponent + b)
    scale = np.abs(_apply_rows(params, family, h, tol / 10.0))
    scale[scale == 0.0] = 1.0
    mass = quad.integrate_truncated(
        lambda u: np.abs(_apply_rows(params, family, h * u, tol / 10.0) / scale) ** q * u ** b,
        hints, 1.0, tol)
    with np.errstate(divide="ignore"):
        return (np.log(mass) + q * np.log(scale[:, 0]) + (b + 1.0) * np.log(h[:, 0])) / q
