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
  * boundedness verdicts from the parameter criteria -- the balance
    relation gamma = alpha + beta + 1 - (a+1)/p + (b+1)/q together with
    the weight window -p(gamma-beta-1) < a+1 < p(beta+1) in the finite
    regime, and the endpoint variants for q = inf and p = q = inf,
  * the closed-form sharp norm B(beta+1-(a+1)/p, alpha+(a+1)/p) in the
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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import quad
from .errors import DomainError, ParameterError
from .funcdsl import BinOp, Func1D, Ind, Pow, Var, func1d
from .quad import SingularityHints
from .reports import ConditionReport, InequalityCheck, RelationCheck, verdict_report
from .specfun import beta as beta_fn

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


@dataclass(frozen=True)
class OperatorParams:
    """Kernel exponent triple (alpha, beta, gamma) of x^alpha y^beta (x+y)^-gamma."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ParameterError(f"{name} must be a finite real, got {v}")


@dataclass(frozen=True)
class WeightedSpaceSpec:
    """L^p_a data: exponent p in [1, inf] and weight exponent a.

    The weight exponent must be finite with a > -1 when p is finite and
    must be absent (None) when p = inf, where the weight is meaningless.
    """

    p: float
    a: float | None = None

    def __post_init__(self):
        if math.isinf(self.p):
            if self.a is not None:
                raise ParameterError("p = inf takes no weight exponent; pass a=None")
            return
        if not self.p >= 1.0:
            raise ParameterError(f"p must satisfy 1 <= p <= inf, got {self.p}")
        if self.a is None or not -1.0 < self.a < math.inf:
            raise ParameterError(f"weight exponent must be finite with a > -1, got {self.a}")


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


def conjugate_exponent(p: float) -> float:
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def weight_term(a: float | None, p: float) -> float:
    """(a+1)/p with the p = inf convention (a+1)/inf = 0."""
    if math.isinf(p):
        return 0.0
    return (a + 1.0) / p


# --------------------------------------------------------------------------
# operator application
# --------------------------------------------------------------------------

def _image_integrand_hints(params: OperatorParams, f: Func1D) -> SingularityHints:
    left = f.left_exponent + params.beta
    decay = f.decay_exponent - params.beta + params.gamma
    return SingularityHints(f.breakpoints, left, decay)


_SERIES_BLOCK = 64        # series terms evaluated per step
_SERIES_CAP = 1024        # most terms before the series gives up
_SERIES_TAIL = 2.0 ** -56  # tail bound relative to the partial sum
_SERIES_COND = 32.0       # largest sum |terms| / |sum| accepted
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max  # the normal range


def _beta_segment(z1, z2, dz, a, b, x=1.0, e=0.0):
    """x^e * int_{z1}^{z2} z^(a-1) (1-z)^(b-1) dz for 0 <= z1 <= z2 <= 1/2,
    x > 0, with dz = z2 - z1 formed by the caller without subtracting z
    values.

    Expanding (1-z)^(b-1) gives the series (DLMF 8.17.7 integrated term
    by term)

        sum_n (1-b)_n/n! * (z2^(a+n) - z1^(a+n)) / (a+n),

    valid for any a when z1 > 0 (the analytic continuation in a), and for
    a > 0 when z1 = 0.  Each difference is z2^k * -expm1(-k*log1p(dz/z1)),
    k = a+n, free of cancellation on narrow segments; where a is a
    non-positive integer, the term n = -a has k = 0 and is the limit
    z2^0 * log(z2/z1).  Terms are added in blocks until the tail bound
    |term_n| * rho/(1-rho), rho = z2*max(1, |1-b/(n+1)|) (the largest
    later term ratio), falls below 2^-56 of the partial sum.  The
    result is NaN where that takes more than _SERIES_CAP terms, where the
    terms cancel by more than a factor _SERIES_COND (large b near
    z = 1/2), so that the value would lose more than ~1e-14 relative, and
    where x^e, z2^a, their product or the value leaves the range of
    normal floats: an underflow there would cost precision silently.  A
    value whose logarithm lies below that range is 0.
    """
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (z1, z2, dz, a, b, x, e)))
    shape = args[0].shape
    z1, z2, dz, a, b, x, e = (v.ravel() for v in args)
    # the coefficients (1-b)_n/n! depend on b alone: one column per distinct b
    b_values, b_index = np.unique(b, return_inverse=True)
    coef = np.ones(b_values.size)   # (1-b)_n/n! at the last n of the previous block
    n = np.arange(_SERIES_BLOCK, dtype=float)[:, None]
    total = np.zeros(z1.size)       # total, absum and the terms leave out the factor z2^a
    absum = np.zeros(z1.size)
    done = np.zeros(z1.size, dtype=bool)
    poles = np.flatnonzero((a <= 0.0) & (a == np.round(a)))  # elements with a term k = 0
    pole_n = -a[poles]
    with np.errstate(all="ignore"):
        log_ratio = np.log1p(dz / z1)   # log(z2/z1), inf at z1 = 0
        powers = np.exp(n * np.log(z2))  # z2^n within the block
        for start in range(0, _SERIES_CAP, _SERIES_BLOCK):
            step = 1.0 - b_values / np.maximum(start + n, 1.0)  # coefficient n over n-1
            if start == 0:
                step[0] = 1.0
            table = coef * np.cumprod(step, axis=0)
            # term_n = coef_n z2^n (1 - (z1/z2)^(a+n)) / (a+n), in place
            neg_k = -(start + n) - a
            terms = table[:, b_index]
            terms /= neg_k
            terms *= powers
            neg_k *= log_ratio
            terms *= np.expm1(neg_k, out=neg_k)
            if poles.size:
                hit = (start <= pole_n) & (pole_n < start + _SERIES_BLOCK)
                rows, cols = (pole_n[hit] - start).astype(int), poles[hit]
                terms[rows, cols] = table[rows, b_index[cols]] * powers[rows, cols] * log_ratio[cols]
            total += terms.sum(axis=0)
            absum += np.abs(terms).sum(axis=0)
            # every later term ratio is at most rho
            rho = z2 * np.maximum(1.0, np.abs(1.0 - b / (start + _SERIES_BLOCK)))
            done |= (rho < 1.0) & (a + start + _SERIES_BLOCK > 1.0) & (
                np.abs(terms[-1]) * rho <= (1.0 - rho) * _SERIES_TAIL * np.abs(total))
            if done.all():
                break
            coef = table[-1]
            powers *= powers[-1] * z2
        x_e, z2_a = x ** e, z2 ** a
        scale = x_e * z2_a
        value = total * scale
        normal = np.all([(_TINY <= v) & (v <= _HUGE) for v in (x_e, z2_a, scale, np.abs(value))], axis=0)
        underflow = e * np.log(x) + a * np.log(z2) + np.log(np.abs(total)) < np.log(_TINY)
        value = np.where(normal, value, np.where(underflow, 0.0, np.nan))
        ok = done & (absum <= _SERIES_COND * np.abs(total))
    return np.where(ok, value, np.nan).reshape(shape)


def _apply_pieces(params: OperatorParams, pieces, xs: np.ndarray) -> np.ndarray:
    """H f(xs) for f = sum c*y^s*ind(lo,hi) in closed form, NaN at probes
    where a series gives up, and at every probe when a piece diverges
    (then the quadrature raises its DivergenceError).

    With y = x*t a piece gives c*x^e int t^m (1+t)^-gamma dt over
    [lo, hi]/x, m = s+beta, e = alpha+m+1-gamma.  Split at y = x: on
    [lo, min(hi, x)], z = y/(x+y) makes it the Beta segment
    (a, b) = (m+1, gamma-m-1); on [max(lo, x), hi], z = x/(x+y) makes it
    the segment (b, a).  Both keep z <= 1/2.  A Beta parameter that is a
    non-positive integer gives the series' log term; it has z1 > 0 on every
    piece that converges.
    """
    c, s, lo, hi = (np.array(col, dtype=float) for col in zip(*pieces))
    m = s + params.beta
    a, b = m + 1.0, params.gamma - m - 1.0
    e = params.alpha + m + 1.0 - params.gamma
    diverges = ((lo == 0.0) & (a <= 0.0)) | (np.isinf(hi) & (b <= 0.0))
    if diverges.any():
        return np.full(xs.shape, np.nan)
    x = xs[:, None]
    below, above = np.nonzero(lo < x), np.nonzero(hi > x)
    xb, lb, ub = xs[below[0]], lo[below[1]], np.minimum(hi[below[1]], xs[below[0]])
    xa, wa, ha = xs[above[0]], np.maximum(lo[above[1]], xs[above[0]]), hi[above[1]]
    with np.errstate(invalid="ignore"):
        dz_above = np.where(np.isinf(ha), xa / (xa + wa), xa * (ha - wa) / ((xa + wa) * (xa + ha)))
        segments = _beta_segment(
            np.concatenate([lb / (xb + lb), xa / (xa + ha)]),
            np.concatenate([ub / (xb + ub), xa / (xa + wa)]),
            np.concatenate([xb * (ub - lb) / ((xb + lb) * (xb + ub)), dz_above]),
            np.concatenate([a[below[1]], b[above[1]]]),
            np.concatenate([b[below[1]], a[above[1]]]),
            np.concatenate([xb, xa]), np.concatenate([e[below[1]], e[above[1]]]))
    seg = np.zeros((xs.size, c.size))
    seg[below] = segments[:xb.size]
    seg[above] += segments[xb.size:]
    return (c * seg).sum(axis=1)


def apply_H(params: OperatorParams, f: Func1D, x: float, tol: float = quad.DEFAULT_TOL_1D) -> float:
    """H f(x) = x^alpha * int_0^inf f(y) y^beta (x+y)^-gamma dy."""
    return float(apply_H_many(params, f, np.array([float(x)]), tol)[0])


def apply_H_many(params: OperatorParams, f: Func1D, xs, tol: float = quad.DEFAULT_TOL_1D) -> np.ndarray:
    """Vectorized apply_H over an array of probe points.

    A source with ``pieces`` (a sum of c*y^s*ind(lo,hi)) is applied in
    closed form through the incomplete Beta series of _beta_segment,
    accurate to ~1e-14 relative whatever ``tol``.  Every other source,
    and every probe where the series gives up, runs the adaptive
    quadrature (one shared refinement per batch of probes), which also
    raises DivergenceError for a divergent piece.
    """
    quad._check_tol(tol)
    xs = np.asarray(xs, dtype=float)
    if not np.all(xs > 0):
        raise DomainError("probe points must be positive")
    # Fringe nodes of an enclosing quadrature can push probes below any
    # physical scale.  Clamping replaces H f(x) by H f(1e-150) there; the
    # mass of any admissible outer integrand below the floor is under
    # ~1e-150^(q*l+b+1), l the left exponent of H f (see _image),
    # negligible against every tolerance in use,
    # and the kernel knee at y ~ x stays resolvable by the panels below.
    xs_eval = np.clip(xs, 1e-150, None)
    out = _apply_pieces(params, f.pieces, xs_eval) if f.pieces else np.full(xs.shape, np.nan)
    rest = ~np.isfinite(out)
    if rest.any():
        out[rest] = _apply_quad(params, f, xs_eval[rest], tol)
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

    The p = inf norm is inf when f's hint exponents say f is unbounded at
    0 or at infinity; otherwise it is a documented heuristic lower bound: a
    481-point log-grid scan over [1e-6, 1e6], widened to f's breakpoints,
    refined by 90 golden-section steps around the best point
    (quad.log_grid_sup).
    """
    if math.isinf(space.p):
        if f.left_exponent < 0.0 or f.decay_exponent < 0.0:
            return math.inf
        return quad.log_grid_sup(f, 1e-6, 1e6, 481, 90, knots=f.breakpoints)
    p, a = space.p, space.a
    hints = SingularityHints(
        f.breakpoints,
        p * f.left_exponent + a,
        p * f.decay_exponent - a,
    )

    def integrand(y):
        return np.abs(f(y)) ** p * y ** a

    val = float(quad.integrate_semiaxis(integrand, hints, tol))
    return val ** (1.0 / p)


def _image(params: OperatorParams, f: Func1D, tol: float) -> Func1D:
    """H f as a Func1D: apply_H_many at tol/10, no breakpoints (H f is
    real-analytic on (0, inf)), and H f's endpoint exponents.  Near 0,
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
                  left_exponent=left, decay_exponent=decay, label=f"H({f.label})")


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
# boundedness verdicts
# --------------------------------------------------------------------------

def solve_gamma(p: float, q: float, a: float | None, b: float | None,
                alpha: float, beta: float) -> float:
    """The gamma that satisfies the balance relation exactly, for valid
    spaces L^p_a, L^q_b and finite alpha, beta (OperatorParams checks them)."""
    WeightedSpaceSpec(p, a), WeightedSpaceSpec(q, b)
    gamma = alpha + beta + 1.0 - weight_term(a, p) + weight_term(b, q)
    return OperatorParams(alpha, beta, gamma).gamma


def source_window_holds(p: float, a: float, params: OperatorParams) -> bool:
    """-p(gamma-beta-1) < a+1 < p(beta+1)."""
    return -p * (params.gamma - params.beta - 1.0) < a + 1.0 < p * (params.beta + 1.0)


def target_window_holds(q: float, b: float, params: OperatorParams) -> bool:
    """-q*alpha < b+1 < q(gamma-alpha); equivalent to the source window
    whenever the balance relation holds."""
    return -q * params.alpha < b + 1.0 < q * (params.gamma - params.alpha)


def diagonal_relation(params: OperatorParams) -> RelationCheck:
    """gamma = alpha+beta+1, the balance relation of the diagonal and sup cases."""
    return RelationCheck("gamma = alpha+beta+1", params.gamma, params.alpha + params.beta + 1.0)


# The regime criteria below serve H and, through the reduction
# ||(T+ f)_y||_p <= B(1/2,gamma/2) H(v -> ||f_v||_p)(y), the Bergman-type T+
# with the outer exponents in place of (p, q); ``pl``/``ql`` spell the
# exponents in the clause names.

def sup_criteria(params: OperatorParams):
    """(relation, clauses) of the sup-to-sup regime."""
    return diagonal_relation(params), (
        InequalityCheck("alpha > 0", params.alpha, lower=0.0),
        InequalityCheck("beta > -1", params.beta, lower=-1.0),
    )


def to_sup_criteria(p: float, a: float, params: OperatorParams, pl: str = "p"):
    """(relation, clauses) of the L^p_a -> L^inf regime, 1 < p < inf."""
    al, be, ga = params.alpha, params.beta, params.gamma
    return RelationCheck(f"gamma = alpha+beta+1-(a+1)/{pl}", ga, al + be + 1.0 - (a + 1.0) / p), (
        InequalityCheck("alpha > 0", al, lower=0.0),
        InequalityCheck(f"a+1 < {pl}(beta+1)", a + 1.0, upper=p * (be + 1.0)),
    )


def finite_criteria(p: float, q: float, a: float, b: float, params: OperatorParams,
                    pl: str = "p", ql: str = "q"):
    """(relation, source-window clauses, target-window cross-checks) of the
    finite regime L^p_a -> L^q_b."""
    al, be, ga = params.alpha, params.beta, params.gamma
    relation = RelationCheck(f"gamma = alpha+beta+1-(a+1)/{pl}+(b+1)/{ql}",
                             ga, al + be + 1.0 - (a + 1.0) / p + (b + 1.0) / q)
    return relation, (
        InequalityCheck(f"-{pl}(gamma-beta-1) < a+1", a + 1.0, lower=-p * (ga - be - 1.0)),
        InequalityCheck(f"a+1 < {pl}(beta+1)", a + 1.0, upper=p * (be + 1.0)),
    ), (
        InequalityCheck(f"-{ql}*alpha < b+1", b + 1.0, lower=-q * al),
        InequalityCheck(f"b+1 < {ql}(gamma-alpha)", b + 1.0, upper=q * (ga - al)),
    )


def hilbert_verdict(p: float, q: float, a: float | None, b: float | None,
                    params: OperatorParams) -> ConditionReport:
    """Boundedness verdict for H : L^p_a -> L^q_b.

    Covered regimes: p,q finite with 1 <= p <= q; finite p with q = inf;
    p = q = inf.  The report carries the balance-relation arithmetic, the
    strict inequalities with both sides, and the equivalent target-side
    window as a cross-check.
    """
    if not (p >= 1.0 and q >= 1.0):
        raise ParameterError(f"exponents must satisfy p, q >= 1, got p={p}, q={q}")
    if p > q:
        raise ParameterError(f"only the upper-triangle case p <= q is covered, got p={p} > q={q}")
    WeightedSpaceSpec(p, a), WeightedSpaceSpec(q, b)   # raise for an invalid weight

    if math.isinf(q) and math.isinf(p):
        return verdict_report("hilbert", "Linf -> Linf", *sup_criteria(params),
                              notes=("sharp norm B(beta+1, alpha) available when bounded",),
                              accepted="sup-to-sup criterion")

    if math.isinf(q):
        if not 1.0 < p:
            raise ParameterError("the L^p_a -> Linf regime needs 1 < p < inf")
        return verdict_report("hilbert", "Lp_a -> Linf", *to_sup_criteria(p, a, params),
                              accepted="finite-to-sup criterion")

    return verdict_report("hilbert", "Lp_a -> Lq_b (finite)", *finite_criteria(p, q, a, b, params),
                          accepted="finite-regime criterion")


# --------------------------------------------------------------------------
# sharp norm and the extremal family
# --------------------------------------------------------------------------

def sharp_norm(space: WeightedSpaceSpec, params: OperatorParams) -> float:
    """Exact operator norm on the diagonal gamma = alpha+beta+1.

    Finite p:   B(beta+1-(a+1)/p, alpha+(a+1)/p)  under -p*alpha < a+1 < p(beta+1)
    p = inf:    B(beta+1, alpha)                  under alpha > 0, beta > -1
    (p = 1 reduces the first formula to B(beta-a, alpha+a+1).)
    """
    al, be = params.alpha, params.beta
    relation = diagonal_relation(params)
    if not relation.holds:
        raise ParameterError(
            f"sharp norm needs the diagonal relation gamma = alpha+beta+1; "
            f"residual {relation.residual:.3e}"
        )
    if math.isinf(space.p):
        if not al > 0.0:
            raise ParameterError(f"sharp norm on Linf needs alpha > 0, got alpha={al}")
        if not be > -1.0:
            raise ParameterError(f"sharp norm on Linf needs beta > -1, got beta={be}")
        return beta_fn(be + 1.0, al)
    p, a = space.p, space.a
    if not -p * al < a + 1.0:
        raise ParameterError(f"violated: -p*alpha < a+1 (i.e. {-p * al} < {a + 1.0} fails)")
    if not a + 1.0 < p * (be + 1.0):
        raise ParameterError(f"violated: a+1 < p(beta+1) (i.e. {a + 1.0} < {p * (be + 1.0)} fails)")
    # beta+1-(a+1)/p cancels near the window edge a+1 = p(beta+1), so both
    # arguments are formed exactly from the float inputs and rounded once
    w = (Fraction(a) + 1) / Fraction(p)
    return beta_fn(float(Fraction(be) + 1 - w), float(Fraction(al) + w))


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
    geometric grid, computes Q(R) = ||H f_R||_{q,b,<=cutoff/R} / ||f_R||_{p,a},
    where the target norm is truncated to the co-dilating window
    (0, cutoff/R] -- the covariance identity then makes Q an exact power
    law R^kappa whether or not the full norm converges, with

        kappa = gamma - alpha - beta - 1 - (b+1)/q + (a+1)/p.

    Returns -kappa fitted by least squares on log Q vs log R: zero when
    the balance relation holds, and the divergence exponent
    -(gamma-alpha-beta-1-(b+1)/q+(a+1)/p) when it fails.  The window
    integral is completed at 0 with H f_R's own left exponent; f's
    breakpoints do not split it, since H f_R is smooth there.
    """
    if math.isinf(p) or math.isinf(q):
        raise ParameterError("the growth experiment needs finite p and q")
    if f is None:
        f = func1d("ind(1,2)")
    if R_grid is None:
        R_grid = np.logspace(-1.5, 1.5, 7)
    R_grid = np.asarray(R_grid, dtype=float)
    if len(set(R_grid.tolist())) < 2:
        raise ParameterError(f"the growth fit needs at least 2 distinct R, got {R_grid.tolist()}")
    space = WeightedSpaceSpec(p, a)
    logs = []
    for R in R_grid:
        f_R = f.dilate(R)
        nf = weighted_lp_norm(f_R, space, tol)
        if nf == 0.0:
            raise ParameterError("the growth fit needs a source function of nonzero norm")
        Hf_R = _image(params, f_R, tol)

        def integrand(xs):
            return np.abs(Hf_R(xs)) ** q * xs ** b

        hints = SingularityHints((), q * Hf_R.left_exponent + b)
        nH = float(quad.integrate_truncated(integrand, hints, cutoff / R, tol)) ** (1.0 / q)
        if nH == 0.0:
            raise ParameterError(f"the truncated image norm is zero at R = {R}")
        logs.append(math.log(nH / nf))
    slope = np.polyfit(np.log(R_grid), np.array(logs), 1)[0]
    return -float(slope)
