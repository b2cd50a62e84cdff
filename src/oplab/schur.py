"""Okikiolu-Schur boundedness certificates for the weighted Hilbert family.

With respect to the measure y^a dy the operator has kernel

    K(x, y) = x^alpha y^(beta-a) / (x+y)^gamma,

and boundedness L^p_a -> L^q_b follows from a splitting exponent
t in (0,1) and auxiliary powers h1(x) = x^(-s), h2(y) = y^(-r) such that
both test integrals collapse to Beta values:

  (T1)  int_0^inf K(x,y)^(t p') y^(-s p') y^a dy = M1^p' x^(-r p'),
        M1^p' = B(-s p' + (beta-a) t p' + a + 1,  alpha t p' + r p')
  (T2)  int_0^inf K(x,y)^((1-t) q) x^(-r q) x^b dx = M2^q y^(-s q),
        M2^q  = B(-r q + alpha (1-t) q + b + 1,  (beta-a)(1-t) q + s q)

and then ||H|| <= M1 M2.  Writing d = r - s, feasibility reduces to the
exponent windows

  (Ws)  -(beta-a)(1-t) < s < (a+1)/p' + (beta-a) t
  (Wr)  -alpha t       < r < (b+1)/q  + alpha (1-t)

with t = (-d - (a+1)/p') / omega, omega = alpha + beta - gamma - a < 0,
and 0 < d < (b+1)/q.  In the limit case p = 1 the same t(d) applies with
(a+1)/p' = 0, and (T1) becomes a supremum condition whose constant is

    C1 = A^A * B^B / (A+B)^(A+B),   A = (beta-a)t - s,  B = alpha t + r

(the maximum of u^A/(1+u)^(gamma t) over u > 0, using gamma t = A + B).

No search is needed.  Under the balance relation
omega = -((a+1)/p' + (b+1)/q), so t = (d + (a+1)/p') / ((a+1)/p' + (b+1)/q)
lies in (0,1) for every d in (0, (b+1)/q).  With r = s + d the windows
leave s the interval (max(Ws lower, Wr lower - d), min(Ws upper, Wr
upper - d)); comparing each lower end with each upper end shows that it
is non-empty if and only if a+1 < p(beta+1), -q*alpha < b+1 and
gamma > 0, and an accepted finite-regime verdict implies all three.  So d is taken
at the window midpoint (b+1)/(2q) unless forced, and s at the midpoint of
its interval; InfeasibleCertificateError is left for tuples that pass the
verdict only through rounding at a window edge.  The classical
certificate lands at d = 1/4, where the Beta product simplifies to
bound = 2*sqrt(pi).

The construction (SchurCertificate, find_certificate) is closed-form and
lives in oplab.theory, which needs no numpy; it is re-exported here.
Every quadrature here is H applied to the constant 1 through
hilbert.apply_H_many: (T1) is H1 with the exponent triple
(alpha t p', ((beta-a)t - s)p' + a, gamma t p'), (T2) is H1 with
((beta-a)(1-t)q, -r q + alpha(1-t)q + b, gamma(1-t)q), and the diagonal
L^inf and L^1_a norms are sup H1 and sup H*1, H* having the triple
(beta-a, alpha+a, gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import hilbert, quad
from .errors import CertificateVerificationError, ParameterError
from .funcdsl import func1d
from .theory import (OperatorParams, SchurCertificate, WeightedSpaceSpec, _sup_constant,
                     conjugate_exponent, find_certificate)

# bound only for perfbench/tracing.py, which wraps these names
from .specfun import beta as beta_fn  # noqa: F401
from .specfun import log_beta  # noqa: F401
from .theory import hilbert_verdict  # noqa: F401

__all__ = [
    "SchurCertificate", "VerificationReport", "SupTestReport",
    "find_certificate", "verify_certificate", "sup_test_L1", "sup_test_Linf",
]

_SAMPLE_RANGE = (1e-4, 1e4)  # verification samples, log-uniform
# func1d gives the constant 1 decay exponent 0, so apply_H_many keeps the
# tail completion (a bare Func1D would declare decay inf and drop it)
_ONE = func1d("1")


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """Numerical re-check of the two certificate inequalities."""

    passed: bool
    max_residual: float
    n_samples: int
    sample_lo: float
    sample_hi: float
    first_test: str        # "integral" or "supremum" (limit case)
    degenerate: str | None  # names a degenerate exponent, if any

    def to_dict(self) -> dict:
        return asdict(self)


def verify_certificate(cert: SchurCertificate, p: float, q: float, a: float, b: float,
                       params: OperatorParams, n_samples: int = 100,
                       tol: float = 1e-8) -> VerificationReport:
    """Re-derive both certificate inequalities by quadrature.

    At n_samples log-uniform points in [1e-4, 1e4], (T1) and (T2) are
    each one batched H1 (the triples of the module docstring), compared
    against their Beta closed forms times the predicted power of the
    sample point; in the limit case p = 1 the supremum test is scanned
    per sample instead.  The report carries the largest relative
    residual.  Degenerate exponents (t in {0,1} with p > 1) are flagged
    instead of integrated; a residual above tol raises
    CertificateVerificationError naming the inequality and the smallest
    failing sample; divergent integrals raise DivergenceError.  tol must
    be in (0, 0.5), as for every drive.
    """
    if (p, q, a, b) != (cert.p, cert.q, cert.a, cert.b) or params != cert.params:
        raise ParameterError("certificate document does not match the supplied tuple")
    quad._check_tol(tol)
    if n_samples < 1:
        raise ParameterError(f"verification needs at least one sample, got n_samples={n_samples}")
    al, be, ga = params.alpha, params.beta, params.gamma
    t, r, s = cert.t, cert.r, cert.s
    lo, hi = _SAMPLE_RANGE
    if not cert.limit_case and (t >= 1.0 - 1e-12 or t <= 1e-12):
        return VerificationReport(
            passed=False, max_residual=math.inf, n_samples=0,
            sample_lo=lo, sample_hi=hi,
            first_test="integral", degenerate=f"t = {t} collapses a kernel power",
        )
    samples = np.geomspace(lo, hi, n_samples)

    if cert.limit_case:
        A = (be - a) * t - s
        C = ga * t
        if not (0.0 < A < C):
            raise ParameterError("limit-case certificate has no interior supremum")

        def sup(x):
            center = x * A / (C - A)
            return quad.log_grid_sup(
                lambda ys: ys ** (-s) * ((ys ** (be - a) * x ** al) / (x + ys) ** ga) ** t * x ** r,
                center / 10.0, center * 10.0, 200, 60)
        worst = _residuals("supremum test", samples, np.array([sup(x) for x in samples]),
                           _sup_constant(A, C), tol)
    else:
        pp = conjugate_exponent(p)
        t1 = OperatorParams(al * t * pp, ((be - a) * t - s) * pp + a, ga * t * pp)
        worst = _residuals("first test integral", samples, hilbert.apply_H_many(t1, _ONE, samples),
                           cert.m1_closed_form * samples ** (-r * pp), tol)

    t2 = OperatorParams((be - a) * (1.0 - t) * q, -r * q + al * (1.0 - t) * q + b, ga * (1.0 - t) * q)
    worst2 = _residuals("second test integral", samples, hilbert.apply_H_many(t2, _ONE, samples),
                        cert.m2_closed_form * samples ** (-s * q), tol)

    return VerificationReport(
        passed=True, max_residual=max(worst, worst2), n_samples=n_samples,
        sample_lo=lo, sample_hi=hi,
        first_test="supremum" if cert.limit_case else "integral", degenerate=None,
    )


def _residuals(name: str, samples: np.ndarray, got: np.ndarray, expect, tol: float) -> float:
    """Largest relative residual |got/expect - 1| over the samples; one
    above tol raises for the smallest failing sample."""
    res = np.abs(got / expect - 1.0)
    bad = np.flatnonzero(res > tol)
    if bad.size:
        i = bad[0]
        raise CertificateVerificationError(
            f"{name} residual {res[i]:.3e} exceeds tol {tol} at sample {samples[i]:.6g}",
            inequality=name, sample=float(samples[i]), residual=float(res[i]),
        )
    return float(res.max())


# --------------------------------------------------------------------------
# L^1 / L^inf supremum tests (exact norms in the diagonal case)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SupTestReport:
    """Grid profile of a column/row kernel integral and its supremum."""

    grid: tuple[float, ...]
    values: tuple[float, ...]
    supremum: float
    exact_norm: float | None   # the sharp norm when its preconditions hold
    max_rel_deviation: float   # spread of the profile: max/min - 1

    def to_dict(self) -> dict:
        return asdict(self)


def _sup_test(params: OperatorParams, grid, tol: float, space: tuple,
              diagonal: OperatorParams) -> SupTestReport:
    """Profile of H1 over the grid (default five log-spaced points in
    [0.1, 10]) as one batched hilbert.apply_H_many; the exact norm is
    hilbert.sharp_norm of the diagonal triple on L^p_a, space = (p, a),
    or None where that raises ParameterError."""
    grid = np.asarray(np.geomspace(0.1, 10.0, 5) if grid is None else grid, dtype=float)
    values = tuple(float(v) for v in hilbert.apply_H_many(params, _ONE, grid, tol))
    try:
        exact = hilbert.sharp_norm(WeightedSpaceSpec(*space), diagonal)
    except ParameterError:
        exact = None
    vmax, vmin = max(values), min(values)
    return SupTestReport(
        grid=tuple(grid), values=values, supremum=vmax,
        exact_norm=exact, max_rel_deviation=vmax / vmin - 1.0,
    )


def sup_test_L1(params: OperatorParams, a: float, y_grid=None,
                tol: float = quad.DEFAULT_TOL_1D) -> SupTestReport:
    """Column-integral test: c(y) = int_0^inf K(x,y) x^a dx with the
    L^1_a kernel K = x^alpha y^(beta-a) (x+y)^-gamma, i.e. H*1, the
    constant 1 under H with the adjoint triple (beta-a, alpha+a, gamma).

    Under -alpha < a+1 < beta+1 and gamma = alpha+beta+1 every c(y)
    equals B(beta-a, alpha+a+1) and the supremum is the exact L^1_a
    operator norm.  Divergence of the column integral is the expected
    signal outside that window and propagates as DivergenceError.
    """
    adjoint = OperatorParams(params.beta - a, params.alpha + a, params.gamma)
    return _sup_test(adjoint, y_grid, tol, (1.0, a), params)


def sup_test_Linf(params: OperatorParams, x_grid=None,
                  tol: float = quad.DEFAULT_TOL_1D) -> SupTestReport:
    """Row-integral test: r(x) = int_0^inf x^alpha y^beta (x+y)^-gamma dy,
    i.e. H1; constant B(beta+1, alpha) (the exact Linf norm) under
    alpha > 0, beta > -1, gamma = alpha+beta+1."""
    return _sup_test(params, x_grid, tol, (math.inf, None), params)
