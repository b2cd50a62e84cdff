"""Gamma and Beta special functions.

Every closed-form operator norm in this package is a Beta value

    B(m, n) = Gamma(m) Gamma(n) / Gamma(m+n)
            = integral_0^inf u^(m-1) (1+u)^(-m-n) du,   m, n > 0,

so the whole norm machinery rests on an accurate log-Gamma.  That is
the standard library's math.lgamma behind a domain check: the checks
raise DomainError, which upstream signals a violated boundedness
inequality.  Beta is assembled in log space and exponentiated, so large
arguments cannot overflow prematurely.

All functions are pure and stateless; they are safe to call from any
number of concurrent workers.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["log_gamma", "beta", "log_beta"]


def log_gamma(x: float) -> float:
    """ln Gamma(x) for real x > 0, inf where it exceeds the float range
    (x above ~2.6e305); DomainError for any other x."""
    x = float(x)
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def log_beta(m: float, n: float) -> float:
    """ln B(m, n) = lnGamma(m) + lnGamma(n) - lnGamma(m+n), m, n > 0."""
    m, n = float(m), float(n)
    if not (m > 0.0 and math.isfinite(m)):
        raise DomainError(f"beta argument m={m} must be a positive finite real")
    if not (n > 0.0 and math.isfinite(n)):
        raise DomainError(f"beta argument n={n} must be a positive finite real")
    return log_gamma(m) + log_gamma(n) - log_gamma(m + n)


def beta(m: float, n: float) -> float:
    """The Beta function B(m, n) for m, n > 0.

    Computed as exp(log_beta) so that huge Gamma values cancel in log
    space instead of overflowing; inf where that exponential exceeds the
    float range (an argument below about 5.6e-309), as log_gamma is.
    """
    try:
        return math.exp(log_beta(m, n))
    except OverflowError:
        return math.inf
