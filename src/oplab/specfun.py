"""Gamma and Beta special functions.

Every closed-form operator norm in this package is a Beta value

    B(m, n) = Gamma(m) Gamma(n) / Gamma(m+n)
            = integral_0^inf u^(m-1) (1+u)^(-m-n) du,   m, n > 0,

so the whole norm machinery rests on an accurate log-Gamma.  That is
the standard library's math.lgamma behind a domain check: the checks
raise DomainError, which upstream signals a violated boundedness
inequality.  Beta is assembled in log space and exponentiated, so large
arguments cannot overflow prematurely; from an argument of _LARGE on,
log_beta pairs the large lgammas in Stirling form instead of
subtracting them.

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


# the Stirling series of lnGamma(x) - ((x-1/2) ln x - x + ln(2 pi)/2) in 1/x^2 (DLMF 5.11.1),
# B_2k / (2k (2k-1)); from _LARGE on the first term left out is below 1e-17
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400, 43867 / 244188)
_LARGE = 8.0


def _stirling(x: float) -> float:
    """lnGamma(x) less its Stirling leading terms, for x >= _LARGE (0 at inf)."""
    x2, total = 1.0 / (x * x), 0.0
    for c in reversed(_STIRLING):
        total = total * x2 + c
    return total / x


def log_beta(m: float, n: float) -> float:
    """ln B(m, n) = lnGamma(m) + lnGamma(n) - lnGamma(m+n), m, n > 0.

    Below _LARGE that sum is formed as written.  From there on, with
    m <= n, lnGamma(n) - lnGamma(m+n) is
    -m ln n - (m+n-1/2) log1p(m/n) + m plus the difference of the Stirling
    corrections (DLMF 5.11.1), so no two huge lgammas are subtracted; when
    m is large too, lnGamma(m) joins in Stirling form, which leaves
    (m-1/2) ln(m/n) - (m+n-1/2) log1p(m/n) - ln(n)/2: terms of one sign.
    The result is never NaN; it is -inf only below the float range."""
    m, n = float(m), float(n)
    if not (m > 0.0 and math.isfinite(m)):
        raise DomainError(f"beta argument m={m} must be a positive finite real")
    if not (n > 0.0 and math.isfinite(n)):
        raise DomainError(f"beta argument n={n} must be a positive finite real")
    m, n = min(m, n), max(m, n)
    if n < _LARGE:
        return log_gamma(m) + log_gamma(n) - log_gamma(m + n)
    ratio = math.log1p(m / n)
    # (m+n-1/2) log1p(m/n) in two parts, as m+n may overflow
    tail = (m - 0.5) * ratio + n * ratio
    corrections = _stirling(n) - _stirling(m + n)
    if m < _LARGE:
        return log_gamma(m) - m * math.log(n) - tail + m + corrections
    return (0.5 * math.log(2.0 * math.pi / n) + (m - 0.5) * math.log(m / n) - tail
            + _stirling(m) + corrections)


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
