"""Partial fractions of a rational u factor at its poles below the real line.

func2d records a separable source g(x) h(y) whose g is a constant times
integer powers of real polynomials in x as Func2D.u_poles, the terms
A (u - p)^-j of g's partial fractions at its poles p in the lower
half-plane, so that bergman can integrate T and P_nu of it over u by
residues.  func2d imports this module only for a source whose x factors
are not a step sum.
"""

from __future__ import annotations

import math

import numpy as np

from .funcdsl import BinOp, Const, Expr, Neg, Pow, Var

__all__ = ["partial_fractions"]


_MAX_DEGREE = 16      # of a polynomial expanded from a sum, and of an integer power
_REAL_ROOT = 1e-6     # |Im r| <= this * |r|: a root taken as real
_PF_COND = 100.0      # sum of |partial fractions| over max |g| at the checkpoints


def _rational(e: Expr) -> tuple[float, list] | None:
    """(C, factors) with e = C * prod P(x)^n over factors (P, n), P a real
    monic polynomial in x (numpy coefficients, highest first, degree >= 1)
    and n an integer, when e is built from finite constants, x, +, -, *, /
    and integer powers up to _MAX_DEGREE; else None.  A sum is expanded to
    one polynomial, so its terms must be polynomials of degree at most
    _MAX_DEGREE.  C and the coefficients follow numpy's rules (an overflow
    is inf, x/0 is C = inf), for partial_fractions to check."""
    if isinstance(e, Const):
        return (np.float64(e.value), []) if math.isfinite(e.value) else None
    if isinstance(e, Var) and e.name == "x":
        return 1.0, [(np.array([1.0, 0.0]), 1)]
    if isinstance(e, Neg):
        inner = _rational(e.arg)
        return inner and (-inner[0], inner[1])
    if isinstance(e, Pow) and abs(e.exponent) <= _MAX_DEGREE and e.exponent == round(e.exponent):
        inner, n = _rational(e.base), int(e.exponent)
        return inner and (inner[0] ** n, [(p, k * n) for p, k in inner[1]])
    if not isinstance(e, BinOp):
        return None
    left, right = _rational(e.left), _rational(e.right)
    if left is None or right is None:
        return None
    if e.op == "*":
        return left[0] * right[0], left[1] + right[1]
    if e.op == "/":
        return left[0] / right[0], left[1] + [(p, -k) for p, k in right[1]]
    terms = []
    for c, factors in (left, right):
        if any(k < 0 for _, k in factors) or sum(k * (p.size - 1) for p, k in factors) > _MAX_DEGREE:
            return None
        poly = np.array([c])
        for p, k in factors:
            for _ in range(k):
                poly = np.polymul(poly, p)
        terms.append(poly)
    poly = np.trim_zeros(np.polyadd(terms[0], -terms[1] if e.op == "-" else terms[1]), "f")
    if poly.size == 0:
        return 0.0, []
    return (poly[0], []) if poly.size == 1 else (poly[0], [(poly / poly[0], 1)])


def _roots(p: np.ndarray) -> np.ndarray:
    """The roots of a real polynomial: the quadratic formula up to degree
    2 (a pair of exact conjugates, or the real roots in the stable form),
    np.roots above."""
    if p.size == 2:
        return np.array([complex(-p[1] / p[0])])
    if p.size > 3:
        return np.roots(p)
    a, b, c = p
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        re, im = -b / (2.0 * a), math.sqrt(-disc) / (2.0 * abs(a))
        return np.array([complex(re, -im), complex(re, im)])
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return np.array([complex(q / a), complex(c / q if q else 0.0)])


def _taylor(c: complex, n: int, terms: int) -> np.ndarray:
    """The Taylor coefficients of (c + t)^n in t, the first `terms` of them."""
    out = np.empty(terms, dtype=complex)
    out[0] = np.complex128(c) ** n
    for i in range(1, terms):
        out[i] = out[i - 1] * (n - i + 1) / (i * c)
    return out


def partial_fractions(c: float, g: list) -> tuple | None:
    """The partial fractions of the u factor c * prod(g) at its poles in
    the lower half-plane, as (p, 0.0, j, A) for the terms A (u - p)^-j,
    when it is a proper rational function with no pole on the real line
    and well-conditioned partial fractions; else None.

    A real g is 2 Re of these terms on the real line, and the lower poles
    are all that bergman's residue sum needs.  The roots of each polynomial
    factor (_roots) merge where they are equal, so that a factor written
    twice is one pole of the summed order.  A root within _REAL_ROOT of the
    real line is real: a pole there (the integral diverges) or a cluster of
    roots that np.roots splits keeps the source off the record.  The
    coefficients come from the Taylor series of (u - p)^M g at each pole p
    of order M, and are kept only if they reproduce g to 1e-12 of their
    modulus sum at checkpoints next to every pole, where that sum is at
    most _PF_COND times max |g|."""
    with np.errstate(all="ignore"):   # numpy's rules: non-finite values fail the checks
        rational = [_rational(factor) for factor in g]
        if not c or any(r is None or not all(np.isfinite(p).all() for p, _ in r[1]) for r in rational):
            return None
        lead, order = c * math.prod(scale for scale, _ in rational), {}
        for _, factors in rational:
            for p, n in factors:
                for r in _roots(p):
                    r = complex(r.real, 0.0) if abs(r.imag) <= _REAL_ROOT * abs(r) else complex(r)
                    order[r] = order.get(r, 0) - n
        order = {r: m for r, m in order.items() if m}
        if not (lead and math.isfinite(abs(lead))) or sum(order.values()) < 1:
            return None
        lower = [r for r, m in order.items() if m > 0 and r.imag < 0.0]
        if not lower or any(m > 0 and r.imag == 0.0 for r, m in order.items()):
            return None
        terms = []
        for p in lower:
            m = order[p]
            phi = np.zeros(m, dtype=complex)
            phi[0] = lead
            for r, n in order.items():
                if r != p:
                    phi = np.convolve(phi, _taylor(p - r, -n, m))[:m]
            terms += [(p, 0.0, j, complex(phi[m - j])) for j in range(1, m + 1) if phi[m - j]]
        checks = np.array([p.real + s * p.imag for p in lower for s in (-1.0, 0.0, 1.0)])
        direct = np.full(checks.size, c, dtype=complex)
        for scale, factors in rational:
            direct *= scale
            for p, n in factors:
                direct *= np.polyval(p, checks) ** n
        parts = np.array([a * (checks - p) ** -float(j) for p, _, j, a in terms]).reshape(-1, checks.size)
        modulus = 2.0 * np.abs(parts).sum(axis=0)
        if not (np.all(np.abs(2.0 * parts.sum(axis=0).real - direct) <= 1e-12 * modulus)
                and modulus.max() <= _PF_COND * np.abs(direct).max()):
            return None
        return tuple(terms)
