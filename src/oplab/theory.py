"""The paper's theorems in closed form, without numpy.

Everything here is a formula of the parameters: the spaces and the
kernel exponents, the boundedness criteria of the half-line operator H
and of the Bergman-type T+ (with the projection corollaries), the sharp
norm B(beta+1-(a+1)/p, alpha+(a+1)/p) on the diagonal gamma =
alpha+beta+1, the exact T+ norms at the endpoints, and the Okikiolu-Schur
certificate witness.  The modules that evaluate the operators
numerically (hilbert, bergman, schur) re-export these names, and the CLI
commands that only evaluate them load no numpy.

Extended-real conventions: p = inf is spelled math.inf, (a+1)/inf = 0,
and the conjugate exponent of 1 is inf.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleCertificateError, ParameterError
from .reports import ConditionReport, InequalityCheck, RelationCheck, verdict_report
from .specfun import beta as beta_fn
from .specfun import log_beta

__all__ = [
    "OperatorParams", "WeightedSpaceSpec", "MixedNormSpec", "BergmanVerdictRequest",
    "SchurCertificate", "conjugate_exponent", "weight_term", "solve_gamma",
    "source_window_holds", "target_window_holds", "diagonal_relation",
    "sup_criteria", "to_sup_criteria", "finite_criteria", "hilbert_verdict",
    "sharp_norm", "bergman_verdict", "tplus_exact_norm", "find_certificate",
]


# --------------------------------------------------------------------------
# parameters and spaces
# --------------------------------------------------------------------------

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
# half-line criteria and the sharp norm
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


# --------------------------------------------------------------------------
# Bergman-type verdicts and exact norms
# --------------------------------------------------------------------------

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


def tplus_exact_norm(case: str, params: OperatorParams, a: float | None = None) -> float:
    """Exact T+ norm in the endpoint cases: B(1/2, gamma/2) times the
    half-line sharp norm (sharp_norm) on the matching space.

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


# --------------------------------------------------------------------------
# Schur certificates (the construction; schur verifies them numerically)
# --------------------------------------------------------------------------

_INPUT = ("p", "q", "a", "b", "alpha", "beta", "gamma")
_WITNESS = ("omega", "t", "r", "s", "d", "m1", "m2", "bound")


@dataclass(frozen=True)
class SchurCertificate:
    """The exponent witness plus its Beta-product constants.

    m1_closed_form is M1^p' (a Beta value) for p > 1 and the sup constant
    C1 itself in the limit case p = 1; m2_closed_form is always M2^q.
    """

    p: float
    q: float
    a: float
    b: float
    alpha: float
    beta: float
    gamma: float
    omega: float
    t: float
    r: float
    s: float
    d: float
    m1: float
    m2: float
    bound: float
    m1_closed_form: float
    m2_closed_form: float
    limit_case: bool

    @property
    def params(self) -> OperatorParams:
        return OperatorParams(self.alpha, self.beta, self.gamma)

    def validate(self):
        """Re-check every defining invariant; raises ParameterError naming
        the first violated one (used when loading untrusted documents)."""
        # the exponent range and the sign of omega guard the divisions below
        if not 1.0 <= self.p <= self.q < math.inf:
            raise ParameterError("certificate invariant violated: 1 <= p <= q < inf")
        if not self.omega < 0.0:
            raise ParameterError("certificate invariant violated: omega < 0")
        pp = conjugate_exponent(self.p)
        a1p = 0.0 if math.isinf(pp) else (self.a + 1.0) / pp
        bq = (self.b + 1.0) / self.q
        checks = [
            ("omega = alpha+beta-gamma-a", abs(self.omega - (self.alpha + self.beta - self.gamma - self.a)) <= 1e-9),
            ("0 < t <= 1", 0.0 < self.t <= 1.0),
            ("t = (-(a+1)/p' + s - r)/omega", abs(self.t - ((-a1p + self.s - self.r) / self.omega)) <= 1e-9),
            ("d = r - s", abs(self.d - (self.r - self.s)) <= 1e-12),
            ("0 < d < (b+1)/q", 0.0 < self.d < bq),
            ("s-window lower: -(beta-a)(1-t) < s", -(self.beta - self.a) * (1.0 - self.t) < self.s),
            ("s-window upper: s < (a+1)/p' + (beta-a) t", self.s < a1p + (self.beta - self.a) * self.t),
            ("r-window lower: -alpha t < r", -self.alpha * self.t < self.r),
            ("r-window upper: r < (b+1)/q + alpha(1-t)", self.r < bq + self.alpha * (1.0 - self.t)),
            ("bound = m1*m2", abs(self.bound - self.m1 * self.m2) <= 1e-9 * abs(self.bound)),
        ]
        for name, ok in checks:
            if not ok:
                raise ParameterError(f"certificate invariant violated: {name}")

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "schur-certificate",
            "input": {k: getattr(self, k) for k in _INPUT},
            "certificate": {k: getattr(self, k) for k in _WITNESS},
            "closed_forms": {"m1": self.m1_closed_form, "m2": self.m2_closed_form},
            "limit_case": self.limit_case,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SchurCertificate":
        """Load a certificate document (or the full report of ``certify``);
        ParameterError names a missing or non-numeric field."""
        try:
            if doc.get("kind") != "schur-certificate" and "results" in doc:
                doc = doc["results"]["certificate"]
            fields = {k: doc["input"][k] for k in _INPUT}
            fields.update({k: doc["certificate"][k] for k in _WITNESS})
            fields.update(m1_closed_form=doc["closed_forms"]["m1"],
                          m2_closed_form=doc["closed_forms"]["m2"])
            limit_case = bool(doc.get("limit_case", fields["p"] == 1.0))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ParameterError(f"not a certificate document (missing field or section: {exc})") from exc
        for name, value in fields.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ParameterError(f"certificate field {name} must be a number, got {value!r}")
        return cls(**fields, limit_case=limit_case)


def _sup_constant(A: float, C: float) -> float:
    """max over u > 0 of u^A (1+u)^(-C) for 0 < A < C."""
    B = C - A
    return math.exp(A * math.log(A) + B * math.log(B) - C * math.log(C))


def find_certificate(p: float, q: float, a: float, b: float,
                     params: OperatorParams, d: float | None = None) -> SchurCertificate:
    """Construct a boundedness certificate for H : L^p_a -> L^q_b.

    Requires the verdict to accept (1 <= p <= q < inf regime); the witness
    then exists for every d = r - s in (0, (b+1)/q) (see the docstring of
    oplab.schur), so d is the window midpoint unless a specific d is forced.
    """
    if math.isinf(q):
        raise ParameterError("certificates cover finite target exponents only (q < inf)")
    verdict = hilbert_verdict(p, q, a, b, params)
    if not verdict.bounded:
        raise ParameterError(f"not in the bounded regime ({verdict.decided_by}); no certificate exists")
    al, be, ga = params.alpha, params.beta, params.gamma
    pp = conjugate_exponent(p)
    a1p = 0.0 if math.isinf(pp) else (a + 1.0) / pp
    bq = (b + 1.0) / q
    omega = al + be - ga - a
    if not omega < 0.0:
        raise ParameterError(f"omega = alpha+beta-gamma-a = {omega} must be negative")
    d = bq / 2.0 if d is None else float(d)
    if not 0.0 < d < bq:
        raise ParameterError(f"forced d must lie in (0, {bq}), got {d}")

    t = (-d - a1p) / omega
    lo = max(-(be - a) * (1.0 - t), -al * t - d)
    hi = min(a1p + (be - a) * t, bq + al * (1.0 - t) - d)
    if not (0.0 < t < 1.0 and lo < hi):
        raise InfeasibleCertificateError(
            f"no feasible exponent witness at d = {d} for (p={p}, q={q}, a={a}, b={b}, {params})"
        )
    s = 0.5 * (lo + hi)
    return _build(p, q, a, b, params, omega, t, s, s + d, d)


def _build(p, q, a, b, params, omega, t, s, r, d) -> SchurCertificate:
    al, be = params.alpha, params.beta
    limit = p == 1.0
    m2_cf = beta_fn(-r * q + al * (1.0 - t) * q + b + 1.0, (be - a) * (1.0 - t) * q + s * q)
    m2 = math.exp(log_beta(-r * q + al * (1.0 - t) * q + b + 1.0,
                           (be - a) * (1.0 - t) * q + s * q) / q)
    if limit:
        A = (be - a) * t - s
        C = params.gamma * t
        m1_cf = _sup_constant(A, C)
        m1 = m1_cf
    else:
        pp = conjugate_exponent(p)
        arg1 = -s * pp + (be - a) * t * pp + a + 1.0
        arg2 = al * t * pp + r * pp
        m1_cf = beta_fn(arg1, arg2)
        m1 = math.exp(log_beta(arg1, arg2) / pp)
    return SchurCertificate(
        p=p, q=q, a=a, b=b, alpha=al, beta=be, gamma=params.gamma,
        omega=omega, t=t, r=r, s=s, d=d, m1=m1, m2=m2, bound=m1 * m2,
        m1_closed_form=m1_cf, m2_closed_form=m2_cf, limit_case=limit,
    )
