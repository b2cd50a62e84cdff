"""Exception taxonomy shared by all oplab modules.

Each class carries the CLI's error ``kind`` (the ``"error"`` field of the
stderr JSON), the ``fields`` that JSON adds after ``"detail"``, and
``exit_code``: parameter, domain and expression problems
are "parameters" (exit 2), detected divergence of an integral is
"divergence" (exit 3, often the *expected* signal in an unbounded
regime), and quadrature accuracy failure or a failed certificate
verification is "accuracy" (exit 4).
"""

from __future__ import annotations


class OplabError(Exception):
    """Base class for all oplab errors."""

    kind = "parameters"
    exit_code = 2
    fields: tuple[str, ...] = ()


class DomainError(OplabError, ValueError):
    """A mathematical argument is outside the function's domain."""


class ParameterError(OplabError, ValueError):
    """Parameters violate a precondition or fall in an unsupported regime."""


class DivergenceError(OplabError):
    """The requested integral diverges; carries which endpoint failed."""

    kind = "divergence"
    exit_code = 3

    def __init__(self, message: str, endpoint: str | None = None):
        super().__init__(message)
        self.endpoint = endpoint


class AccuracyError(OplabError):
    """Refinement budget exhausted before the tolerance was met."""

    kind = "accuracy"
    exit_code = 4
    fields = ("last_change",)

    def __init__(self, message: str, estimate=None, last_change=None):
        super().__init__(message)
        self.estimate = estimate
        self.last_change = last_change


class InfeasibleCertificateError(OplabError):
    """No feasible certificate witness exists at the chosen exponent gap d."""


class CertificateVerificationError(OplabError):
    """A certificate inequality exceeded its residual tolerance."""

    kind = AccuracyError.kind
    exit_code = AccuracyError.exit_code
    fields = ("inequality", "sample", "residual")

    def __init__(self, message: str, inequality: str, sample: float, residual: float):
        super().__init__(message)
        self.inequality = inequality
        self.sample = sample
        self.residual = residual


class ExprError(OplabError, ValueError):
    """Base class for expression-language errors; carries an offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class ExprSyntaxError(ExprError):
    pass


class ExprArityError(ExprError):
    pass


class NonConstantExponentError(ExprError):
    pass
