"""oplab: a numerical laboratory for weighted Hilbert-type operators on the
half-line and Bergman-type operators on the upper half-plane.

The package evaluates the operators by adaptive double-exponential
quadrature, decides boundedness from the parameter criteria, computes
the closed-form sharp norms, constructs and re-verifies Schur-type
boundedness certificates, and reproduces the sharpness and necessity
arguments (extremal Rayleigh quotients, dilation scaling) numerically.
"""

from .bergman import (
    BergmanVerdictRequest,
    HalfPlanePoint,
    MixedNormSpec,
    apply_T,
    apply_Tplus,
    bergman_constant,
    bergman_project,
    bergman_verdict,
    column_integral,
    kernel_row_integral,
    mixed_norm,
    reduction_bound_check,
    reproduce_check,
    reproducing_probe,
    tplus_exact_norm,
)
from .errors import (
    AccuracyError,
    CertificateVerificationError,
    DivergenceError,
    DomainError,
    ExprArityError,
    ExprSyntaxError,
    InfeasibleCertificateError,
    NonConstantExponentError,
    OplabError,
    ParameterError,
)
from .funcdsl import Func1D, Func2D, eval_expr, func1d, func2d, parse, pretty
from .hilbert import (
    ExtremalFamily,
    OperatorParams,
    WeightedSpaceSpec,
    apply_H,
    apply_H_adjoint,
    apply_H_many,
    dilation_residual,
    extremal_quotient,
    growth_exponent,
    hilbert_verdict,
    image_norm,
    sharp_norm,
    solve_gamma,
    weighted_lp_norm,
)
from .quad import (
    DEFAULT_TOL_1D,
    DEFAULT_TOL_2D,
    SingularityHints,
    integrate_halfplane,
    integrate_interval,
    integrate_real_line,
    integrate_semiaxis,
    integrate_truncated,
)
from .schur import (
    SchurCertificate,
    find_certificate,
    sup_test_L1,
    sup_test_Linf,
    verify_certificate,
)
from .specfun import beta, log_beta, log_gamma

__version__ = "0.1.0"
