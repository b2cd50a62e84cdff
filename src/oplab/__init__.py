"""oplab: a numerical laboratory for weighted Hilbert-type operators on the
half-line and Bergman-type operators on the upper half-plane.

The package evaluates the operators by adaptive double-exponential
quadrature, decides boundedness from the parameter criteria, computes
the closed-form sharp norms, constructs and re-verifies Schur-type
boundedness certificates, and reproduces the sharpness and necessity
arguments (extremal Rayleigh quotients, dilation scaling) numerically.

The public names below are imported from their modules on first access
(PEP 562), so ``import oplab`` loads no numpy, and neither does using
only the closed forms of ``oplab.theory``.
"""

_EXPORTS = {
    "bergman": ("HalfPlanePoint", "apply_T", "apply_Tplus", "bergman_constant",
                "bergman_project", "column_integral", "kernel_row_integral", "mixed_norm",
                "reduction_bound_check", "reproduce_check", "reproducing_probe"),
    "errors": ("AccuracyError", "CertificateVerificationError", "DivergenceError",
               "DomainError", "ExprArityError", "ExprSyntaxError",
               "InfeasibleCertificateError", "NonConstantExponentError", "OplabError",
               "ParameterError"),
    "funcdsl": ("Func1D", "Func2D", "eval_expr", "func1d", "func2d", "parse", "pretty"),
    "hilbert": ("ExtremalFamily", "apply_H", "apply_H_adjoint", "apply_H_many",
                "dilation_residual", "extremal_quotient", "growth_exponent", "image_norm",
                "weighted_lp_norm"),
    "quad": ("DEFAULT_TOL_1D", "DEFAULT_TOL_2D", "SingularityHints", "integrate_halfplane",
             "integrate_interval", "integrate_real_line", "integrate_semiaxis",
             "integrate_truncated"),
    "schur": ("sup_test_L1", "sup_test_Linf", "verify_certificate"),
    "specfun": ("beta", "log_beta", "log_gamma"),
    "theory": ("BergmanVerdictRequest", "MixedNormSpec", "OperatorParams", "SchurCertificate",
               "WeightedSpaceSpec", "bergman_verdict", "find_certificate", "hilbert_verdict",
               "sharp_norm", "solve_gamma", "tplus_exact_norm"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # an AttributeError lets ``from oplab import bergman`` import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
