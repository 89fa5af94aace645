"""Exception hierarchy.

ConfigError (a bad config, a truncation deficit above the config's gate, an
output path that cannot be written) maps to CLI exit code 2, NumericalError
and subclasses to exit code 3, VerificationFailure to exit code 4.
"""


class OptomoError(Exception):
    """Base class for all package errors."""


class ConfigError(OptomoError):
    """Invalid or inconsistent experiment configuration."""


class NumericalError(OptomoError):
    """Numerical failure in a computation module."""


class NonInvertibleEntanglerError(NumericalError):
    """Entangler matrix is singular or too ill-conditioned to invert."""


class AnnihilatingOperationError(NumericalError):
    """The operation maps the input state to zero."""


class NotCompletelyPositiveError(NumericalError):
    """Matrix has a negative eigenvalue beyond tolerance; not a CP map."""


class UnphysicalDeconvolutionError(NumericalError):
    """Quantum efficiency at or below 1/2; noise deconvolution diverges."""


class IllConditionedKernelError(NumericalError):
    """Pattern-function system too ill-conditioned on some diagonal."""

    def __init__(self, delta: int, message: str = ""):
        self.delta = delta
        super().__init__(
            message or f"kernel system ill-conditioned on diagonal delta={delta}"
        )


class ReferenceTooSmallError(NumericalError):
    """Reference matrix element consistent with zero; pick another (i0, j0)."""


class VerificationFailure(OptomoError):
    """A verification suite reported at least one failing check."""
