"""Exception types shared across the package."""


class InvariantControlError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(InvariantControlError):
    """Operands have incompatible dimensions."""


class SingularControl(InvariantControlError):
    """A control formula denominator vanishes with a nonzero numerator."""


class NonPositiveRho(InvariantControlError):
    """The Ermakov scaling function is not strictly positive."""


class SingularInterpolation(InvariantControlError):
    """The boundary-constraint linear system is singular."""


class NoRoot(InvariantControlError):
    """Root bracketing failed within the configured bounds."""


class StepSizeUnderflow(InvariantControlError):
    """The adaptive integrator could not take a valid step."""


class UnsupportedChannel(InvariantControlError):
    """Noise channel tag is not handled by this integrator."""


class ZeroNormalizer(InvariantControlError):
    """The commutator-measure normalizer integrates to zero."""


class AllZeroStrengths(InvariantControlError):
    """Weighted average requested with all channel strengths zero."""


class NonFiniteObjective(InvariantControlError):
    """Objective is not finite at the starting point."""


class NonPSDInput(InvariantControlError):
    """Matrix has a significantly negative eigenvalue."""


class InvalidCovariance(InvariantControlError):
    """Gaussian moments violate positivity or the uncertainty relation."""


class DegenerateSpectrum(InvariantControlError):
    """Invariant spectrum is degenerate; overlap measures are undefined."""


class ConfigError(InvariantControlError):
    """Experiment configuration is missing or inconsistent."""


class TruncationWarning(UserWarning):
    """Significant population reached the top of the truncated Fock basis."""
