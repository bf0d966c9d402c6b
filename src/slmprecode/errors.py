"""Exception types shared across the package."""


class PrecodingError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3  # the command line's exit status: 3 is a numerical error


class SingularMatrixError(PrecodingError):
    """A matrix is singular to working precision (an LU pivot vanished)."""


class IllConditionedError(PrecodingError):
    """A matrix or channel exceeds the configured condition-number limit."""


class NotSymmetricError(PrecodingError):
    """A matrix expected to be symmetric is not, beyond tolerance."""


class NotPositiveDefiniteError(PrecodingError):
    """A matrix expected to be positive definite has a non-positive pivot."""


class NoConvergenceError(PrecodingError):
    """An iterative eigenvalue computation did not converge."""


class NonPositiveEigenvalueError(PrecodingError):
    """An eigenvalue expected to be strictly positive is not."""


class NonSquareError(PrecodingError):
    """A channel matrix is not square."""


class DimensionMismatchError(PrecodingError):
    """Vector or matrix dimensions do not agree."""


class EmptyCandidateSetError(PrecodingError):
    """A candidate list for minimum-energy selection is empty."""


class SearchBudgetExceededError(PrecodingError):
    """An exhaustive search would enumerate more points than allowed."""


class LengthMismatchError(PrecodingError):
    """A bit sequence has a length incompatible with the requested framing."""


class ParseError(PrecodingError):
    """A channel file or config document could not be parsed."""

    exit_code = 2


class ConfigError(PrecodingError):
    """An experiment configuration is invalid or inconsistent."""

    exit_code = 2


class ReportIOError(PrecodingError):
    """A report or channel file could not be read or written."""

    exit_code = 4
