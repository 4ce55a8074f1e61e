"""Exception types raised across the package."""


class BanditError(Exception):
    """Base class for all library errors."""


class FailsToConverge(BanditError):
    """Design optimization could not certify its target within the iteration cap."""


class InvalidNu(BanditError, ValueError):
    """Coreset floor parameter nu is outside the valid open interval (0, 1)."""


class OutOfSpan(BanditError, ValueError):
    """A Gram matrix is numerically zero, or a queried vector has a component
    orthogonal to its span."""


class TooManyRemoved(BanditError):
    """The spectral filter removed more than half of its input points."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class ConfigInvalid(BanditError, ValueError):
    """An experiment configuration failed schema or semantic validation."""


class CheckpointOutOfRange(BanditError, ValueError):
    """A requested play-count checkpoint exceeds the recorded trace length."""
