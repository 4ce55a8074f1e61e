"""Exception types raised across the package."""


class BanditError(Exception):
    """Base class for all library errors."""


class FailsToConverge(BanditError):
    """Design optimization could not certify its target within the iteration cap."""


class OutOfSpan(BanditError, ValueError):
    """A Gram matrix is numerically zero, or a queried vector has a component
    orthogonal to its span."""


class TooManyRemoved(BanditError):
    """The spectral filter removed more than half of its input points."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class ConfigInvalid(BanditError, ValueError):
    """An experiment config cannot be run: it cannot be read as JSON, a key
    or a JSON type is wrong (a section's keys and types are its dataclass's
    fields), a sweep rule fails, or an object it builds (a section dataclass
    or the instance) rejects a value."""


class CheckpointOutOfRange(BanditError, ValueError):
    """A requested play-count checkpoint exceeds the recorded trace length."""
