"""Exception hierarchy shared across the package, and the guard of its
immutable value types.

Domain errors (bad mathematical input: exceptional target, preperiodic point
where a wandering one is required, zero where nonzero is required) map to CLI
exit code 1; parse and configuration errors map to exit code 2.
"""


class FFDynError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FFDynError):
    """Input is syntactically fine but mathematically inadmissible."""


class OrbitBudgetError(DomainError):
    """An orbit computation exceeded its height or iteration budget."""


class ParseError(FFDynError):
    """Malformed expression text. Carries a 0-based position when known."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position

    def shifted(self, offset: int) -> "ParseError":
        """The same error in a text that holds this one's text at offset:
        the position, and the position its message ends with, move by
        offset."""
        if self.position is None or not offset:
            return self
        message = str(self).removesuffix(f" at position {self.position}")
        position = self.position + offset
        return ParseError(f"{message} at position {position}", position)


class ConfigError(FFDynError):
    """Malformed configuration file or CLI flag combination."""


# An immutable value type sets each field once, in __init__, with set_field
set_field = object.__setattr__


def frozen(self, name, *value):
    """__setattr__ and __delattr__ of the package's immutable value types."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")
