"""Exception hierarchy shared across the package, and ``Value``, the base
of its immutable value types.

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


class Value:
    """Base of the immutable value types. A subclass names its fields once,
    in ``__match_args__``, and sets each in ``__init__`` with set_field.
    Equality (between instances of one class), the hash of the field tuple,
    the repr ``Name(field=value, ...)`` and pickling through the constructor
    are read from that tuple; a type compared on a hot path keeps its own
    ``__eq__`` and ``__hash__``, with the same meaning."""

    __slots__ = ()
    __setattr__ = __delattr__ = frozen

    def _values(self):
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):
        # pickle and copy would restore the fields through the frozen __setattr__
        return self.__class__, self._values()
