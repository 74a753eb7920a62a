"""The base of glovekit's immutable value classes, built without ``dataclasses``,
whose class generation every command would pay at import."""


class Record:
    """Fields listed in a subclass's ``__slots__``, set once by its
    ``__init__`` and never reassigned. ``==``, ``hash`` and ``repr`` go by the
    field values in slot order, as for a frozen dataclass; a subclass that
    holds arrays sets ``__eq__`` and ``__hash__`` back to ``object``'s."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
