"""The base of detkit's record classes."""


class Slotted:
    """A record whose fields are its class's `__slots__`, in order: the
    repr of a dataclass, and equality and hash by field values (a mutable
    subclass sets `__hash__ = None`).  Subclasses write their own
    `__init__`."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
