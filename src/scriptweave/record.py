"""Base class of the mutable records. The package uses no dataclasses: the
decorator execs generated source per class and its import loads inspect,
a cost every stage process would pay at start-up."""

from __future__ import annotations


class Record:
    """Equality and repr over the attributes named in ``_fields``: as with a
    dataclass, equal records share a class and all fields, and none is hashable."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
