"""The base of the package's immutable value classes."""


class Frozen:
    """A value whose fields are the names in its class's __slots__, each set
    once on construction: by position in slot order, then by name.  A
    missing, extra or unknown field raises TypeError.  Assigning or deleting
    one afterwards raises AttributeError; equality, hash, copy and pickle go
    by the field tuple.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        slots = self.__slots__
        if named:
            values += tuple([named.pop(name) for name in slots[len(values):] if name in named])
            if named:
                raise TypeError(f"{type(self).__name__} has no field {next(iter(named))!r} left to set by name")
        if len(values) != len(slots):
            raise TypeError(f"{type(self).__name__} takes the {len(slots)} fields {', '.join(slots)}, "
                            f"got {len(values)}")
        put = object.__setattr__
        for name, value in zip(slots, values):
            put(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")

    __getstate__ = _fields

    def __setstate__(self, state):
        Frozen.__init__(self, *state)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
