"""The base of cwwkit's immutable records: `Value` implements equality,
hashing, `repr` and immutability once, so no record type generates and
compiles methods of its own when its module is imported."""

# Stores a field past `Value.__setattr__`. Unlike `self.__dict__.update`,
# it keeps the instance's attributes in the layout instances of one class
# share, which takes half the memory.
set_field = object.__setattr__


class Value:
    """An immutable record compared and hashed by its fields.

    A subclass lists its fields in `_fields` and stores each in
    `__init__` with `set_field`. An instance equals only an instance of
    the same class with equal fields, hashes as the tuple of its fields,
    prints as `Name(field=value, ...)` and refuses assignment and
    deletion. It keeps a `__dict__`, which `functools.cached_property`
    writes to.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        # getattr, not `self.__dict__`: reading `__dict__` would give each
        # instance a dict object of its own
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
