"""The shared base of the package's immutable value classes."""

from __future__ import annotations

from operator import attrgetter


class Value:
    """An immutable value with equality, hash and repr over its fields.

    A subclass lists its fields in ``_fields``, in order, as its
    ``__slots__`` too, and writes its own ``__init__``, which checks its
    arguments and stores the fields with ``_store`` or, where each call
    counts, ``object.__setattr__``.  Equality holds between two
    instances of one class with equal fields, the hash is that of the
    fields, and the repr is the one a dataclass prints.  Assigning or
    deleting an attribute raises AttributeError.  A subclass declared
    with ``eq=False`` compares and hashes by identity.  Copies and
    pickles are rebuilt by ``__init__`` from the fields.

    Frozen dataclasses would give the same methods, but ``dataclass``
    compiles them from source with ``exec`` when the class is created:
    for the fourteen value classes the package then had, that was 82
    compilations and a third of the time of ``import semiglue.cli``, paid
    by every CLI call before any algebra runs.  The records that
    ``dataclasses.replace`` copies stay dataclasses.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Of one name, this returns the value itself: equal exactly when
        # the 1-tuples are, so equality and hash keep their meaning.
        cls._values = attrgetter(*cls._fields)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def _store(self, *values) -> None:
        """Set the fields to the values, in ``_fields`` order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        # rebuild through __init__: restoring slot state would need setattr
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
