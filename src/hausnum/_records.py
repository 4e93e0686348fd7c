"""Value semantics for the package's record types, read from ``__slots__``.

A record lists its fields in ``__slots__`` (a subclass lists only the fields
it adds) and writes its own ``__init__`` taking them in that order.  A slot
whose name starts with an underscore is not a field: a record may keep data
derived from its fields there (a cache), which equality, hashing, the repr,
``__match_args__`` and pickling leave out.
``Record`` compares two records of the same class field by field and prints
``Name(field=value, ...)``.  ``FrozenRecord`` also hashes like the tuple of
its fields and refuses assignment, so its ``__init__`` sets every slot in
order, the fields then the caches, with ``_assign``.

Records are written this way, not with the standard library's record
decorator, because importing that module (it loads ``inspect`` and ``ast``)
and building each class with it cost every command-line call more time than
the call's own work.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = [name for base in reversed(cls.__mro__)
                 for name in base.__dict__.get("__slots__", ())]
        fields = tuple(name for name in slots if not name.startswith("_"))
        cls._fields = cls.__match_args__ = fields
        cls._slots = fields + tuple(name for name in slots if name.startswith("_"))
        # ``_astuple(record)``: the tuple of its field values
        if len(fields) == 1:
            get = attrgetter(fields[0])
            cls._astuple = staticmethod(lambda record: (get(record),))
        elif fields:
            cls._astuple = staticmethod(attrgetter(*fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == self._astuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self._slots, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple(self)
