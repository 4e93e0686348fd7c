"""Value semantics for the package's record types, read from ``__slots__``.

A record lists its fields in ``__slots__`` (a subclass lists only the fields
it adds) and writes its own ``__init__`` taking them in that order; it sets the
fields, then the caches it fills at once, in slot order with ``_assign``.  A slot
whose name starts with an underscore is not a field: a record may keep data
derived from its fields there (a cache), which equality, hashing, the repr,
``__match_args__`` and pickling leave out.
``FrozenRecord`` compares two records of the same class field by field,
hashes like the tuple of their fields, prints ``Name(field=value, ...)``,
refuses assignment and deletion, and copies and pickles through its
constructor.  A record whose fields hold a dict or a list does not hash.

Records are written this way, not with the standard library's record
decorator, because importing that module (it loads ``inspect`` and ``ast``)
and building each class with it cost every command-line call more time than
the call's own work.
"""

from operator import attrgetter

from .limits import shown


class FrozenRecord:
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

    def _assign(self, *values) -> None:
        for name, value in zip(self._slots, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == self._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={shown(getattr(self, name))}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple(self)
