"""The frozen base of the package's record classes.

A record class writes out its ``__init__``, storing its fields with
``store``.  A class that compares by value names its fields once, in
``__init__`` order: ``class Block(Frozen, fields=("d", "size"))``.  It then
equals a record of its own class with equal fields, and hashes as the tuple
of its fields, the hash that orders sets of records.  A class that names no
fields compares by identity.  ``Frozen.__init_subclass__`` gives every value
class the one ``__eq__`` and ``__hash__`` below, over an ``attrgetter`` of
its fields; no code is generated, as ``dataclasses`` would: that took about
18 ms of every import of the package, most of an import that reads cached
bytecode.
"""

from operator import attrgetter

store = object.__setattr__


class Frozen:
    """Fields are set once, by ``__init__``; assigning or deleting one raises."""

    fields = ()

    def __init_subclass__(cls, fields=(), **kwargs):
        super().__init_subclass__(**kwargs)
        if not fields:
            return
        cls.fields = fields
        key = attrgetter(*fields)  # with one field, the value itself
        one = len(fields) == 1

        def __eq__(self, other):
            if other is self:
                return True
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash((key(self),)) if one else hash(key(self))

        cls.__eq__ = __eq__
        if "__hash__" not in cls.__dict__:  # ProductWindow keeps its own, taken once
            cls.__hash__ = __hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
