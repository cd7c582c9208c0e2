"""The frozen base of the package's record classes.

Each record class writes out its ``__init__``, storing its fields with
``store``, and where it compares by value, its ``__eq__`` and ``__hash__``
over the tuple of its fields.  Generating those methods with ``dataclasses``
took about 18 ms of every import of the package, most of an import that
reads cached bytecode; written out, they also run no slower than the
generated ones.
"""

store = object.__setattr__


class Frozen:
    """Fields are set once, by ``__init__``; assigning or deleting one raises."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
