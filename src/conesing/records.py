"""Immutable value records.

Every value type of the package derives from Record: a class lists its
fields in _fields and sets them once, in its own __init__, straight
into the instance dictionary.  Two records are equal when they are of
the same class and their field tuples are equal; a record of another
class compares as NotImplemented.  The hash is that of the field tuple,
and assigning or deleting any attribute raises AttributeError.  The
repr names the class and its fields in order.  Values computed on
first use (by functools.cached_property, or by a method that stores its
result under a private name) go into the instance dictionary next to
the fields and take no part in equality or the repr.  The types built
in inner loops (per point, per star graph, per toric sample) store each
field under its key, which is the fastest form; the others set theirs
with one dictionary update.  Equality and the hash read the field tuple
with one operator.itemgetter call per record.  Catalog entries are not
records: the sweep builds each one directly as the JSON object its
file holds.
"""


from operator import itemgetter


class Record:
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # _values reads the field tuple off the instance dictionary in one
        # C call; itemgetter of a single key gives the bare value
        get = itemgetter(*cls._fields)
        cls._values = staticmethod(
            get if len(cls._fields) > 1 else lambda d: (get(d),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self.__dict__) == values(other.__dict__)

    def __hash__(self):
        return hash(self._values(self.__dict__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        d = self.__dict__
        body = ", ".join(f"{f}={d[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"
