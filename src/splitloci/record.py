"""Plain value classes for the reports, verdicts and expression nodes.

Every CLI call imports the package before it does any work, and
importing `dataclasses` loads `inspect`, `ast`, `dis` and `tokenize`,
then generates and executes each decorated class's methods. A `Record`
subclass instead lists its fields, in order, as its `__slots__`. It is
built from them by position or keyword, with the defaults in `DEFAULTS`
(a list default is copied for each instance); it equals only an instance
of its own class with equal fields, and is unhashable. A `FrozenRecord`
rejects assignment and hashes as the tuple of its fields.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    DEFAULTS: dict = {}

    def __init__(self, *args, **kwargs):
        names, cls = self.__slots__, type(self)
        if len(args) > len(names):
            raise TypeError("%s() takes %d arguments but %d were given"
                            % (cls.__name__, len(names), len(args)))
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in cls.DEFAULTS:
                value = cls.DEFAULTS[name]
                if type(value) is list:
                    value = list(value)
            else:
                raise TypeError("%s() is missing the argument %r"
                                % (cls.__name__, name))
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError("%s() got unexpected or repeated arguments %s"
                            % (cls.__name__, ", ".join(sorted(kwargs))))

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a frozen %s"
                             % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of a frozen %s"
                             % (name, type(self).__name__))

    def __hash__(self) -> int:
        return hash(self._fields())
