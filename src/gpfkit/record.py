"""Plain records: classes whose slots are their fields.

A subclass lists its fields in `__slots__` and, when the last few may be
left out, their values in `_defaults`.  Fields are filled in order from
the positional arguments and then by name.  Defaults are shared by every
instance, so they must be immutable.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _defaults = ()

    def __init__(self, *values, **named):
        fields = self.__slots__
        if len(values) == len(fields) and not named:
            for name, value in zip(fields, values):
                setattr(self, name, value)
            return
        kind = type(self).__name__
        if len(values) > len(fields):
            raise TypeError(
                "%s takes %d fields, got %d" % (kind, len(fields), len(values))
            )
        first_default = len(fields) - len(self._defaults)
        for i, name in enumerate(fields):
            if i < len(values):
                if name in named:
                    raise TypeError("%s got %r twice" % (kind, name))
                value = values[i]
            elif name in named:
                value = named.pop(name)
            elif i >= first_default:
                value = self._defaults[i - first_default]
            else:
                raise TypeError("%s is missing %r" % (kind, name))
            setattr(self, name, value)
        if named:
            raise TypeError("%s has no field %r" % (kind, sorted(named)[0]))
