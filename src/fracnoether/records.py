"""Records: a :class:`Record` subclass reads its annotated fields once, when
it is created, and gets a constructor (the fields in order or by name, a
class-body value a default, then ``__post_init__`` if defined), a repr,
equality, a hash and no assignment: a record's fields are set only by its
constructor, and a ``__post_init__`` that checks or normalizes them sets
them through ``object.__setattr__``.  Every method is written here once,
none generated from source text, and no record writes its own
``__init__``, ``__eq__`` or ``__hash__``.
"""

_MISSING = object()


class field:
    """A field's options, given as its class-body value: its default, and
    whether it is ``hidden``, left out of the repr, equality and hash."""

    __slots__ = ("default", "hidden")

    def __init__(self, default=_MISSING, *, hidden=False):
        self.default, self.hidden = default, hidden


def refuse_assignment(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of every record."""
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


class Record:
    _fields: tuple = ()  # (name, field) in declaration order, inherited fields first
    _shown: tuple = ()  # the names of the fields that are not hidden
    __setattr__ = __delattr__ = refuse_assignment

    def __init_subclass__(cls):
        own = []
        for name in cls.__dict__.get("__annotations__", {}):
            spec = cls.__dict__.get(name, _MISSING)
            spec = spec if isinstance(spec, field) else field(spec)
            if spec.default is not _MISSING:
                setattr(cls, name, spec.default)
            elif name in cls.__dict__:
                delattr(cls, name)
            own.append((name, spec))
        cls._fields += tuple(own)
        cls._shown = tuple([name for name, f in cls._fields if not f.hidden])

    def __init__(self, *args, **kwargs):
        names = [name for name, _ in self._fields]
        if len(args) > len(names) or kwargs.keys() - names[len(args):]:
            raise TypeError(f"{type(self).__name__}() takes the fields {names} in order")
        kwargs.update(zip(names, args))
        for name, f in self._fields:
            if name in kwargs:
                value = kwargs[name]
            elif f.default is not _MISSING:
                value = f.default
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def _compared(self) -> tuple:
        return tuple([getattr(self, name) for name in self._shown])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"


def plain(value):
    """``value`` in the form ``json`` writes: a record the dict of its shown
    fields, every tuple or list a list and every dict a copy, nested ones too."""
    if isinstance(value, Record):
        return {name: plain(getattr(value, name)) for name in value._shown}
    if isinstance(value, (tuple, list)):
        return [plain(x) for x in value]
    if isinstance(value, dict):
        return {key: plain(x) for key, x in value.items()}
    return value


def replace(record, **changes):
    """``record`` with ``changes``, built anew by its constructor and checked
    again by ``__post_init__``."""
    for name, _ in record._fields:
        changes.setdefault(name, getattr(record, name))
    return type(record)(**changes)
