"""Records: a :class:`Record` subclass reads its annotated fields once, when
it is created, and gets a constructor (the fields in order or by name, a
class-body value a default, then ``__post_init__`` if defined), a repr,
equality, a hash and no assignment: a record's fields are set only by its
constructor, and a ``__post_init__`` that normalizes them sets them through
``object.__setattr__``.  Every method is written here once, none generated
from source text; a class may write its own ``__init__``, ``__eq__`` or
``__hash__``.
"""

_MISSING = object()


class field:
    """A field's options, given as its class-body value."""

    __slots__ = ("default", "default_factory", "init", "repr", "compare")

    def __init__(self, default=_MISSING, *, default_factory=None, init=True, repr=True,
                 compare=True):
        self.default, self.default_factory = default, default_factory
        self.init, self.repr, self.compare = init, repr, compare


def refuse_assignment(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of every record."""
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


class Record:
    _fields: tuple = ()  # (name, field) in declaration order, inherited fields first
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

    def __init__(self, *args, **kwargs):
        names = [name for name, f in self._fields if f.init]
        if len(args) > len(names) or kwargs.keys() - names[len(args):]:
            raise TypeError(f"{type(self).__name__}() takes the fields {names} in order")
        kwargs.update(zip(names, args))
        for name, f in self._fields:
            if name in kwargs:
                value = kwargs[name]
            elif f.default_factory is not None:
                value = f.default_factory()
            elif f.default is not _MISSING:
                value = f.default
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def _compared(self) -> tuple:
        return tuple([getattr(self, name) for name, f in self._fields if f.compare])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name, f in self._fields if f.repr)
        return f"{type(self).__qualname__}({shown})"


def replace(record, **changes):
    """``record`` with ``changes``, built anew by its constructor: checked again
    by ``__post_init__``, fields outside the constructor at their defaults."""
    for name, f in record._fields:
        if f.init:
            changes.setdefault(name, getattr(record, name))
    return type(record)(**changes)
