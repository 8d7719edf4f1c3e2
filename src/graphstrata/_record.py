"""Frozen value records, built without ``dataclasses``.

``record`` gives a class that annotates its fields what
``@dataclass(frozen=True)`` gives it, with the same values and messages:
``__init__`` by position or keyword, then ``__post_init__``; ``__eq__`` and
``__hash__`` over the compared fields; a ``QualName(f=value, ...)`` repr;
``__match_args__``; and ``FrozenInstanceError`` on assignment and deletion.
``order=True`` adds the four order methods, and names in ``uncompared``
stay out of equality and hashing, as with ``field(compare=False)``.

The methods are closures, so nothing is compiled and ``dataclasses`` (which
imports ``inspect``) is never loaded: each command runs in a fresh process,
where that import cost more than most answers.  Fields are set with
``object.__setattr__``; writing them into ``__dict__`` would slow every
later attribute read.  Instances keep a ``__dict__`` for
``functools.cached_property``.
"""

from __future__ import annotations

import operator

__all__ = ["FrozenInstanceError", "record"]


class FrozenInstanceError(AttributeError):
    """Raised on assigning to or deleting an attribute of a record."""


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _bind(where: str, names: tuple, args: tuple, kwargs: dict) -> tuple:
    """The field values of a call, or the ``TypeError`` Python would raise."""
    rest = names[len(args) :]
    if len(args) + len(kwargs) == len(names) and all(name in kwargs for name in rest):
        return args + tuple([kwargs[name] for name in rest])
    # Not a valid call: raise its first fault in the order Python checks.
    for name in kwargs:
        if name not in names:
            raise TypeError(f"{where}() got an unexpected keyword argument {name!r}")
        if name not in rest:
            raise TypeError(f"{where}() got multiple values for argument {name!r}")
    if len(args) > len(names):
        raise TypeError(
            f"{where}() takes {len(names) + 1} positional arguments "
            f"but {len(args) + 1} were given"
        )
    missing = [repr(name) for name in rest if name not in kwargs]
    listed = " and ".join(missing) if len(missing) < 3 else (
        ", ".join(missing[:-1]) + ", and " + missing[-1]
    )
    plural = "s" if len(missing) > 1 else ""
    raise TypeError(
        f"{where}() missing {len(missing)} required positional argument{plural}: {listed}"
    )


def _comparison(key, op):
    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(key(self), key(other))
        return NotImplemented

    return compare


def record(cls=None, /, *, order: bool = False, uncompared: tuple[str, ...] = ()):
    """Make an annotated class a frozen record (see the module docstring)."""
    if cls is None:
        return lambda cls: record(cls, order=order, uncompared=uncompared)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    n = len(names)
    numbered = tuple(enumerate(names))  # read faster than zip(names, args)
    keywords = frozenset(names)
    post_init = getattr(cls, "__post_init__", None)
    set_field = object.__setattr__
    where = f"{cls.__qualname__}.__init__"

    def __init__(self, *args, **kwargs):
        if kwargs and not args and kwargs.keys() == keywords:
            for name in names:
                set_field(self, name, kwargs[name])
        else:
            if kwargs or len(args) != n:
                args = _bind(where, names, args, kwargs)
            for k, name in numbered:
                set_field(self, name, args[k])
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{self.__class__.__qualname__}({shown})"

    compared = tuple(name for name in names if name not in uncompared)
    get = operator.attrgetter(*compared)
    # The dataclass compares and hashes a tuple of the fields, even of one.
    key = (lambda self: (get(self),)) if len(compared) == 1 else get

    def __hash__(self):
        return hash(key(self))

    methods = {
        "__init__": __init__,
        "__repr__": __repr__,
        "__eq__": _comparison(key, operator.eq),
        "__hash__": __hash__,
        "__setattr__": _frozen_setattr,
        "__delattr__": _frozen_delattr,
    }
    if order:
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            methods[f"__{op.__name__}__"] = _comparison(key, op)
    for name, method in methods.items():
        setattr(cls, name, method)
    cls.__match_args__ = names
    return cls
