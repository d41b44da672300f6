"""The base of the package's frozen records, whose methods are defined once."""

from dataclasses import _HAS_DEFAULT_FACTORY, MISSING, FrozenInstanceError, dataclass, fields
from inspect import Parameter, Signature


class Record:
    """Base of the records, each ``@frozen_record class Name(Record)``: it takes
    its fields by position or name, then runs ``__post_init__``; it is frozen;
    it compares, hashes and prints as a frozen dataclass, which compiles its
    methods for each class at import (half of the package's import time)."""

    def __init__(self, *args, **kwargs):
        own = fields(self)
        values = dict(zip([f.name for f in own], args), **kwargs)
        bad = len(values) < len(args) + len(kwargs)  # too many, or one given twice
        for f in own:
            value = values.pop(f.name, f.default)
            if value is MISSING and f.default_factory is not MISSING:
                value = f.default_factory()
            bad = bad or value is MISSING
            object.__setattr__(self, f.name, value)
        if bad or values:
            self.__signature__.bind(*args, **kwargs)  # raises the TypeError
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{self.__class__.__qualname__}({body})"


def frozen_record(cls: type) -> type:
    """The Record subclass cls as a dataclass, with the signature that a
    generated __init__ would have (a default_factory's default: <factory>)."""
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    cls.__signature__ = Signature([
        Parameter(f.name, Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type, default=(
            _HAS_DEFAULT_FACTORY if f.default_factory is not MISSING
            else Parameter.empty if f.default is MISSING else f.default))
        for f in fields(cls)], return_annotation=None)
    return cls
