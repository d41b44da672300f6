"""The size of the public API, pinned: its settable values and the config
keys.  A change that moves either count updates its pin here."""

import dataclasses
import inspect

import scnls
from scnls import config


def settable_values() -> int:
    """The parameters of each callable and the fields of each dataclass in
    scnls.__all__; an exception without its own __init__ counts none."""
    total = 0
    for name in scnls.__all__:
        obj = getattr(scnls, name)
        if dataclasses.is_dataclass(obj):
            total += len(dataclasses.fields(obj))
        elif callable(obj) and (not inspect.isclass(obj) or "__init__" in vars(obj)):
            total += len(inspect.signature(obj).parameters)
    return total


def test_public_settable_values():
    assert settable_values() == 187


def test_config_keys():
    assert sum(map(len, config._KEYS.values())) == 24
