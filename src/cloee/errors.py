"""Exception types and the integer and flag rules shared across the package."""

import numbers
import sys


def is_int(value) -> bool:
    """An integer setting: any numbers.Integral except bool, so True is not 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_bool(value) -> bool:
    """A flag setting: a bool, or numpy's bool_, which cannot exist before
    numpy is imported, so this rule imports no numpy.  "off" and 1 are not."""
    numpy = sys.modules.get("numpy")
    return isinstance(value, bool) or (numpy is not None and isinstance(value, numpy.bool_))


class ConfigError(ValueError):
    """A setting the scenario rejects, raised by the setting's owner at its key
    path ("<section>.<field>"; "energy" for costs that overflow together).  A
    ValueError, so callers that catch ValueError get the key the CLI prints."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")
