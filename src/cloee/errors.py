"""Exception types and the integer rule shared across the package."""

import numbers


def is_int(value) -> bool:
    """An integer setting: any numbers.Integral except bool, so True is not 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class ConfigError(ValueError):
    """A setting the scenario rejects, raised by the setting's owner at its key
    path ("<section>.<field>"; "energy" for costs that overflow together).  A
    ValueError, so callers that catch ValueError get the key the CLI prints."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")
