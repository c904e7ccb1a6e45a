"""Exception types and the integer rule shared across the package."""

import numbers


def is_int(value) -> bool:
    """An integer setting: any numbers.Integral except bool, so True is not 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class ConfigError(ValueError):
    """Raised on scenario config problems; message carries the offending key path."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")
