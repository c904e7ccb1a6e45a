"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised on scenario config problems; message carries the offending key path."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")
