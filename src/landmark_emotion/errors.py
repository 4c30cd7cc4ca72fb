"""The package's one exception type."""


class LandmarkEmotionError(ValueError):
    """A malformed input, file, configuration or argument; the message says which."""
