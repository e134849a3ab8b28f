"""Exception taxonomy shared across the package.

Every error raised on a contract violation derives from SawnetError so
callers (and the CLI) can catch the whole family at once.
"""


class SawnetError(Exception):
    """Base class for all package-specific errors."""


class DecodeError(SawnetError):
    """Malformed or truncated audio container."""


class UnsupportedFormat(SawnetError):
    """Valid container, but an encoding this decoder does not handle."""


class TooShort(SawnetError):
    """Input audio or spectrogram shorter than the operation requires."""


class DomainError(SawnetError):
    """Argument outside the mathematical domain of a function."""


class ConfigError(SawnetError):
    """Invalid configuration value or inconsistent run setup."""


class ShapeError(SawnetError):
    """Tensor shape mismatch between an operator and its arguments."""


class FormatError(SawnetError):
    """Weight-container bytes that do not parse (magic, version, truncation)."""


class ValidationError(SawnetError):
    """Parsed container whose contents are inconsistent with its manifest."""


class ParseError(SawnetError):
    """String field that does not match the expected naming pattern."""


class UndefinedMetric(SawnetError):
    """Metric requested on inputs where it is mathematically undefined."""
