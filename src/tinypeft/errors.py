"""Exception hierarchy shared across the toolkit, and the one checked read
of an input file.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
everything else -> 3.
"""


class TinyPeftError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(TinyPeftError):
    """Operand shapes do not conform for a kernel."""


class NumericError(TinyPeftError):
    """A computation produced or received non-finite values."""


class ConfigError(TinyPeftError):
    """Invalid configuration or usage."""


class DataError(TinyPeftError):
    """Malformed input data or file format."""


class StateError(TinyPeftError):
    """Operation invalid in the current object state (e.g. double merge)."""


def read_bytes(path: str, error: type[TinyPeftError] = DataError) -> bytes:
    """The file's bytes; one that cannot be read raises ``error`` naming it."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise error(f"{path}: cannot read: {e.strerror or e}")


def read_text(path: str, error: type[TinyPeftError] = DataError) -> str:
    """The file decoded as UTF-8; a bad byte raises ``error`` naming the file."""
    try:
        return read_bytes(path, error).decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{path}: invalid UTF-8 at byte offset {e.start}")
