"""Exception types shared across the toolkit, and the reader guard that raises one.

The CLI maps these onto its stable exit codes, so new error conditions
should reuse one of the classes below rather than raising bare exceptions.
"""

import contextlib


@contextlib.contextmanager
def utf8_input(path):
    """Turn a decoding error inside the block into a DataError naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason})") from e


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(ValueError):
    """Invalid configuration: bad hyperparameter, malformed config key, ..."""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain (log of a negative, ...)."""


class DataError(ValueError):
    """Dataset inconsistency: unresolvable utterance id, bad manifest row, ..."""


class CheckpointError(RuntimeError):
    """Unreadable or incompatible checkpoint file."""


class DivergenceError(RuntimeError):
    """Training loss became non-finite or exceeded the divergence guard."""


class GradCheckError(RuntimeError):
    """Gradient verification could not be completed (NaN in a gradient)."""
