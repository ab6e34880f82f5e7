"""Exception types shared across the toolkit, the reader guard that raises one,
and the one writer every output file goes through.

The CLI maps these onto its stable exit codes, so new error conditions
should reuse one of the classes below rather than raising bare exceptions.
``atomic_write`` replaces a file whole or not at all: a write that fails
(exit 3) leaves the previous file as it was and no temporary beside it.
"""

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def utf8_input(path):
    """Turn a decoding error inside the block into a DataError naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason})") from e


@contextlib.contextmanager
def atomic_write(path, mode: str, **kwargs):
    """The file ``open(path, mode, **kwargs)`` would give, written to ``<name>.tmp``
    beside the file ``path`` names (through any symlinks), then flushed, fsynced
    and renamed over it when the block ends. On any exception the temporary is
    removed. A ``path`` that exists and is not a regular file (a FIFO, /dev/null)
    is written in place.
    """
    path = Path(path).resolve()
    if path.exists() and not path.is_file():
        with open(path, mode, **kwargs) as f:
            yield f
        return
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
