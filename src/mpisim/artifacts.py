"""Artifact file access shared by every writer and loader.

Writers go through atomic_open, so an interrupted stage never leaves a
partial file for the next one; loaders open through open_input, so a
missing file raises MissingInputError rather than FileNotFoundError and a
directory ConfigError rather than IsADirectoryError.  Every number a CSV
artifact holds is written by number_text or float_lines.
"""

from __future__ import annotations

import contextlib
import numbers
import os
import re

import numpy as np

from .errors import ConfigError, MissingInputError


@contextlib.contextmanager
def atomic_open(path, mode: str = "wb"):
    """Write to a temporary file beside path that replaces path on success.

    Any exception, KeyboardInterrupt included, removes the temporary file
    and leaves an existing path untouched.  A path that is a directory, or
    whose directory is missing or is a file, is a ConfigError, before
    anything is written.
    """
    if os.path.isdir(path):
        raise ConfigError(f"{path} is a directory, not a file")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ConfigError(f"cannot write {path}: its directory does not exist or is a file")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def open_input(path, mode: str = "rb"):
    """open(path, mode) for reading; a missing path or a directory is a typed error."""
    try:
        return open(path, mode)
    except FileNotFoundError:
        raise MissingInputError(f"input file not found: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"{path} is a directory, not a file") from None


def check_digest(digest) -> None:
    """ConfigError unless digest is 16 lowercase hex digits, as sysmat.stamp gives."""
    if not re.fullmatch("[0-9a-f]{16}", str(digest)):
        raise ConfigError(f"digest {digest!r} is not 16 hex digits")


def number_text(v) -> str:
    """A CSV cell: a float as the shortest text that reads back to it (its
    repr as a Python float, never numpy's 'np.float64(...)'), an int, Python
    or numpy, as its digits, a string as itself."""
    if isinstance(v, str):
        return v
    if isinstance(v, numbers.Integral):
        return str(v)
    return repr(float(v))


def float_lines(rows) -> str:
    """One comma-separated line per row of a 2-D float array, each cell as
    number_text writes it.  One %-format covers every cell: it costs no more
    than an f-string per row, and less than a number_text call per cell."""
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%r"] * rows.shape[1]) + "\n"
    return (line * rows.shape[0]) % tuple(rows.ravel().tolist())
