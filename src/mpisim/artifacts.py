"""Artifact file access shared by every writer and loader.

Writers go through atomic_open, so an interrupted stage never leaves a
partial file for the next one; loaders open through open_input, so a
missing file raises MissingInputError rather than FileNotFoundError and a
directory ConfigError rather than IsADirectoryError.  CSV loaders hand
np.loadtxt only data_lines, so an empty body is a ConfigError rather than
numpy's "input contained no data" warning.
"""

from __future__ import annotations

import contextlib
import os

from .errors import ConfigError, MissingInputError


@contextlib.contextmanager
def atomic_open(path, mode: str = "wb"):
    """Write to a temporary file beside path that replaces path on success.

    Any exception, KeyboardInterrupt included, removes the temporary file
    and leaves an existing path untouched.
    """
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


def data_lines(fh, path) -> list:
    """The rest of fh without blank and '#' comment lines; none is a ConfigError."""
    lines = [line for line in fh if line.split("#", 1)[0].strip()]
    if not lines:
        raise ConfigError(f"{path}: no data rows")
    return lines
