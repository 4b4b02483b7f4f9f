"""Exceptions shared across the package, with the CLI exit code map."""

import ctypes
import functools
import math
import os
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_HASH_MISMATCH = 4
EXIT_RESOURCE_CAP = 5


class MpiSimError(Exception):
    """Base class for package errors."""

    exit_code = 1


class ConfigError(MpiSimError):
    """Invalid configuration value or inconsistent parameter combination."""

    exit_code = EXIT_CONFIG


class UnsupportedTopologyError(ConfigError):
    """Operation requires a specific built-in topology the model does not have."""


class MissingInputError(MpiSimError):
    """A required input artifact does not exist."""

    exit_code = EXIT_MISSING_INPUT


class HashMismatchError(MpiSimError):
    """Stored artifact was produced under a different configuration."""

    exit_code = EXIT_HASH_MISMATCH


class ResourceCapError(MpiSimError):
    """Estimated resource usage exceeds the configured cap."""

    exit_code = EXIT_RESOURCE_CAP


def physical_memory() -> int:
    """The bytes of physical memory of this host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, or None where libc has none (musl, macOS, Windows)."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def release_heap() -> None:
    """Hand the free memory that malloc's arenas keep, the worker threads'
    too, back to the system; does nothing where libc has no malloc_trim."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def check_memory(what: str, nbytes) -> None:
    """ResourceCapError when nbytes, needed by what, exceed physical_memory()."""
    total = physical_memory()
    if nbytes > total:
        shown = math.inf if nbytes > sys.float_info.max else nbytes  # an int past floats
        raise ResourceCapError(f"{what} needs {shown:.4g} bytes, more than the "
                               f"{total} bytes of physical memory")
