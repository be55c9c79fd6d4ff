"""Shared file helpers: atomic writes, deterministic float formatting and
reading UTF-8 text lines."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager


def fmt_float(x: float) -> str:
    """Format a float with 9 significant digits (interchange convention)."""
    return format(float(x), ".9g")


@contextmanager
def atomic_write(path: str):
    """Write to a temp file next to `path`, then rename into place.

    The rename is atomic on POSIX, so readers never observe a partial file.
    Each writer creates its own temp file (O_EXCL), so concurrent writers
    to one path leave one writer's complete output. Mode 0o666 under the
    umask gives the bits a plain open(path, "w") gives.
    """
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    f = open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "w", encoding="utf-8")
    try:
        yield f
        f.flush()
        os.fsync(f.fileno())
        f.close()
        os.replace(tmp, path)
    except BaseException:
        f.close()
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_lines(path: str, error: type) -> list:
    """The lines of a UTF-8 text file. A byte that is not UTF-8 raises
    `error`, the caller's typed data error."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.readlines()
    except UnicodeDecodeError as e:
        raise error(f"not UTF-8 text: byte {e.object[e.start]:#04x}") from None


def keyed(line: str, key: str) -> str:
    """The value of a `key value` model-file line; a line that holds another
    key is a ValueError, which the loader reports as a malformed file."""
    if not line.startswith(key + " "):
        raise ValueError(f"expected a {key!r} line, got {line[:60]!r}")
    return line[len(key) + 1:]
