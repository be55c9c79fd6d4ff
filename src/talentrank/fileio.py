"""Shared file helpers: atomic writes, UTF-8 text lines, and the artifact
codec: the one writer and reader of a row of floats, and the load frame."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager

import numpy as np


def format_row(values) -> str:
    """A row of floats as every artifact writes it: 9 significant digits
    each, space-separated."""
    return " ".join([format(x, ".9g") for x in np.asarray(values, dtype=np.float64).tolist()])


def parse_row(text: str, width: int) -> np.ndarray:
    """The (width,) floats of a row written by format_row; a wrong count, a
    non-number or a non-finite value is a ValueError."""
    parts = text.split()
    if len(parts) != width:
        raise ValueError(f"expected {width} values, got {len(parts)}")
    row = np.array(parts, dtype=np.float64)
    if not np.isfinite(row).all():
        raise ValueError("non-finite value")
    return row


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


def write_lines(path: str, lines) -> None:
    """Write each of `lines` and a newline to `path`, atomically."""
    with atomic_write(path) as f:
        f.writelines(line + "\n" for line in lines)


def read_lines(path: str, error: type) -> list:
    """The lines of a UTF-8 text file. A byte that is not UTF-8 raises
    `error`, the caller's typed data error."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.readlines()
    except UnicodeDecodeError as e:
        raise error(f"not UTF-8 text: byte {e.object[e.start]:#04x}") from None


class LineReader:
    """The lines of a text file, read in order; `number` is the 1-based
    number of the line last asked for."""

    def __init__(self, lines: list):
        self.lines, self.number = lines, 0

    def take(self, key: str | None = None) -> str:
        """The next line without its newline or, with `key`, the value of
        its `key value` form; a missing line or another key is a ValueError."""
        self.number += 1
        if self.number > len(self.lines):
            raise ValueError("file ends early")
        line = self.lines[self.number - 1].rstrip("\n")
        if key is None:
            return line
        if not line.startswith(key + " "):
            raise ValueError(f"expected a {key!r} line, got {line[:60]!r}")
        return line[len(key) + 1:]

    def __iter__(self):  # the lines not yet taken
        while self.number < len(self.lines):
            yield self.take()


def load_artifact(path: str, kind: str, error: type, parse, magic: str | None = None):
    """parse(LineReader) over the file at `path`, past a first line that must
    be `magic` if given. A failure to parse or construct, the caller's own
    ValueErrors too, or a line left unread is `error`, naming file and line."""
    reader = LineReader(read_lines(path, error))
    try:
        if magic is not None and reader.take() != magic:
            raise ValueError(f"expected {magic!r}")
        artifact = parse(reader)
        if reader.number < len(reader.lines):
            raise ValueError(f"unexpected line after the end: {reader.take()[:60]!r}")
        return artifact
    except (IndexError, KeyError, TypeError, ValueError, RecursionError) as e:
        raise error(f"malformed {kind} file {path}, line {reader.number}: {e}") from None
