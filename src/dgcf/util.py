"""Small shared helpers."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from .errors import ParseError


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file; bytes that are not UTF-8 raise ParseError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def write_atomic_bytes(path: str | Path, *parts) -> None:
    """Write the bytes-like parts, one after another, via a temp file in the
    same directory, then os.replace.

    Readers never observe a partial file, even if the process dies mid-write.
    """
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    except OSError as exc:  # the temp file's random name means nothing to the caller
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_atomic_text(path: str | Path, text: str) -> None:
    write_atomic_bytes(path, text.encode("utf-8"))
