"""Atomic file writes, shared by `ingest` and the CLI commands.

A module of its own, so that a command that only writes a file (`simulate`)
does not load the log parser to do it.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Iterable


def write_atomic(path: Path, text: str | Iterable[str]) -> None:
    """Replace `path` with `text`, a string or an iterable of string chunks
    written in order, through a temp file of its own in the same directory,
    so concurrent writers never share one, and a failed write (an iterable
    that raises too) leaves neither a partial target nor a temp file behind."""
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    # O_EXCL: never reuse an existing file; mode 0o666 is narrowed by the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
