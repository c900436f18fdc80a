"""Atomic file writes: how every command lands its output files.

A module of its own, so that a command that only writes a file (`simulate`)
does not load the log parser to do it.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Iterable, Mapping


def write_atomic(files: Mapping[Path, str | Iterable[str]]) -> None:
    """Replace each path of `files` with its text, a string or string chunks
    written in order: each text goes to a temp file of its own beside its
    target, and only then are the temps renamed.  A failure removes every
    temp left; one before the renames changes no target, and one in a rename
    (as onto a directory) keeps the renames made before it."""
    temps = []
    try:
        for path, text in files.items():
            tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
            # O_EXCL: never reuse an existing file; mode 0o666 is narrowed by the umask
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            temps.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.writelines([text] if isinstance(text, str) else text)
        for tmp, path in temps:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in temps:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise
