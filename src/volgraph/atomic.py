"""Atomic file output: write beside the target, then rename over it."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w", newline: str | None = None):
    """Open a new file beside ``path``; move it over ``path`` when the block ends.

    ``mode`` is ``"w"`` (UTF-8 text) or ``"wb"``; ``newline`` is passed to
    ``open`` (``""`` for the csv module). Readers see either the old file or
    the complete new one: the data is flushed to disk before
    ``os.replace``. If the block raises, the temp file is removed and
    ``path`` keeps its old content. The temp file is created by ``open``,
    so the result gets the same permissions a plain write would give.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    encoding = None if "b" in mode else "utf-8"
    fh = open(tmp, mode.replace("w", "x"), encoding=encoding, newline=newline)
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
