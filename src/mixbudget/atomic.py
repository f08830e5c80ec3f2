"""All-or-nothing artifact writes.

Every artifact (corpus, vocab, checkpoint, trainlog, report, histogram and
JSON summaries) is written to a temporary file in its own directory, which
then replaces the target in one ``os.replace``. An interrupted or failed
write leaves the previous file, or none, never a truncated one that a later
command would accept.
"""
from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w", newline: str | None = None):
    """Open a file that becomes ``path`` only when the ``with`` body ends
    without an exception; on an exception it is removed instead."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    encoding = None if "b" in mode else "utf-8"
    try:
        with open(tmp, mode, encoding=encoding, newline=newline) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
