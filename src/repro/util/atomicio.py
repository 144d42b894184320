"""Crash-safe file writes: whole-file replace, and locked appends to a log.

Baselines and campaign state are exactly the files a crash must not
corrupt: ``BENCH_hotpaths.json`` is the ``--against`` CI gate's input,
and the campaign queue/store checkpoints are what ``--resume`` trusts
after a mid-sweep kill.  A bare ``path.write_text(...)`` truncates the
destination before the new bytes land, so an interruption leaves a
half-written (or empty) file behind.  :func:`atomic_write_text` writes
to a temporary sibling in the *same* directory (so the final
``os.replace`` is a same-filesystem atomic rename) and fsyncs before
renaming: readers see either the complete old content or the complete
new content, never a mix.

The campaign's logs (the result store, the job queue, the run cache)
never rewrite: :func:`locked_append` adds one record to the end of the
file under an exclusive ``flock`` and fsyncs it, so a record costs time
linear in its own size and writers sharing a path (objects or
processes) each keep every record they append.
"""

from __future__ import annotations

import fcntl
import json
import os
import tempfile
from pathlib import Path
from typing import Union


def atomic_write_text(path: Union[str, Path], text: str) -> str:
    """Atomically replace ``path``'s content with ``text``.

    Parent directories are created as needed.  On any failure the
    destination is left untouched and the temporary file is removed.
    Returns the path written (as ``str``).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return str(path)


def atomic_write_json(path: Union[str, Path], doc, indent: int = 2) -> str:
    """Atomically write ``doc`` as JSON (trailing newline included)."""
    return atomic_write_text(path, json.dumps(doc, indent=indent) + "\n")


def locked_append(path: Union[str, Path], data: bytes) -> int:
    """Append ``data`` to ``path`` durably; returns the offset it starts at.

    One ``os.write`` on an ``O_APPEND`` descriptor held under
    ``fcntl.flock(LOCK_EX)``, fsync'd before the lock is released.  A
    torn tail left by a writer that died mid-append (last byte not
    ``\n``) is first cut back to the last newline, so a torn record
    never becomes a middle one.  Parent directories are created as
    needed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            size = os.pread(fd, size, 0).rfind(b"\n") + 1
            os.ftruncate(fd, size)
        if os.write(fd, data) != len(data):
            raise OSError(f"short append to {path}")
        os.fsync(fd)
    finally:
        os.close(fd)  # releases the flock
    return size
