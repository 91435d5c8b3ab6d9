"""Filesystem helpers: atomic replace writes and advisory file locking."""

from __future__ import annotations

import contextlib
import fcntl
import os
import tempfile

from .errors import PersistenceError


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and os.replace so readers never see a
    partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise PersistenceError(f"cannot write {path}: {exc}") from exc


@contextlib.contextmanager
def locked(path: str, existing: bool = False):
    """Exclusive advisory lock on `path`.lock for read-modify-write cycles.
    With `existing`, an unreadable `path` is a PersistenceError before the
    lock file is made, so a missing file leaves none behind."""
    lock_path = path + ".lock"
    if existing:
        try:
            os.close(os.open(path, os.O_RDONLY))
        except OSError as exc:
            raise PersistenceError(f"cannot read {path}: {exc}") from exc
    try:
        handle = open(lock_path, "a+", encoding="utf-8")
    except OSError as exc:
        raise PersistenceError(f"cannot open lock file {lock_path}: {exc}") from exc
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        handle.close()


def read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
