"""Every open of a path the user named: --config, --sets, --out and the
fiber files under --cache-dir.

read_text refuses a path that is neither a regular file nor a directory
before opening it: a FIFO would block the open for good and a device such as
/dev/zero would feed the read without end.  A directory still reaches open,
whose IsADirectoryError is the error callers report.  Files are written by
write_text_atomic, and probe_write asks the file system whether it could.
Every failure is an OSError, so a caller turns each into its own message
with one handler.
"""

from __future__ import annotations

import errno
import os
import stat
import threading


class NotRegularFile(OSError):
    """read_text's refusal of a FIFO, socket or device, raised before any open."""


def read_text(path) -> str:
    """The UTF-8 text of the file at path, with universal newlines."""
    if stat.S_IFMT(os.stat(path).st_mode) not in (stat.S_IFREG, stat.S_IFDIR):
        raise NotRegularFile(errno.EINVAL, "not a regular file", path)
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _atomic_temp_path(path) -> str:
    """The same-directory temp name write_text_atomic writes before its rename."""
    return f"{os.fspath(path)}.{os.getpid()}.{threading.get_ident()}.tmp"


def write_text_atomic(path, text: str) -> None:
    """Write a file atomically: a same-directory temp file, then rename.

    Readers see either the old file or the complete new one, even if the
    writer dies midway or another worker writes the same path.
    """
    tmp = _atomic_temp_path(path)
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def probe_write(path) -> None:
    """OSError unless write_text_atomic could write path: its temp file is
    created and removed, so the file system gives the answer, and path is
    no directory, which the rename cannot replace (a link it can)."""
    tmp = _atomic_temp_path(path)
    with open(tmp, "w", encoding="utf-8"):
        pass
    os.unlink(tmp)
    if os.path.isdir(path) and not os.path.islink(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)

