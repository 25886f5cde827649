"""Atomic artifact writes: temp file in the target dir, fsync, rename.

Every artifact the CLI leaves behind — traces, metrics dumps, timelines,
HTML dashboards, chaos reports, journals' sidecar payloads — goes
through one of these helpers so a crash (or an OOM kill, or a Ctrl-C)
can never leave a truncated, half-written file where a consumer expects
a complete one.  The recipe is the classic one the
result cache already used:

* write to a uniquely-named temp file *in the same directory* (so the
  final rename cannot cross filesystems);
* flush and ``fsync`` so the bytes are durable before the name is;
* ``os.replace`` onto the destination — atomic on POSIX, so readers see
  either the old complete file or the new complete one, never a mix.

``tempfile.mkstemp`` opens the temp file with ``O_EXCL``, so concurrent
writers of the same destination each get their own temp file and the
last ``os.replace`` wins whole-file.
"""

from __future__ import annotations

import os
import tempfile


def atomic_write_bytes(path: str, data: bytes, fsync: bool = True) -> None:
    """Write ``data`` to ``path`` atomically (temp + fsync + replace)."""
    target = os.path.abspath(path)
    directory = os.path.dirname(target)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(target) + ".", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # pragma: no cover - already renamed or gone
            pass
        raise


def atomic_write_text(path: str, text: str, encoding: str = "utf-8",
                      fsync: bool = True) -> None:
    """Write ``text`` to ``path`` atomically."""
    atomic_write_bytes(path, text.encode(encoding), fsync=fsync)
