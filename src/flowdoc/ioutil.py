"""Small filesystem helpers used by the emitting phases."""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write_text(path: Path, text: str) -> Path:
    """Write text to path via a temp file + rename, so readers never see a
    half-written output. Content is UTF-8 with LF endings as given; the file
    gets the mode the umask leaves of 0o666. A missing parent directory is
    created."""
    path = Path(path)
    while True:
        tmp = f"{path}.{os.urandom(6).hex()}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
        except FileExistsError:  # the name is taken: draw another
            pass
    try:
        with open(fd, "wb") as handle:
            handle.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
