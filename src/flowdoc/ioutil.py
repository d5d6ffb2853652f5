"""Small filesystem helpers used by the emitting phases."""

from __future__ import annotations

import os
import stat

# read once, at import, before any render thread could inherit the brief 0;
# a fresh write leaves a regular file of _WRITTEN_MODE
_UMASK = os.umask(0)
os.umask(_UMASK)
_WRITTEN_MODE = stat.S_IFREG | 0o666 & ~_UMASK
# a temporary file is named by its output and this, 12 random hex digits in
# the braces; the suffix takes TMP_SUFFIX_BYTES bytes of the file name
_TMP_SUFFIX = ".{}.tmp"
TMP_SUFFIX_BYTES = len(_TMP_SUFFIX.format("0" * 12))


def plain_path(path: str | os.PathLike) -> str:
    """path as ``str(Path(path))`` spells it on POSIX, '..' kept."""
    path = os.fspath(path)
    lead = len(path) - len(path.lstrip("/"))
    return ({0: "", 2: "//"}.get(lead, "/")
            + "/".join(p for p in path.split("/") if p and p != ".") or ".")


def dir_prefix(directory: str | os.PathLike) -> str:
    """What ``Path(directory) / name`` spells before name."""
    return "" if (d := plain_path(directory)) == "." else d + "/" * (d[-1] != "/")


def atomic_write_text(path: str | os.PathLike, text: str):
    """Write text to path via a temp file + rename, so readers never see a
    half-written output, and return path as given. Content is UTF-8 with LF
    endings as given; the file gets the mode the umask leaves of 0o666. A
    missing parent directory is created. A regular file that already holds
    these bytes with this mode is left untouched, mtime included. A failed
    write raises an OSError whose filename is path."""
    data = text.encode("utf-8")
    try:
        st = os.lstat(path)
        if st.st_mode == _WRITTEN_MODE and st.st_size == len(data):
            with open(path, "rb") as old:
                if old.read() == data:
                    return path
    except OSError:  # missing or unreadable: write it
        pass
    try:
        while True:
            tmp = os.fspath(path) + _TMP_SUFFIX.format(os.urandom(6).hex())
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
            except FileNotFoundError:
                os.makedirs(os.path.dirname(path), exist_ok=True)
            except FileExistsError:  # the name is taken: draw another
                pass
        try:
            try:
                while data:  # os.write may write less than asked
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:  # named by the output, not its temporary file
        raise OSError(exc.errno, exc.strerror or str(exc), os.fspath(path)) from exc
    return path
