"""Output files are written atomically, with the umask's permissions."""

import errno
import os
import shutil
import stat

import pytest

from flowdoc import cli, ioutil
from flowdoc.cli import main

from conftest import FIXTURES


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def modes(root):
    return {str(p.relative_to(root)): stat.S_IMODE(p.stat().st_mode)
            for p in root.rglob("*") if p.is_file()}


def test_every_output_file_is_0644_under_umask_022(umask_022, tmp_path, capsys):
    src = str(FIXTURES / "xlink")
    assert main(["all", src, "--out-dir", str(tmp_path / "all")]) == 0
    for phase in ("build-db", "makeflows", "makehtml"):
        assert main([phase, src, "--out-dir", str(tmp_path / "phased")]) == 0
    capsys.readouterr()
    for tree in ("all", "phased"):
        got = modes(tmp_path / tree)
        assert any(name.endswith(".flowdb") for name in got)
        assert any(name.startswith("aux_files") for name in got)
        assert set(got.values()) == {0o644}, got


def test_missing_parent_directories_are_created(umask_022, tmp_path):
    target = tmp_path / "a" / "b" / "page.html"
    assert ioutil.atomic_write_text(target, "héllo\n") == target
    assert target.read_bytes() == "héllo\n".encode("utf-8")
    assert stat.S_IMODE(target.stat().st_mode) == 0o644
    assert os.listdir(target.parent) == ["page.html"]


def test_a_write_that_raises_leaves_nothing(tmp_path, monkeypatch):
    with pytest.raises(UnicodeEncodeError):
        ioutil.atomic_write_text(tmp_path / "bad.txt", "lone \ud800 surrogate")
    assert os.listdir(tmp_path) == []

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(ioutil.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        ioutil.atomic_write_text(tmp_path / "sub" / "late.txt", "text")
    assert os.listdir(tmp_path / "sub") == []


def test_a_short_write_is_continued_until_the_file_is_whole(tmp_path, monkeypatch):
    write, sizes = os.write, []

    def short(fd, data):
        sizes.append(write(fd, data[:7]))
        return sizes[-1]

    monkeypatch.setattr(ioutil.os, "write", short)
    target, text = tmp_path / "page.html", "héllo, " * 5 + "\n"
    assert ioutil.atomic_write_text(target, text) == target
    assert target.read_bytes() == text.encode("utf-8")
    assert sum(sizes) == len(text.encode("utf-8")) and max(sizes) == 7
    assert os.listdir(tmp_path) == ["page.html"]


def test_a_full_disk_leaves_no_temporary_file_and_names_the_output(tmp_path, monkeypatch):
    fds = []

    def full(fd, data):
        fds.append(fd)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(ioutil.os, "write", full)
    target = tmp_path / "page.html"
    with pytest.raises(OSError) as failed:
        ioutil.atomic_write_text(target, "text")
    assert (failed.value.errno, failed.value.filename) == (errno.ENOSPC, str(target))
    assert os.listdir(tmp_path) == []
    with pytest.raises(OSError):  # the temporary file's descriptor is closed
        os.fstat(fds[0])


def test_a_deleted_working_directory_is_an_error_not_a_retry(tmp_path, monkeypatch):
    gone = tmp_path / "gone"
    gone.mkdir()
    monkeypatch.chdir(gone)
    gone.rmdir()
    with pytest.raises(FileNotFoundError) as failed:
        ioutil.atomic_write_text("page.html", "text")
    assert failed.value.filename == "page.html"


def test_a_failed_write_names_the_output_not_its_temp_file(tmp_path):
    (tmp_path / "file").write_text("")
    target = tmp_path / "file" / "page.html"
    with pytest.raises(NotADirectoryError) as failed:
        ioutil.atomic_write_text(target, "text")
    assert (failed.value.filename, failed.value.strerror) == (
        str(target), os.strerror(errno.ENOTDIR))
    assert ".tmp" not in str(failed.value)


def test_the_temporary_file_of_the_longest_bounded_output_has_a_valid_name(
        tmp_path, monkeypatch):
    temporary, replace = [], os.replace

    def spy(src, dst):
        temporary.append(os.path.basename(src))
        replace(src, dst)

    monkeypatch.setattr(ioutil.os, "replace", spy)
    # the longest name the output tree holds: a cut stem's database
    target = tmp_path / (cli._bounded("s" * 300, ".flowdb") + ".flowdb")
    assert len(target.name) == 255 - ioutil.TMP_SUFFIX_BYTES
    assert ioutil.atomic_write_text(target, "x\n").read_text() == "x\n"
    assert [len(os.fsencode(name)) for name in temporary] == [255]


def test_an_existing_target_is_replaced(tmp_path):
    target = tmp_path / "db.flowdb"
    target.write_text("old contents, longer than the new\n")
    ioutil.atomic_write_text(target, "new\n")
    assert target.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["db.flowdb"]


def test_an_unchanged_file_keeps_its_mtime_and_a_changed_one_is_replaced(
        tmp_path):
    target = tmp_path / "page.html"
    ioutil.atomic_write_text(target, "same\n")
    os.utime(target, ns=(10**9, 10**9))
    before = target.stat()
    assert ioutil.atomic_write_text(target, "same\n") == target
    after = target.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, 10**9)
    ioutil.atomic_write_text(target, "diff\n")  # same size, other bytes
    assert target.read_text() == "diff\n"
    assert target.stat().st_mtime_ns != 10**9
    assert os.listdir(tmp_path) == ["page.html"]


def test_a_file_with_another_mode_or_a_symlink_is_replaced(tmp_path):
    written_mode = 0o666 & ~ioutil._UMASK
    private = tmp_path / "private.txt"
    private.write_text("same\n")
    private.chmod(0o600 if written_mode != 0o600 else 0o400)
    ioutil.atomic_write_text(private, "same\n")
    assert stat.S_IMODE(private.stat().st_mode) == written_mode

    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_text("same\n")
    os.utime(real, ns=(10**9, 10**9))
    link.symlink_to(real)
    ioutil.atomic_write_text(link, "same\n")
    assert not link.is_symlink() and link.read_text() == "same\n"
    assert real.stat().st_mtime_ns == 10**9


def tree(root):
    return {p.relative_to(root).as_posix(): (p.read_bytes(),
                                             p.stat().st_mtime_ns)
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_a_rebuild_rewrites_only_the_outputs_that_change(tmp_path, capsys):
    src, out, fresh = tmp_path / "src", tmp_path / "out", tmp_path / "fresh"
    shutil.copytree(FIXTURES / "xlink", src)
    assert main(["all", str(src), "--out-dir", str(out)]) == 0
    for p in out.rglob("*"):
        if p.is_file():
            os.utime(p, ns=(10**9, 10**9))
    before = tree(out)
    assert main(["all", str(src), "--out-dir", str(out)]) == 0
    assert tree(out) == before
    c_cpp = src / "c.cpp"
    c_cpp.write_text(c_cpp.read_text().replace("write one log line",
                                               "write a log line"))
    assert main(["all", str(src), "--out-dir", str(out)]) == 0
    after = tree(out)
    assert {name for name in after if after[name] != before[name]} == {
        "c.html", "aux_files/c__c_log__zoom0.txt"}
    assert main(["all", str(src), "--out-dir", str(fresh)]) == 0
    capsys.readouterr()
    assert ({name: data for name, (data, _) in after.items()}
            == {name: data for name, (data, _) in tree(fresh).items()})
