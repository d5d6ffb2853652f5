"""Output files are written atomically, with the umask's permissions."""

import os
import stat

import pytest

from flowdoc import ioutil
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


def test_an_existing_target_is_replaced(tmp_path):
    target = tmp_path / "db.flowdb"
    target.write_text("old contents, longer than the new\n")
    ioutil.atomic_write_text(target, "new\n")
    assert target.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["db.flowdb"]
