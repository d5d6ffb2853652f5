"""``flowdoc all`` on the benchmark's corpora meets their oracle.

``flowbench/corpus.py`` generates each corpus together with an oracle: the
exact database lines, the diagrams with the actions, labels and links each
zoom level must and must not show, the page anchors, the index entries and
the count of each diagnostic code. ``flowbench/check.py`` compares an output
tree and its stderr with that oracle. The ``render`` corpus runs the render
phase with the benchmark's stub renderer, which copies each diagram text to
its ``.svg``, so every diagram must get one. No link or image in any of
these trees is broken.

Small corpora drawn from Hypothesis seeds also run phase by phase and are
rebuilt in place: a second ``all`` into the same tree changes no byte and no
mtime.
"""

import contextlib
import io
import os
import random
import shlex
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies

from flowdoc import cli

from conftest import case_clashes, check_links

FLOWBENCH = Path(__file__).resolve().parents[1] / "flowbench"
sys.path.insert(0, str(FLOWBENCH))
import check  # noqa: E402
import corpus  # noqa: E402

STUB_RENDER = f"sh {shlex.quote(str(FLOWBENCH / 'stub_render.sh'))} {{input}}"


def write_corpus(c, root):
    for rel, text in c.files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


@pytest.mark.parametrize("workload",
                         ["monolith", "many-files", "zoom-fanout", "render"])
def test_all_meets_the_corpus_oracle(workload, tmp_path, monkeypatch, capsys):
    c = corpus.generate(workload, 1)
    write_corpus(c, tmp_path)
    monkeypatch.chdir(tmp_path)
    render = workload == "render"
    argv = ["all", "src", "--out-dir", "out"]
    code = cli.main(argv + ["--render-cmd", STUB_RENDER] if render else argv)
    err = capsys.readouterr().err
    checks = check.Checks()
    check.check_tree(tmp_path / "out", c.oracle, checks, render=render)
    check.check_diagnostics(err, c.oracle, checks)
    assert code == 0
    assert checks.attempted > 0
    assert checks.failed == 0, checks.examples
    assert case_clashes(snapshot(tmp_path / "out")) == []
    refs = check_links(tmp_path / "out", rendered=render)
    assert refs and [ref for ref in refs if not ref.ok] == []


SMALL = {
    "monolith": lambda rng: corpus._monolith(rng, 2, 4),
    "many-files": lambda rng: corpus._many_files(rng, 20),
    "zoom-fanout": lambda rng: corpus._zoom_fanout(rng, 2),
}


def flowdoc(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()


def snapshot(out):
    return {p.relative_to(out).as_posix(): (p.read_bytes(),
                                            p.stat().st_mtime_ns)
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(SMALL))
@settings(max_examples=3)
@given(seed=strategies.integers(0, 2**32 - 1))
def test_generated_corpora_build_phased_and_rebuild_in_place(workload, seed):
    c = SMALL[workload](random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_corpus(c, root)
        src, out, phased = str(root / "src"), root / "out", root / "phased"
        code, err = flowdoc("all", src, "--out-dir", str(out))
        checks = check.Checks()
        check.check_tree(out, c.oracle, checks)
        check.check_diagnostics(err, c.oracle, checks)
        assert code == 0
        assert checks.failed == 0, checks.examples
        for phase in ("build-db", "makeflows", "makehtml"):
            flowdoc(phase, src, "--out-dir", str(phased))
        assert check.tree_digest(out) == check.tree_digest(phased)
        assert case_clashes(snapshot(out)) == []
        for path in out.rglob("*"):
            if path.is_file():
                st = path.stat()
                os.utime(path, ns=(st.st_atime_ns - 10**10,
                                   st.st_mtime_ns - 10**10))
        before = snapshot(out)
        assert flowdoc("all", src, "--out-dir", str(out)) == (code, err)
        assert snapshot(out) == before
