"""``flowdoc all`` on the benchmark's seeded corpora meets their oracle.

``flowbench/corpus.py`` generates each corpus together with an oracle: the
exact database lines, the diagrams with the actions, labels and links each
zoom level must and must not show, the page anchors, the index entries and
the count of each diagnostic code. ``flowbench/check.py`` compares an output
tree and its stderr with that oracle. The ``render`` corpus runs the render
phase with the benchmark's stub renderer, which copies each diagram text to
its ``.svg``, so every diagram must get one.
"""

import shlex
import sys
from pathlib import Path

import pytest

from flowdoc import cli

FLOWBENCH = Path(__file__).resolve().parents[1] / "flowbench"
sys.path.insert(0, str(FLOWBENCH))
import check  # noqa: E402
import corpus  # noqa: E402

STUB_RENDER = f"sh {shlex.quote(str(FLOWBENCH / 'stub_render.sh'))} {{input}}"


@pytest.mark.parametrize("workload",
                         ["monolith", "many-files", "zoom-fanout", "render"])
def test_all_meets_the_corpus_oracle(workload, tmp_path, monkeypatch, capsys):
    c = corpus.generate(workload, 1)
    for rel, text in c.files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
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
