"""The oracle accepts flowdoc's output on small corpora and rejects damage."""

import contextlib
import io
import os
import random
import shutil

import pytest

import check
import corpus
import run
from flowdoc import cli

SMALL = {
    "monolith": lambda rng: corpus._monolith(rng, n_files=2, n_funcs=4),
    "many-files": lambda rng: corpus._many_files(rng, n_stems=20),
    "zoom-fanout": lambda rng: corpus._zoom_fanout(rng, n_stems=2),
    "render": lambda rng: corpus._many_files(rng, n_stems=10,
                                             zmax_cycle=(2,), headers=False),
}


def _run_flowdoc(c, workload, tmp_path, command="all", out_name="out"):
    cdir = run.write_corpus(c, tmp_path)
    out = tmp_path / out_name
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(cdir)
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(run._argv(command, out, workload))
    finally:
        os.chdir(cwd)
    return code, out, err.getvalue()


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_oracle_accepts_flowdoc_output(workload, tmp_path):
    c = SMALL[workload](random.Random(3))
    code, out, err = _run_flowdoc(c, workload, tmp_path)
    assert code == 0
    checks = check.Checks()
    check.check_tree(out, c.oracle, checks, render=workload == "render")
    check.check_diagnostics(err, c.oracle, checks)
    assert checks.failed == 0, checks.examples
    assert checks.attempted == (
        check.checks_per_tree(c.oracle, workload == "render")
        + check.checks_per_diagnostics(c.oracle))


def test_phased_tree_matches_all_tree(tmp_path):
    c = SMALL["many-files"](random.Random(4))
    _, out_all, _ = _run_flowdoc(c, "many-files", tmp_path)
    for phase in ("build-db", "makeflows", "makehtml"):
        _run_flowdoc(c, "many-files", tmp_path, phase, "phased")
    assert (check.tree_digest(out_all)
            == check.tree_digest(tmp_path / "phased"))


def _failures_after(damage, tmp_path, workload="zoom-fanout"):
    c = SMALL[workload](random.Random(5))
    _, out, err = _run_flowdoc(c, workload, tmp_path)
    err = damage(out, err) or err
    checks = check.Checks()
    check.check_tree(out, c.oracle, checks)
    check.check_diagnostics(err, c.oracle, checks)
    return checks.failed


def _first(out, pattern):
    return sorted(out.glob(pattern))[0]


def test_oracle_rejects_missing_diagram(tmp_path):
    assert _failures_after(
        lambda out, err: _first(out, "aux_files/*zoom3.txt").unlink(),
        tmp_path) >= 1


def test_oracle_rejects_action_at_wrong_zoom(tmp_path):
    def swap(out, err):
        low = _first(out, "aux_files/*zoom0.txt")
        high = low.with_name(low.name.replace("zoom0", "zoom9"))
        shutil.copyfile(high, low)
    assert _failures_after(swap, tmp_path) >= 1


def test_oracle_rejects_changed_flowdb_and_anchor(tmp_path):
    def edit(out, err):
        db = _first(out, "*.flowdb")
        db.write_text(db.read_text().replace("\t9\n", "\t8\n"))
        page = _first(out, "flow*.html")
        page.write_text(page.read_text().replace('id="', 'id="x', 1))
    assert _failures_after(edit, tmp_path) >= 2


def test_oracle_rejects_missing_diagnostic(tmp_path):
    assert _failures_after(lambda out, err: err.split("\n", 1)[1],
                           tmp_path) == 1


def test_oracle_rejects_missing_svg(tmp_path):
    c = SMALL["render"](random.Random(6))
    _, out, _ = _run_flowdoc(c, "render", tmp_path)
    _first(out, "aux_files/*.svg").unlink()
    checks = check.Checks()
    check.check_tree(out, c.oracle, checks, render=True)
    assert checks.failed == 1
