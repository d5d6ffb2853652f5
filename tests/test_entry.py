"""The command line as a process: what it imports, how it exits, what it writes.

``python -m flowdoc`` ends without interpreter teardown (``cli.entry``), so
these tests hold it to what in-process ``cli.main`` gives: exit status,
stderr, the output tree and stdout through a pipe.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from flowdoc.cli import main

from conftest import FIXTURES

DEMO, XLINK = str(FIXTURES / "demo"), str(FIXTURES / "xlink")
SRC = str(FIXTURES.parents[1] / "src")


def flowdoc(*argv):
    # stdout block-buffered, as it is by default, so a lost flush shows
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "flowdoc", *argv],
                          capture_output=True, text=True, env=env)


def tree(out):
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_start_up_and_a_plain_run_import_nothing_they_do_not_use(tmp_path):
    unused = ("html", "shlex", "glob", "concurrent.futures", "unicodedata",
              "subprocess", "argparse", "gettext", "pathlib")
    code = f"""if True:
        import json, sys
        import bisect, collections.abc, enum, math, os, re
        stdlib = set(sys.modules)  # whatever these load by themselves
        seen = []
        import flowdoc.cli
        seen.append(sorted(m for m in {unused!r}
                           if m in sys.modules and m not in stdlib))
        flowdoc.cli.main(["all", {DEMO!r}, "--out-dir", {str(tmp_path)!r}])
        seen.append(sorted(m for m in {unused!r}
                           if m in sys.modules and m not in stdlib))
        print(json.dumps(seen), flush=True)
        flowdoc.cli.main(["--help"])  # argparse, which only help and errors need
        """
    # -S: without site, which may load some of these modules on its own
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    seen, help_text = proc.stdout.split("\n", 1)
    assert json.loads(seen) == [[], []]
    assert help_text.startswith("usage: flowdoc")


@pytest.mark.parametrize("argv, status", [
    (["all", DEMO], 0),
    (["all", XLINK], 0),
    (["makeflows", DEMO, "--werror"], 1),  # no-link warnings without a db
    (["build-db"], 2),
])
def test_process_gives_what_main_gives(argv, status, tmp_path, capsys):
    out = tmp_path / "out"
    argv = argv + ["--out-dir", str(out)]
    proc = flowdoc(*argv)
    proc_tree = tree(out)
    shutil.rmtree(out, ignore_errors=True)
    assert main(argv) == proc.returncode == status
    assert capsys.readouterr().err == proc.stderr
    assert tree(out) == proc_tree
    assert bool(proc.stderr) == (status != 0)


def test_phases_as_processes_give_the_all_tree(tmp_path, capsys):
    sources = [DEMO, XLINK]
    for phase in ("build-db", "makeflows", "makehtml"):
        proc = flowdoc(phase, *sources, "--out-dir", str(tmp_path / "ph"))
        assert proc.returncode == 0 and proc.stderr == "", phase
    assert main(["all", *sources, "--out-dir", str(tmp_path / "all")]) == 0
    assert capsys.readouterr().err == ""
    assert tree(tmp_path / "ph") == tree(tmp_path / "all")


def test_no_text_is_read_or_written_in_the_locale_encoding(tmp_path):
    """Under ``-X warn_default_encoding``, with that warning an error, a run
    that renders gives what it gives without them: every text it reads or
    writes, a render command's output too, names its encoding."""
    render = "sh -c 'cp \"$0\" \"${0%.txt}.svg\"' {input}"
    runs = []
    for flags in ([], ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]):
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, *flags, "-m", "flowdoc", "all", DEMO,
                               "--out-dir", str(out), "--render-cmd", render],
                              capture_output=True, text=True)
        runs.append((proc.returncode, proc.stderr, tree(out)))
        shutil.rmtree(out)
    assert runs[0] == runs[1]
    status, err, out_tree = runs[0]
    assert (status, err) == (0, "")
    # each diagram rendered, through the subprocess module the render phase imports
    diagrams = [p for p in out_tree if p.endswith(".txt")]
    assert "aux_files/main__main__zoom0.txt" in diagrams
    assert all(out_tree.get(p[:-4] + ".svg") == out_tree[p] for p in diagrams)


def test_output_does_not_depend_on_the_hash_seed(tmp_path, monkeypatch):
    """Processes with different string hashes write the same tree and
    stderr; runs in one process would all share one hash seed."""
    out, runs = tmp_path / "out", []
    for seed in ("1", "2"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        proc = flowdoc("all", XLINK, "--out-dir", str(out))
        runs.append((proc.returncode, proc.stderr, tree(out)))
        shutil.rmtree(out)
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and len(runs[0][2]) > 10


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_stdout_through_a_pipe_is_complete(flag, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # one help width on both sides
    proc = flowdoc(flag)
    assert main([flag]) == proc.returncode == 0
    expected = capsys.readouterr().out
    assert expected.startswith(("flowdoc ", "usage: flowdoc"))
    assert proc.stdout == expected and proc.stderr == ""


def test_closed_stdout_is_no_error(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "flowdoc", "all", XLINK, "--out-dir",
         str(tmp_path)], stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: os.close(1))
    assert proc.returncode == 0 and proc.stderr == ""
    assert (tmp_path / "index.html").is_file()


def test_profiler_still_reports(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "flowdoc", "all", XLINK,
         "--out-dir", str(tmp_path)], capture_output=True, text=True)
    assert proc.stderr == ""
    assert "function calls" in proc.stdout and "Ordered by" in proc.stdout
    assert (tmp_path / "index.html").is_file()
