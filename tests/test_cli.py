import contextlib
import errno
import io
import os
import re
import shlex
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowdoc import activity_ir, cli, cxx_structure, flowdb, plantuml_emit
from flowdoc.cli import main

from conftest import FIXTURES, GOLDEN, case_clashes, check_links


def run_cli(*argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.err


def files_of(root):
    """Every file under root, by path relative to root, with its bytes."""
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


_COMMAND = st.sampled_from(["build-db", "makeflows", "makehtml", "all"])
# a name with and without a leading '-'
_NAME = st.one_of(st.sampled_from(["a", "b.cpp", "all", "x=y", "a b", "-x", "-a b"]),
                  st.text("ab-= ", max_size=3))
_OPTION = st.sampled_from(["--werror", "--quiet", "--out-dir", "--render-cmd"])
_ARG = st.one_of(
    _COMMAND, _OPTION, _NAME, st.builds("{}={}".format, _OPTION, _NAME),
    st.sampled_from(["--out", "-h", "--help", "--version", "--", "-", "-1", ""]))


class TestArgHandling:
    def test_version_exits_zero(self, capsys):
        assert run_cli("--version", capsys=capsys)[0] == 0

    def test_no_subcommand_is_usage_error(self, capsys):
        assert run_cli(capsys=capsys)[0] == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("frobnicate", capsys=capsys)[0] == 2

    def test_missing_sources_is_usage_error(self, capsys):
        code, err = run_cli("build-db", capsys=capsys)
        assert code == 2
        assert "at least one SOURCE" in err

    @pytest.mark.parametrize("argv", [["all", "a", "--out-dir", ""], ["all", "a", "--out-dir="],
                                      ["all", "a", "--out", ""]])
    def test_an_empty_out_dir_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, capsys=capsys) == (
            2, "flowdoc all: --out-dir must not be empty\n")
        assert list(tmp_path.iterdir()) == []

    def test_an_empty_source_matches_nothing(self, tmp_path, monkeypatch, capsys):
        """'' is no name for the current directory: it is reported, and the
        other sources still run."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "stray.cpp").write_text("void f() {\n//$ step\n}\n")
        code, err = run_cli("all", "", str(FIXTURES / "lang" / "hello.cpp"),
                            "--out-dir", "out", capsys=capsys)
        assert (code, err) == (1, "error: no source matches '' [io-error]\n")
        assert (tmp_path / "out" / "hello.html").is_file()
        assert not (tmp_path / "out" / "stray.html").exists()

    def test_a_second_run_of_sources_is_argparse_s_usage_error(self, capsys):
        code, err = run_cli("all", "a", "--werror", "b", capsys=capsys)
        assert code == 2
        assert err.startswith("usage: flowdoc")
        assert err.endswith("flowdoc: error: unrecognized arguments: b\n")

    @given(st.lists(_ARG, max_size=7).flatmap(
        lambda rest: st.tuples(st.one_of(_COMMAND, _ARG), st.just(rest))))
    @example(("all", ["a", "--werror", "b"]))
    @example(("makehtml", ["--out-dir=o", "--render-cmd", "r", "--quiet", "a", "b"]))
    @example(("all", ["--out-dir=", "", "--werror"]))
    @settings(max_examples=500)
    def test_a_command_line_is_read_as_argparse_reads_it(self, drawn):
        """The reader argparse stands behind either declines a command line
        or gives exactly the namespace argparse gives."""
        argv = [drawn[0], *drawn[1]]
        fast = cli._read_argv(argv)
        if fast is None:
            return
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                expected = vars(cli.build_parser().parse_args(argv))
            except SystemExit:
                expected = err.getvalue()
        assert vars(fast) == expected

    def test_makehtml_allows_no_sources(self, tmp_path, capsys):
        code, err = run_cli("makehtml", "--out-dir", str(tmp_path),
                            capsys=capsys)
        assert code == 0
        assert (tmp_path / "index.html").exists()

    def test_nonexistent_source_is_error(self, tmp_path, capsys):
        code, err = run_cli("build-db", str(tmp_path / "missing.cpp"),
                            "--out-dir", str(tmp_path), capsys=capsys)
        assert code == 1
        assert "[io-error]" in err

    @pytest.mark.parametrize("command",
                             ["build-db", "makeflows", "makehtml", "all"])
    @pytest.mark.parametrize("source", ["no/such/*.cpp", "latin1.cpp"])
    def test_a_run_that_read_no_source_writes_nothing(
            self, command, source, tmp_path, monkeypatch, capsys):
        (tmp_path / "latin1.cpp").write_bytes(
            "void f() {\n//$ café\nx();\n}\n".encode("latin-1"))
        monkeypatch.delenv("FLOWDOC_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        code, err = run_cli(command, source, capsys=capsys)
        assert code == 1
        assert err.splitlines()[0].endswith("[io-error]")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["latin1.cpp"]
        # a readable source next to it gets the whole tree
        code, _ = run_cli(command, source, str(FIXTURES / "lang" / "hello.cpp"),
                          capsys=capsys)
        assert code == 1
        assert (tmp_path / "flowdoc").is_dir()


class TestSourceExpansion:
    def test_directory_recursion(self, tmp_path, capsys):
        code, _ = run_cli("build-db", str(FIXTURES / "demo"),
                          "--out-dir", str(tmp_path), capsys=capsys)
        assert code == 0
        assert (tmp_path / "main.flowdb").exists()
        assert (tmp_path / "aux.flowdb").exists()

    def test_glob_pattern(self, tmp_path, capsys):
        pattern = str(FIXTURES / "xlink" / "*.cpp")
        code, _ = run_cli("build-db", pattern, "--out-dir", str(tmp_path),
                          capsys=capsys)
        assert code == 0
        assert sorted(p.name for p in tmp_path.glob("*.flowdb")) == [
            "a.flowdb", "b.flowdb", "c.flowdb"]

    def test_duplicate_sources_processed_once(self, tmp_path, capsys):
        src = str(FIXTURES / "lang" / "hello.cpp")
        code, err = run_cli("all", src, src, "--out-dir", str(tmp_path),
                            capsys=capsys)
        assert code == 0 and err == ""

    @pytest.mark.parametrize("spelling", ["absolute", "dotdot"])
    def test_a_file_named_two_ways_is_one_source(self, spelling, tmp_path,
                                                 monkeypatch, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "m.cpp").write_text(
            "int main() {\n  //$ step one\n  return 0;\n}\n")
        monkeypatch.chdir(tmp_path)
        again = {"absolute": str(tmp_path / "src" / "m.cpp"),
                 "dotdot": "src/../src/m.cpp"}[spelling]
        once = run_cli("all", "src", "--werror", "--out-dir", "one",
                       capsys=capsys)
        twice = run_cli("all", "src", again, "--werror", "--out-dir", "two",
                        capsys=capsys)
        assert twice == once
        assert files_of(tmp_path / "two") == files_of(tmp_path / "one")

    def test_a_directory_gives_the_sources_rglob_lists(self, tmp_path, monkeypatch):
        """The entries ``Path(d).rglob('*')`` lists whose suffix is a source's:
        hidden files and directories are searched, a symlinked directory is
        not descended, a symlinked file is a source under its own name, and
        a directory or a dangling link named like a source is none."""
        src = tmp_path / "src"
        for name in ("a.cpp", "..cc", ".d.hpp", ".hidden/h.cpp", "dir.cpp/in.h",
                     "sub/b.hh", "up.C", ".hpp", "low.c", "a.CPP", "notes.txt",
                     "../outside.cpp", "../linked/r.cpp"):
            (src / name).parent.mkdir(parents=True, exist_ok=True)
            (src / name).write_text("void f() {}\n")
        (src / "ln.cpp").symlink_to(tmp_path / "outside.cpp")
        (src / "link").symlink_to(tmp_path / "linked", target_is_directory=True)
        (src / "dangling.cpp").symlink_to(tmp_path / "missing.cpp")
        found = ["..cc", ".d.hpp", ".hidden/h.cpp", "a.cpp", "dir.cpp/in.h", "ln.cpp",
                 "sub/b.hh", "up.C"]
        diags = []
        assert cli._expand_sources([str(src)], diags) == [f"{src}/{f}" for f in found]
        monkeypatch.chdir(tmp_path)
        assert cli._expand_sources(["./src/"], diags) == [f"src/{f}" for f in found]
        monkeypatch.chdir(src)
        assert cli._expand_sources(["."], diags) == found
        assert diags == []

    def test_a_glob_hit_is_named_one_way_in_every_diagnostic(
            self, tmp_path, monkeypatch, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "a.cpp").write_text("void f() {\n//$ call\ng();  //$\n}\n")
        (tmp_path / "src" / "A.cpp").write_text("void h() {\n//$ x\ny();\n}\n")
        monkeypatch.chdir(tmp_path)
        assert run_cli("all", "./src//*.cpp", "--out-dir", "o", capsys=capsys) == (0, (
            "src/a.cpp: warning: src/A.cpp and src/a.cpp share one stem, database and page "
            "[stem-collision]\n"
            "src/a.cpp:3: warning: no diagram found for call 'g'; shown without a link "
            "[no-link]\n"))

    def test_sources_and_the_out_dir_are_named_as_pathlib_spells_them(
            self, tmp_path, monkeypatch, capsys):
        """'./src/' and '--out-dir ./odd//' give the diagnostics and the tree
        that 'src' and '--out-dir out' give: a no-link names a source, and a
        duplicate-definition names a database in the out directory."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "a.cpp").write_text("void f() {\n//$ one\ng();  //$\n}\n")
        (tmp_path / "src" / "b.cpp").write_text("void f() {\n//$ two\n}\n")
        odd = run_cli("all", "./src/", "--out-dir", "./odd//", capsys=capsys)
        plain = run_cli("all", "src", "--out-dir", "out", capsys=capsys)
        assert plain == (0, "out/b.flowdb:1: warning: 'f' is documented on more than "
                            "one page; links go to a.html [duplicate-definition]\n"
                            "src/a.cpp:3: warning: no diagram found for call 'g'; "
                            "shown without a link [no-link]\n")
        assert (odd[0], odd[1].replace("odd/", "out/")) == plain
        assert files_of(tmp_path / "odd") == files_of(tmp_path / "out")

    def test_a_source_whose_name_is_not_utf8_is_left_out(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        try:
            (src / os.fsdecode(b"\xffbad.cpp")).write_text("void bad() {\n//$ b\n}\n")
        except (OSError, UnicodeError):
            pytest.skip("the filesystem refuses a file name that is not UTF-8")
        (src / "ok.cpp").write_text("void ok() {\n//$ o\nbad();  //$\n}\n")
        # a subprocess: stderr escapes the name, as a captured stream does not
        proc = subprocess.run([sys.executable, "-m", "flowdoc", "all", str(src),
                               "--out-dir", str(tmp_path / "out")],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == (
            f"{src}/\\udcffbad.cpp: error: cannot read source: its file name is "
            f"not UTF-8 [io-error]\n{src / 'ok.cpp'}:3: warning: no diagram found for "
            f"call 'bad'; shown without a link [no-link]\n")
        assert sorted(files_of(tmp_path / "out")) == [Path(name) for name in (
            "aux_files/ok__ok__zoom0.txt", "index.html", "ok.flowdb", "ok.html")]


class TestPipeline:
    def demo_sources(self):
        return [str(FIXTURES / "demo" / "main.cpp"),
                str(FIXTURES / "demo" / "src" / "aux.cpp")]

    def test_all_matches_goldens(self, tmp_path, capsys):
        code, err = run_cli("all", *self.demo_sources(),
                            "--out-dir", str(tmp_path), capsys=capsys)
        assert code == 0 and err == ""
        aux = tmp_path / "aux_files"
        assert (aux / "main__main__zoom0.txt").read_text() == (
            (GOLDEN / "demo_main_zoom0.txt").read_text())
        assert (aux / "aux__VINCIA__shower__zoom1.txt").read_text() == (
            (GOLDEN / "demo_aux_zoom1.txt").read_text())
        assert (tmp_path / "main.html").exists()
        assert (tmp_path / "aux.html").exists()
        assert (tmp_path / "index.html").exists()

    def test_split_phases_match_all(self, tmp_path, capsys):
        one, two = tmp_path / "one", tmp_path / "two"
        assert run_cli("all", *self.demo_sources(), "--out-dir", str(one),
                       capsys=capsys)[0] == 0
        for phase in ("build-db", "makeflows", "makehtml"):
            assert run_cli(phase, *self.demo_sources(), "--out-dir", str(two),
                           capsys=capsys)[0] == 0
        files_one = sorted(p.relative_to(one) for p in one.rglob("*")
                           if p.is_file())
        files_two = sorted(p.relative_to(two) for p in two.rglob("*")
                           if p.is_file())
        assert files_one == files_two
        for rel in files_one:
            assert (one / rel).read_bytes() == (two / rel).read_bytes()

    def test_a_leading_bom_is_not_code(self, tmp_path, capsys):
        text = ("#include <vector>\nint main() {\n  //$ step one\n"
                "  return 0;\n}\n").encode()
        runs = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / name).mkdir()
            (tmp_path / name / "m.cpp").write_bytes(prefix + text)
            runs.append(run_cli("all", str(tmp_path / name / "m.cpp"),
                                "--out-dir", str(tmp_path / name / "out"),
                                capsys=capsys))
        assert runs == [(0, ""), (0, "")]
        plain, bom = (files_of(tmp_path / name / "out") for name in ("plain", "bom"))
        assert bom == plain
        assert b"<p><code>int main()</code></p>" in bom[Path("m.html")]

    def all_and_phased(self, tmp_path, capsys, *sources):
        """The stderr of ``all``, which the three phases as separate runs
        repeat, and the tree both write."""
        code, err = run_cli("all", *sources, "--out-dir", str(tmp_path / "one"),
                            capsys=capsys)
        assert code == 0
        phased = [run_cli(phase, *sources, "--out-dir", str(tmp_path / "two"),
                          capsys=capsys) for phase in ("build-db", "makeflows", "makehtml")]
        assert [c for c, _ in phased] == [0, 0, 0]
        assert "".join(e for _, e in phased) == err
        tree = files_of(tmp_path / "one")
        assert files_of(tmp_path / "two") == tree
        return err, tree

    def each_phase(self, tmp_path, capsys, *sources):
        """The stderr of ``all`` and of each phase as a separate run, which
        analyzes the sources again, and the tree that both write."""
        runs = [run_cli("all", *sources, "--out-dir", str(tmp_path / "one"),
                        capsys=capsys)]
        runs += [run_cli(phase, *sources, "--out-dir", str(tmp_path / "two"),
                         capsys=capsys) for phase in ("build-db", "makeflows", "makehtml")]
        assert [c for c, _ in runs] == [0, 0, 0, 0]
        tree = files_of(tmp_path / "one")
        assert files_of(tmp_path / "two") == tree
        return [e for _, e in runs], tree

    def test_a_diagram_path_two_stems_share_is_written_once(self, tmp_path, capsys):
        # b::c of a.cpp and c of a__b.cpp both draw to a__b__c__zoom0.txt
        a, ab = tmp_path / "a.cpp", tmp_path / "a__b.cpp"
        a.write_text("namespace b {\nvoid c() {\n//$ in a\nx();\n}\n}\n")
        ab.write_text("void c() {\n//$ in a__b\ny();\n}\n")
        err, tree = self.all_and_phased(tmp_path, capsys, str(a), str(ab))
        assert err == (f"{ab}: warning: 'aux_files/a__b__c__zoom0.txt' is already "
                       f"an output of {a}; not written again [output-collision]\n")
        assert b":in a;" in tree[Path("aux_files/a__b__c__zoom0.txt")]
        # the page of a__b.cpp shows its own text, not a.cpp's image
        svg = b'data="aux_files/a__b__c__zoom0.svg"'
        assert svg in tree[Path("a.html")]
        page = tree[Path("a__b.html")]
        assert svg not in page and b"<object" not in page
        assert page.count(b":in a__b;") == 2

    def test_the_index_keeps_its_name(self, tmp_path, capsys):
        src = tmp_path / "index.cpp"
        src.write_text("void run() {\n//$ go\nx();\n}\n")
        err, tree = self.all_and_phased(tmp_path, capsys, str(src))
        assert err == (f"{src}: warning: 'index.html' is already an output of "
                       f"the index; this stem gets no page and its functions are "
                       f"neither indexed nor linked [output-collision]\n")
        index = tree[Path("index.html")]
        assert b"<title>flow documentation</title>" in index
        assert b"index.html#" not in index and tree[Path("index.flowdb")] == b""
        assert Path("aux_files/index__run__zoom0.txt") in tree

    def test_a_stem_that_loses_its_page_writes_no_database(self, tmp_path, capsys):
        # the second stem is spelled as the first one's cut name
        first = tmp_path / ("x" * 240 + ".cpp")
        first.write_text("void fa() {\n//$ a\n}\n")
        cut = cli._bounded("x" * 240, ".flowdb")
        second = tmp_path / (cut + ".cpp")
        second.write_text("void fb() {\n//$ b\nfa();  //$\n}\n")
        err, tree = self.all_and_phased(tmp_path, capsys, str(first), str(second))
        assert err == (f"{second}: warning: '{cut}.html' is already an output of "
                       f"{first}; this stem gets no page and its functions are "
                       f"neither indexed nor linked [output-collision]\n")
        assert tree[Path(f"{cut}.flowdb")] == f"fa\t{cut}.html#fa\t0\n".encode()
        assert f'href="{cut}.html#fa"'.encode() in tree[Path("index.html")]

    @pytest.mark.parametrize("src", [
        "//$ at file scope\n",
        "struct S {\n//$ in a class body\nint m;\n};\n",
        "auto lam = [] {\n//$ in a namespace-scope lambda\nx();\n};\n",
        "template <> void f<int>() {\n//$ in an explicit specialization\n}\n",
        "int (h)() {\n//$ in a parenthesized declarator\n}\n",
        "int w = k();  //$\n",
        "int v = 1;  //$\n",
    ], ids=["file-scope", "class-body", "lambda", "specialization",
            "parenthesized", "file-scope-call", "file-scope-no-call"])
    def test_a_marker_outside_every_body_is_reported_once(self, tmp_path, capsys, src):
        path = tmp_path / "s.cpp"
        path.write_text("void ok() {\n//$ drawn\n}\n" + src)
        errs, tree = self.each_phase(tmp_path, capsys, str(path))
        line = 3 + next(n for n, text in enumerate(src.splitlines(), 1) if "//$" in text)
        assert errs == 4 * [f"{path}:{line}: warning: '//$' outside every recognized "
                            f"function body; not drawn [unplaced-marker]\n"]
        assert tree[Path("s.flowdb")] == b"ok\ts.html#ok\t0\n"

    def test_a_marker_on_a_directive_line_is_reported_once(self, tmp_path, capsys):
        path = tmp_path / "s.cpp"
        path.write_text("void ok() {\n//$ drawn\n#ifdef X  //$ only with X\ng();\n#endif\n}\n")
        errs, tree = self.each_phase(tmp_path, capsys, str(path))
        assert errs == 4 * [f"{path}:3: warning: '//$' on a preprocessor line; not drawn "
                            f"[unplaced-marker]\n"]
        assert tree[Path("aux_files/s__ok__zoom0.txt")] == (
            b"@startuml\nstart\n:drawn;\nstop\n@enduml\n")

    def test_a_block_comment_from_a_directive_line_hides_no_code(self, tmp_path, capsys):
        path = tmp_path / "s.cpp"
        path.write_text("#define X 1 /* start\n that runs on { and on\n*/\n"
                        "void f() {\n //$ a\n g();\n}")
        err, tree = self.all_and_phased(tmp_path, capsys, str(path))
        assert err == ""
        assert tree[Path("s.flowdb")] == b"f\ts.html#f\t0\n"
        assert tree[Path("aux_files/s__f__zoom0.txt")] == (
            b"@startuml\nstart\n:a;\nstop\n@enduml\n")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_a_line_comment_that_ends_in_a_backslash_hides_the_next_line(
            self, tmp_path, capsys, newline):
        # C++ splices lines before it removes comments: g(); is comment
        path = tmp_path / "t.cpp"
        path.write_bytes(("void g() {\n//$ do g\n}\n"
                          "void f() {\n//$ start\n// a note \\\ng();  //$\n}\n")
                         .replace("\n", newline).encode())
        err, tree = self.all_and_phased(tmp_path, capsys, str(path))
        assert err == ""
        assert tree[Path("aux_files/t__f__zoom0.txt")] == (
            b"@startuml\nstart\n:start;\nstop\n@enduml\n")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_an_action_that_ends_in_a_backslash_runs_on(self, tmp_path, capsys, newline):
        path = tmp_path / "t.cpp"
        path.write_bytes(("void f() {\n//$2 check the \\\ninput\\\n  twice\n"
                          "run();\n//$ [done?] \\\n\nif (ok) {\n//$2 stop\n}\n}\n")
                         .replace("\n", newline).encode())
        err, tree = self.all_and_phased(tmp_path, capsys, str(path))
        assert err == ""
        assert tree[Path("aux_files/t__f__zoom2.txt")] == (
            b"@startuml\nstart\n:check the input  twice;\n"
            b"if (done?) then (yes)\n:stop;\nendif\nstop\n@enduml\n")

    def test_a_highlight_past_two_bodies_is_drawn_in_the_first(self, tmp_path, capsys):
        # the marker is past b's body: x() goes to a, whose body it is in;
        # b is a declarator, and g() in b's body is reported, not dropped
        path = tmp_path / "s.cpp"
        path.write_text("void a() {\nx(); } void b() { g(); }  //$\n")
        errs, tree = self.each_phase(tmp_path, capsys, str(path))
        unplaced = (f"{path}:2: warning: call 'g' lies outside the function body "
                    f"its '//$' is drawn in; not drawn [unplaced-marker]\n")
        both = unplaced + (f"{path}:2: warning: no diagram found for call 'x'; "
                           f"shown without a link [no-link]\n")
        assert errs == [both, unplaced, both, both]
        assert tree[Path("s.flowdb")] == b"a\ts.html#a\t0\n"
        assert b"x();" in tree[Path("aux_files/s__a__zoom0.txt")]

    @pytest.mark.parametrize("tail", ["//$ this text goes nowhere", "//$3", "//$ [why]",
                                      "//$2 <parallel> side"])
    def test_text_after_a_highlight_is_reported_and_its_call_drawn(self, tmp_path, capsys,
                                                                   tail):
        path = tmp_path / "s.cpp"
        path.write_text(f"void g() {{\n//$ do g\n}}\nvoid f() {{\n//$ act\ng();  {tail}\n}}\n")
        errs, tree = self.each_phase(tmp_path, capsys, str(path))
        assert errs == 4 * [f"{path}:6: warning: zoom digits, tag and text after a "
                            "call-highlighting '//$' are not drawn [ignored-highlight-text]\n"]
        assert tree[Path("aux_files/s__f__zoom0.txt")] == (
            b"@startuml\nstart\n:act\n[[../s.html#g g()]];\nstop\n@enduml\n")
        assert Path("aux_files/s__f__zoom1.txt") not in tree

    def test_names_over_the_file_name_cap_keep_a_prefix_and_end_in_a_digest(
            self, tmp_path, capsys):
        scopes = [f"namespace_number_{k}_with_a_long_name" for k in range(8)]
        long_fn = "::".join(scopes) + "::runs"  # 300 bytes
        deep = tmp_path / "deep.cpp"
        deep.write_text("".join(f"namespace {s} {{\n" for s in scopes)
                        + "void runs() {\n//$ go\nx();\n//$2 closer\ny();\n}\n" + "}\n" * 8
                        + f"void main2() {{\n//$ call\n{long_fn}();  //$\n}}\n")
        stem = "s" * 251
        wide = tmp_path / f"{stem}.cpp"
        wide.write_text("void f() {\n//$ do f\nruns();  //$\n}\n")
        assert len(long_fn) == 300 and len(wide.name) == 255
        err, tree = self.all_and_phased(tmp_path, capsys, str(deep), str(wide))
        assert err == ""
        assert run_cli("all", str(deep), str(wide), "--out-dir", str(tmp_path / "w"),
                       "--werror", capsys=capsys) == (0, "")
        names = sorted(p.name for p in tree)
        assert max(len(name.encode()) for name in names) == 238
        assert "deep__main2__zoom0.txt" in names and "deep.html" in names
        long_diagrams = [n for n in names if n.startswith("deep__namespace_number_0_")]
        assert len(long_diagrams) == 3
        assert len({n.rsplit("__zoom", 1)[0] for n in long_diagrams}) == 1
        assert re.fullmatch(r"deep__namespace_number_0_\w+~[0-9a-f]{12}__zoom0\.txt",
                            long_diagrams[0])
        pages = [n for n in names if n.startswith(stem[:200]) and "__" not in n]
        assert [n.rsplit(".", 1)[1] for n in pages] == ["flowdb", "html"]
        assert pages[0].removesuffix(".flowdb") == pages[1].removesuffix(".html")
        refs = check_links(tmp_path / "one")
        assert len(refs) > 5 and all(ref.ok for ref in refs)
        page = tree[Path("deep.html")].decode()
        assert f'data="aux_files/{long_diagrams[2][:-4]}.svg"' in page
        # the cut page is titled by its stem; the index shows the file its link opens
        wide_page = tree[Path(pages[1])].decode()
        assert f"<title>{stem}</title>" in wide_page and f"<h1>{stem}</h1>" in wide_page
        assert f">{pages[1]}</a></h2>" in tree[Path("index.html")].decode()

    def test_an_explicit_destructor_call_links_to_the_destructor(self, tmp_path, capsys):
        path = tmp_path / "s.cpp"
        path.write_text("struct T { T() {\n//$ make\n} ~T() {\n//$ free\n} };\n"
                        "void u(T* p) {\np->~T();  //$\n}\n")
        err, tree = self.all_and_phased(tmp_path, capsys, str(path))
        assert err == ""
        assert b"[[../s.html#T___T T::~T()]]" in tree[Path("aux_files/s__u__zoom0.txt")]

    def test_no_link_goes_to_the_stem_named_index(self, tmp_path, capsys):
        (tmp_path / "index.cpp").write_text("void run() {\n//$ go\nx();\n}\n")
        use = tmp_path / "use.cpp"
        use.write_text("void use() {\n//$ start\nrun();  //$\n}\n")
        out = tmp_path / "out"
        code, err = run_cli("all", str(tmp_path / "index.cpp"), str(use),
                            "--out-dir", str(out), capsys=capsys)
        assert code == 0 and f"{use}:3: warning: no diagram found for call 'run'" in err
        assert "index.html" not in (out / "aux_files" / "use__use__zoom0.txt").read_text()

    def test_a_stem_named_index_in_other_case_gets_no_page(self, tmp_path, capsys):
        src = tmp_path / "INDEX.cpp"
        src.write_text("void run() {\n//$ go\nx();\n}\n")
        out = tmp_path / "out"
        code, err = run_cli("all", str(src), "--out-dir", str(out), capsys=capsys)
        assert code == 0
        assert err == (f"{src}: warning: 'INDEX.html' is already an output of the index; "
                       "this stem gets no page and its functions are neither indexed "
                       "nor linked [output-collision]\n")
        tree = files_of(out)
        assert case_clashes(tree) == [] and Path("index.html") in tree

    def test_stems_and_anchors_that_differ_only_in_case_name_distinct_outputs(
            self, tmp_path, capsys):
        lower, upper = tmp_path / "a.cpp", tmp_path / "A.cpp"
        lower.write_text("void run() {\n//$ lower\nx();\n}\n"
                         "void Run() {\n//$ upper\ny();\n}\n")
        upper.write_text("void f() {\n//$ call\nrun();  //$\n}\n")
        errs, tree = self.each_phase(tmp_path, capsys, str(lower), str(upper))
        assert errs == [f"{upper}: warning: {lower} and {upper} share one stem, "
                        "database and page [stem-collision]\n"] * 4
        assert case_clashes(tree) == []
        assert sorted(p.as_posix() for p in tree) == [
            "a.flowdb", "a.html", "aux_files/a__Run__2__zoom0.txt",
            "aux_files/a__f__zoom0.txt", "aux_files/a__run__zoom0.txt", "index.html"]
        assert tree[Path("a.flowdb")] == (b"Run\ta.html#Run__2\t0\nf\ta.html#f\t0\n"
                                          b"run\ta.html#run\t0\n")
        assert b"[[../a.html#run run()]]" in tree[Path("aux_files/a__f__zoom0.txt")]

    def test_a_header_and_a_cpp_whose_stems_differ_in_case_share_a_stem(self, tmp_path,
                                                                        capsys):
        header, impl = tmp_path / "a.h", tmp_path / "A.cpp"
        header.write_text("void f() {\n//$ in the header\nx();\n}\n")
        impl.write_text("void g() {\n//$ in the cpp\ny();\n}\n")
        errs, tree = self.each_phase(tmp_path, capsys, str(header), str(impl))
        assert errs == [f"{impl}: warning: {header} and {impl} share one stem, "
                        "database and page [stem-collision]\n"] * 4
        assert tree[Path("a.flowdb")] == b"f\ta.html#f\t0\ng\ta.html#g\t0\n"

    def test_stems_that_differ_only_in_unicode_normalization_are_one_stem(
            self, tmp_path, capsys):
        # a filesystem that ignores normalization, as macOS's do, would give
        # both spellings one page and one database
        nfc, nfd = tmp_path / "caf\u00e9.cpp", tmp_path / "cafe\u0301.cpp"
        nfc.write_text("void f() {\n//$ composed\nx();\n}\n")
        nfd.write_text("void g() {\n//$ decomposed\ny();\n}\n")
        errs, tree = self.each_phase(tmp_path, capsys, str(nfc), str(nfd))
        assert errs == [f"{nfd}: warning: {nfc} and {nfd} share one stem, "
                        "database and page [stem-collision]\n"] * 4
        assert case_clashes(tree) == []
        assert sorted(p.as_posix() for p in tree) == [
            "aux_files/caf\u00e9__f__zoom0.txt", "aux_files/caf\u00e9__g__zoom0.txt",
            "caf\u00e9.flowdb", "caf\u00e9.html", "index.html"]

    def test_diagrams_of_two_stems_named_alike_but_for_case_collide(self, tmp_path, capsys):
        first, second = tmp_path / "a__B.cpp", tmp_path / "a.cpp"
        first.write_text("void c() {\n//$ one\nx();\n}\n")
        second.write_text("namespace b {\nvoid c() {\n//$ two\ny();\n}\n}\n")
        out = tmp_path / "out"
        code, err = run_cli("all", str(first), str(second), "--out-dir", str(out),
                            capsys=capsys)
        assert code == 0
        assert err == (f"{second}: warning: 'aux_files/a__b__c__zoom0.txt' is already "
                       f"an output of {first}; not written again [output-collision]\n")
        tree = files_of(out)
        assert case_clashes(tree) == [] and Path("aux_files/a__B__c__zoom0.txt") in tree

    @pytest.mark.parametrize("fixture", ["demo", "lang", "xlink"])
    def test_no_two_outputs_of_a_fixture_differ_only_in_case(self, fixture, tmp_path,
                                                             capsys):
        run_cli("all", str(FIXTURES / fixture), "--out-dir", str(tmp_path), capsys=capsys)
        tree = files_of(tmp_path)
        assert len(tree) > 3 and case_clashes(tree) == []

    def test_header_and_cpp_share_page_and_db(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "box.h").write_text(
            "class Box {\npublic:\n"
            "    int size() const {\n//$ measure\nreturn n;\n}\n"
            "    void pack();\n};\n")
        (src / "box.cpp").write_text(
            "#include \"box.h\"\n"
            "void Box::pack() {\n//$ pack it\nx();\n}\n")
        (src / "use.cpp").write_text(
            "void use() {\n//$ delegate\nbox.pack();  //$\n}\n")
        out = tmp_path / "out"
        code, err = run_cli("all", str(src), "--out-dir", str(out),
                            capsys=capsys)
        assert code == 0 and err == ""
        db = (out / "box.flowdb").read_text()
        assert "Box::pack" in db and "Box::size" in db
        page = (out / "box.html").read_text()
        assert 'id="Box__pack"' in page and 'id="Box__size"' in page
        use_txt = (out / "aux_files" / "use__use__zoom0.txt").read_text()
        assert "[[../box.html#Box__pack Box::pack()]]" in use_txt

    def test_two_files_of_one_kind_and_stem_warn_and_merge(self, tmp_path,
                                                           capsys):
        for path, name in (("a/util.cpp", "alpha"), ("b/util.cpp", "beta"),
                           ("a/io.h", "read"), ("b/io.hpp", "write")):
            (tmp_path / path).parent.mkdir(exist_ok=True)
            (tmp_path / path).write_text(f"void {name}() {{\n//$ {name}\n}}\n")
        out = tmp_path / "out"
        code, err = run_cli("all", str(tmp_path / "a"), str(tmp_path / "b"),
                            "--out-dir", str(out), capsys=capsys)
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 2 and all("[stem-collision]" in l for l in lines)
        for first, second in (("a/io.h", "b/io.hpp"),
                              ("a/util.cpp", "b/util.cpp")):
            assert any(l.startswith(f"{tmp_path / second}: warning: ")
                       and str(tmp_path / first) in l for l in lines)
        db = (out / "util.flowdb").read_text()
        assert "alpha" in db and "beta" in db
        assert sorted(p.name for p in out.glob("*.html")) == [
            "index.html", "io.html", "util.html"]

    def test_header_and_cpp_in_two_directories_stay_a_silent_pair(
            self, tmp_path, capsys):
        # demo has aux.h beside src/aux.cpp
        code, err = run_cli("all", str(FIXTURES / "demo"),
                            "--out-dir", str(tmp_path), capsys=capsys)
        assert code == 0 and err == ""
        db = (tmp_path / "aux.flowdb").read_text()
        assert "VINCIA::shower" in db

    def test_makeflows_without_db_still_works(self, tmp_path, capsys):
        code, err = run_cli("makeflows", *self.demo_sources(),
                            "--out-dir", str(tmp_path), capsys=capsys)
        assert code == 0
        assert "[no-link]" in err  # cross link needs build-db first

    @pytest.mark.parametrize("stem,quoted", [("a#b", "a%23b"), ("my file", "my%20file"),
                                             ("50%?[x]", "50%25%3F%5Bx%5D"),
                                             ("a\tb", "a%09b"), ("a\nb", "a%0Ab"),
                                             ("std:vec", "std%3Avec"),
                                             ("back\\slash", "back%5Cslash")])
    def test_stems_that_break_urls_get_working_links(self, stem, quoted,
                                                     tmp_path, capsys):
        src = tmp_path / f"{stem}.cpp"
        src.write_text("void f() {\n//$ do f\nx();\n}\n"
                       "void g() {\n//$ do g\nf();  //$\n}\n")
        trees = []
        for phases in (["all"], ["build-db", "makeflows", "makehtml"]):
            out = tmp_path / phases[0]
            for phase in phases:
                assert run_cli(phase, str(src), "--out-dir", str(out),
                               capsys=capsys) == (0, "")
            trees.append(files_of(out))
        assert trees[0] == trees[1]
        index = (out / "index.html").read_text()
        assert (f'<li><a href="{quoted}.html#f">f</a>' in index
                and f'<li><a href="{quoted}.html#g">g</a>' in index)
        assert f"[[../{quoted}.html#f f()]]" in (
            out / "aux_files" / f"{stem}__g__zoom0.txt").read_text()
        assert f'data="aux_files/{quoted}__f__zoom0.svg"' in (
            out / f"{stem}.html").read_text()
        refs = check_links(out)
        # 5 links and the page's 2 images
        assert len(refs) == 7 and all(ref.ok for ref in refs)

    @pytest.mark.parametrize("stem", ["c&d", "it's"])
    def test_links_are_checked_as_a_browser_reads_them(self, stem, tmp_path, capsys):
        # the index escapes '&' and "'" in its hrefs
        src = tmp_path / f"{stem}.cpp"
        src.write_text("void f() {\n//$ do f\nx();\n}\n"
                       "void g() {\n//$ do g\nf();  //$\n}\n")
        out = tmp_path / "out"
        assert run_cli("all", str(src), "--out-dir", str(out), capsys=capsys) == (0, "")
        refs = check_links(out)
        # 5 links and the page's 2 images
        assert len(refs) == 7 and all(ref.ok for ref in refs)


class TestDiagnostics:
    def test_format_and_exit_zero_on_warning(self, tmp_path, capsys):
        src = tmp_path / "w.cpp"
        src.write_text("void f() {\n//$ act\nx();\nint y;  //$\n}\n")
        code, err = run_cli("all", str(src), "--out-dir",
                            str(tmp_path / "out"), capsys=capsys)
        assert code == 0
        assert f"{src}:4: warning: " in err
        assert "[dangling-call-highlight]" in err

    def test_werror_promotes_warnings(self, tmp_path, capsys):
        src = tmp_path / "plain.cpp"
        src.write_text("void f() {\nint x = 0;\n}\n")
        assert run_cli("makeflows", str(src), "--out-dir",
                       str(tmp_path / "out"), capsys=capsys)[0] == 0
        assert run_cli("makeflows", str(src), "--out-dir",
                       str(tmp_path / "out"), "--werror", capsys=capsys)[0] == 1

    def test_quiet_suppresses_warnings_not_errors(self, tmp_path, capsys):
        src = tmp_path / "plain.cpp"
        src.write_text("void f() {\nint x = 0;\n}\n")
        code, err = run_cli("makeflows", str(src), "--quiet",
                            "--out-dir", str(tmp_path / "out"), capsys=capsys)
        assert code == 0 and err == ""
        code, err = run_cli("build-db", str(tmp_path / "nope.cpp"), "--quiet",
                            "--out-dir", str(tmp_path / "out"), capsys=capsys)
        assert code == 1 and "[io-error]" in err

    def test_call_after_template_arguments_keeps_its_scope(self, tmp_path,
                                                           capsys):
        src = tmp_path / "t.cpp"
        src.write_text(textwrap.dedent("""\
            namespace ns {
            template <class T> struct a {
              void helper(int n) {
                //$ help a
              }
            };
            struct b {
              void helper(int n) {
                //$ help b
              }
            };
            }
            void run() {
              //$ run
              ns::a<int>::helper(1);  //$
            }
            """))
        out = tmp_path / "out"
        code, err = run_cli("all", str(src), "--out-dir", str(out),
                            capsys=capsys)
        assert code == 0 and err == ""
        diagram = (out / "aux_files" / "t__run__zoom0.txt").read_text()
        assert "[[../t.html#ns__a__helper ns::a::helper()]]" in diagram

    def test_highlight_after_a_prefixed_char_literal_is_drawn(self, tmp_path,
                                                              capsys):
        src = tmp_path / "u.cpp"
        src.write_text("void g() {\n//$ gee\n}\n"
                       "void f() {\n//$ start\nchar c = u8'a'; g();  //$\n}\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        code, err = run_cli("all", str(src), "--out-dir", str(out),
                            capsys=capsys)
        assert code == 0 and err == ""
        diagram = (out / "aux_files" / "u__f__zoom0.txt").read_text()
        assert "[[../u.html#g g()]]" in diagram

    def test_callee_with_a_non_ascii_first_letter_links(self, tmp_path, capsys):
        src = tmp_path / "e.cpp"
        src.write_text("void étape(int n) {\n//$ step\n}\n"
                       "void f() {\n//$ start\nétape(1);  //$\n}\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        code, err = run_cli("all", str(src), "--out-dir", str(out),
                            capsys=capsys)
        assert code == 0 and err == ""
        diagram = (out / "aux_files" / "e__f__zoom0.txt").read_text(encoding="utf-8")
        assert "[[../e.html#_tape étape()]]" in diagram

    def test_unbalanced_file_warns_and_others_still_build(self, tmp_path,
                                                           capsys):
        bad = tmp_path / "bad.cpp"
        bad.write_text('void b() {\n//$ open\nx("oops);\n')
        good = tmp_path / "good.cpp"
        good.write_text("void g() {\n//$ fine\nx();\n}\n")
        out = tmp_path / "out"
        code, err = run_cli("all", str(bad), str(good), "--out-dir", str(out),
                            capsys=capsys)
        assert code == 0
        assert f"{bad}:3: warning: unterminated string literal" in err
        assert f"{bad}:1: warning: unbalanced braces" in err
        assert (out / "bad.html").is_file() and (out / "good.html").is_file()
        assert run_cli("all", str(bad), str(good), "--out-dir", str(out),
                       "--werror", capsys=capsys)[0] == 1

    def test_zoom_above_the_bound_draws_the_bound(self, tmp_path, capsys):
        src = tmp_path / "z.cpp"
        src.write_text("void f() {\n//$100000000 deep\nx();\n}\n")
        out = tmp_path / "out"
        code, err = run_cli("all", str(src), "--out-dir", str(out),
                            capsys=capsys)
        assert code == 0
        assert err == (f"{src}:2: warning: zoom levels above 99 are not drawn; "
                       "this action is drawn at zoom 99 [zoom-too-deep]\n")
        assert (out / "z.flowdb").read_text().endswith("\t99\n")
        assert len(list((out / "aux_files").glob("z__f__zoom*.txt"))) == 100

    def test_repeated_diagnostics_deduplicated(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "bad.flowdb").write_text("not a db line\n")
        src = tmp_path / "s.cpp"
        src.write_text("void f() {\n//$ act\nx();\n}\n")
        # "all" merges the databases once, for makeflows and makehtml
        code, err = run_cli("all", str(src), "--out-dir", str(out),
                            capsys=capsys)
        assert code == 0
        assert err.count("[malformed-db-line]") == 1

    def test_line_shared_by_two_bodies_belongs_to_one(self, tmp_path, capsys):
        src = tmp_path / "s.cpp"
        src.write_text("void a() { x(); } void b() { g(); g();  //$\n}\n")
        out = tmp_path / "out"
        code, err = run_cli("all", str(src), "--out-dir", str(out),
                            capsys=capsys)
        assert code == 0
        assert sorted(p.name for p in (out / "aux_files").iterdir()) == [
            "s__b__zoom0.txt"]
        # one function reports the line's unlinked callees, once each
        no_link = [line for line in err.splitlines() if "[no-link]" in line]
        assert no_link and len(no_link) == len(set(no_link))

    def test_declarator_on_the_highlighted_line_is_no_call(self, tmp_path,
                                                           capsys):
        src = tmp_path / "s.cpp"
        out = tmp_path / "out"
        src.write_text("void b() { g();  //$\n}\n")
        assert run_cli("all", str(src), "--out-dir", str(out),
                       capsys=capsys)[0] == 0
        diagram = (out / "aux_files" / "s__b__zoom0.txt").read_text()
        assert "b()" not in diagram and "g();" in diagram
        # the calls before the highlighted body's '{' are not its calls
        src.write_text("void a() { x(); } void c() { g(); g();  //$\n}\n")
        code, err = run_cli("all", str(src), "--out-dir", str(out),
                            capsys=capsys)
        assert code == 0
        named = re.findall(r"call '(\w+)'.*\[no-link\]", err)
        assert named and set(named) == {"g"}
        # a line that only opens the body holds no call
        src.write_text("void d() {  //$\n//$ act\nf();\n}\n")
        code, err = run_cli("all", str(src), "--out-dir", str(out),
                            capsys=capsys)
        assert f"{src}:1: warning: postfix '//$' on a line with no " in err
        assert "[[" not in (out / "aux_files" / "s__d__zoom0.txt").read_text()

    def test_unexpected_failure_spares_the_other_stems(self, tmp_path,
                                                       monkeypatch, capsys):
        bad, good = tmp_path / "bad.cpp", tmp_path / "good.cpp"
        for src in (bad, good):
            src.write_text("void f() {\n//$ act\nx();\n}\n")
        analyze = flowdb.analyze_source

        def failing(path, *args, **kwargs):
            if Path(path) == bad:
                raise RuntimeError("boom")
            return analyze(path, *args, **kwargs)

        monkeypatch.setattr(flowdb, "analyze_source", failing)
        out = tmp_path / "out"
        code, err = run_cli("all", str(bad), str(good), "--out-dir", str(out),
                            capsys=capsys)
        assert code == 1
        internal = [line for line in err.splitlines()
                    if line.endswith("[internal-error]")]
        assert len(internal) == 1
        assert internal[0].startswith(f"{bad}: error: internal error "
                                      f"(RuntimeError at ")
        assert "boom" in internal[0]
        assert (out / "good.flowdb").is_file()
        assert (out / "aux_files" / "good__f__zoom0.txt").is_file()
        assert (out / "good.html").is_file()
        assert not (out / "bad.flowdb").exists()
        assert not (out / "bad.html").exists()


# One source of each diagnostic an analysis or a tree build can emit; a
# second analysis or build in the same run would repeat them.
_NOISY = (
    "void A::step() {\n//$ a\nx();\n}\n"
    "void B::step() {\n//$ b\nx();\n}\n"
    "void go() {\n//$ start\ng(); g();  //$\nstep(); step();  //$\n"
    "int y;  //$\n//$ [lonely]\nx();\n//$ [unused]\nif (c) { x(); }\n"
    "if x;\n}\n")
_NOISY_CODES = {"no-link", "ambiguous-callee", "dangling-call-highlight",
                "orphan-bracket-annotation", "unused-condition-description",
                "malformed-control-header"}


class TestWorkDoneOnce:
    """``all`` analyzes and lexes each source once and builds and renders
    each annotated function once, so no diagnostic is emitted twice."""

    def counted_all(self, sources, out, monkeypatch, capsys):
        analyses, builds, lexes, renders, runs = Counter(), Counter(), [], [], []
        analyze = flowdb.analyze_source
        init = cxx_structure.CodeStream.__init__
        build = activity_ir.build_activity
        render = plantuml_emit.render_function
        run = cli.run

        def counted_analyze(path, *args, **kwargs):
            analyses[str(path)] += 1
            return analyze(path, *args, **kwargs)

        def counted_init(view, *args):
            lexes.append(view)
            init(view, *args)

        def counted_build(af, *args, **kwargs):
            builds[(Path(af.fn.file).stem, af.anchor)] += 1
            return build(af, *args, **kwargs)

        def counted_render(tree, max_zoom):
            renders.append(tree)
            return render(tree, max_zoom)

        def captured_run(cfg, diags):
            runs.append(diags)
            run(cfg, diags)

        monkeypatch.setattr(flowdb, "analyze_source", counted_analyze)
        monkeypatch.setattr(cxx_structure.CodeStream, "__init__", counted_init)
        monkeypatch.setattr(activity_ir, "build_activity", counted_build)
        monkeypatch.setattr(plantuml_emit, "render_function", counted_render)
        monkeypatch.setattr(cli, "run", captured_run)
        main(["all", *sources, "--out-dir", str(out)])
        capsys.readouterr()
        return analyses, len(lexes), builds, len(renders), runs[0]

    @pytest.mark.parametrize("corpus", ["demo", "xlink", "noisy"])
    def test_each_piece_of_work_happens_once(self, corpus, tmp_path,
                                             monkeypatch, capsys):
        if corpus == "noisy":
            (tmp_path / "noisy.cpp").write_text(_NOISY)
            sources = [str(tmp_path / "noisy.cpp")]
        else:
            sources = sorted(str(p) for p in (FIXTURES / corpus).rglob("*")
                             if p.suffix in flowdb.SOURCE_SUFFIXES)
        out = tmp_path / "out"
        analyses, lexes, builds, renders, diags = self.counted_all(
            sources, out, monkeypatch, capsys)
        assert analyses == Counter(sources)
        assert lexes == len(sources)
        functions = Counter(
            (db.stem, line.split("\t")[1].split("#")[1])
            for db in out.glob("*.flowdb")
            for line in db.read_text().splitlines())
        assert functions and builds == functions
        assert renders == sum(functions.values())
        keys = [(d.file, d.line, d.severity, d.code, d.message) for d in diags]
        assert len(set(keys)) == len(keys), keys
        if corpus == "noisy":
            assert {d.code for d in diags} == _NOISY_CODES


def _zoomed(depth):
    """One function drawn at zoom 0-9: a fork, then depth nested constructs
    with an action in each, and an action per zoom level innermost."""
    heads = ("if (a > {k}) {{", "while (a < {k}) {{",
             "for (int i = 0; i < {k}; ++i) {{", "do {{")
    tails = ("}", "}", "}", "} while (a);")
    lines = ["void zoomed(int a) {", "//$ start", "//$3 <parallel> left",
             "x();", "//$3 <parallel> right", "y();"]
    for k in range(depth):
        lines += [heads[k % 4].format(k=k), f"//${k % 10} step {k}", "x();"]
    for z in range(10):
        lines += [f"//${z} at {z}", "x();"]
    lines += [tails[k % 4] for k in reversed(range(depth))] + ["}"]
    return "\n".join(lines) + "\n"


class TestEachNodeEmittedOnce:
    """``all`` builds the lines of each action node once, however many of
    the zoom levels show it."""

    @pytest.mark.parametrize("depth", [1, 5, 12])
    def test_action_lines_built_once_per_node(self, depth, tmp_path,
                                              monkeypatch, capsys):
        src = tmp_path / "zoomed.cpp"
        src.write_text(_zoomed(depth))
        trees, built = [], []
        build = activity_ir.build_activity
        action_lines = plantuml_emit._action_lines

        def kept_build(af, *args, **kwargs):
            trees.append((af.max_zoom, build(af, *args, **kwargs)))
            return trees[-1][1]

        def counted_lines(node):
            built.append(node)
            return action_lines(node)

        monkeypatch.setattr(activity_ir, "build_activity", kept_build)
        monkeypatch.setattr(plantuml_emit, "_action_lines", counted_lines)
        code, _ = run_cli("all", str(src), "--out-dir", str(tmp_path / "out"),
                          capsys=capsys)
        assert code == 0
        [(max_zoom, tree)] = trees
        assert max_zoom == 9
        assert len(built) == _count_actions(tree)
        assert len(set(map(id, built))) == len(built)


def _count_actions(nodes):
    count = 0
    for node in nodes:
        if isinstance(node, activity_ir.ActionNode):
            count += 1
        elif isinstance(node, activity_ir.ForkNode):
            count += len(node.actions)
        elif isinstance(node, activity_ir.BranchNode):
            count += sum(_count_actions(arm.body) for arm in node.arms)
        elif isinstance(node, activity_ir.LoopNode):
            count += _count_actions(node.body)
    return count


def _nested_ifs(depth):
    lines = ["void deep(int a) {", "//$ start"]
    lines += [f"//$ [level {k}]\nif (a > {k}) {{" for k in range(depth)]
    lines += ["//$ innermost", "x();"] + ["}"] * depth + ["}"]
    return "\n".join(lines) + "\n"


class TestDeepNesting:
    def run_deep(self, depth, tmp_path, capsys):
        deep = tmp_path / "deep.cpp"
        deep.write_text(_nested_ifs(depth))
        ok = tmp_path / "ok.cpp"
        ok.write_text("void ok() {\n//$ fine\nx();\n}\n")
        out = tmp_path / "out"
        code, err = run_cli("all", str(deep), str(ok), "--out-dir", str(out),
                            capsys=capsys)
        return code, err, out

    def test_too_deep_nesting_warns_and_other_files_still_build(
            self, tmp_path, capsys):
        code, err, out = self.run_deep(1000, tmp_path, capsys)
        assert code == 0
        assert err.count("[nesting-too-deep]") == 1
        assert "descriptions inside it" not in err
        # each description inside the opaque statement is reported at its
        # own line, as one inside a switch body is
        unused = [line.split(":")[1] for line in err.splitlines()
                  if line.endswith("[unused-condition-description]")]
        assert unused == [str(3 + 2 * k) for k in range(cxx_structure.MAX_NESTING + 1, 1000)]
        assert (out / "ok.html").is_file() and (out / "deep.html").is_file()

    def test_nesting_within_the_bound_is_drawn_in_full(self, tmp_path, capsys):
        code, err, out = self.run_deep(100, tmp_path, capsys)
        assert code == 0
        assert "[nesting-too-deep]" not in err
        text = (out / "aux_files" / "deep__deep__zoom0.txt").read_text()
        assert text == ("@startuml\nstart\n:start;\n"
                        + "".join(f"if (level {k}) then (yes)\n"
                                  for k in range(100))
                        + ":innermost;\n" + "endif\n" * 100
                        + "stop\n@enduml\n")


class TestOutDirSelection:
    def test_flag_wins(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FLOWDOC_OUT", str(tmp_path / "env"))
        run_cli("build-db", str(FIXTURES / "lang" / "hello.cpp"),
                "--out-dir", str(tmp_path / "flag"), capsys=capsys)
        assert (tmp_path / "flag" / "hello.flowdb").exists()
        assert not (tmp_path / "env").exists()

    def test_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FLOWDOC_OUT", str(tmp_path / "env"))
        run_cli("build-db", str(FIXTURES / "lang" / "hello.cpp"),
                capsys=capsys)
        assert (tmp_path / "env" / "hello.flowdb").exists()

    def test_default_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("FLOWDOC_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        run_cli("build-db", str(FIXTURES / "lang" / "hello.cpp"),
                capsys=capsys)
        assert (tmp_path / "flowdoc" / "hello.flowdb").exists()


    def test_an_unwritable_index_is_an_io_error(self, tmp_path, capsys):
        """With a regular file as the output directory, each output that
        cannot be written is one io-error that names it, the same on every
        run, and the annotated functions analysed are not reported missing:
        the databases that could not be written still link the calls."""
        out, src = tmp_path / "a_file", FIXTURES / "xlink"
        out.write_text("")
        runs = [run_cli("all", str(src), "--out-dir", str(out), capsys=capsys)
                for _ in range(2)]
        assert runs[0] == runs[1]

        def failed(*names):
            return [f"{out / name}: error: cannot write output: "
                    f"{os.strerror(errno.ENOTDIR)} [io-error]" for name in names]

        assert runs[0] == (1, "".join(line + "\n" for line in [
            *failed("a.flowdb", "b.flowdb", "c.flowdb"),
            *failed("aux_files/a__A__run__zoom0.txt", "aux_files/b__b_init__zoom0.txt",
                    "aux_files/c__c_finish__zoom0.txt"),
            *failed("a.html", "b.html", "c.html", "index.html")]))

    def test_a_database_that_cannot_be_written_still_links(self, tmp_path, capsys):
        """A run merges the databases it writes from memory: a directory in
        the place of one is one io-error, and the calls into it still link."""
        out, src = tmp_path / "out", FIXTURES / "xlink"
        (out / "b.flowdb").mkdir(parents=True)
        code, err = run_cli("all", str(src), "--out-dir", str(out), capsys=capsys)
        assert (code, err) == (1, f"{out / 'b.flowdb'}: error: cannot write output: "
                                  f"{os.strerror(errno.EISDIR)} [io-error]\n")
        assert "[[../b.html#b_init b_init()]]" in (
            out / "aux_files" / "a__A__run__zoom0.txt").read_text()
        assert all(ref.ok for ref in check_links(out))


class TestRenderCmd:
    def test_placeholder_substitution(self, tmp_path, capsys):
        code, err = run_cli(
            "makeflows", str(FIXTURES / "lang" / "hello.cpp"),
            "--out-dir", str(tmp_path),
            "--render-cmd", "cp {input} {input}.rendered", capsys=capsys)
        assert code == 0 and err == ""
        made = list((tmp_path / "aux_files").glob("*.rendered"))
        assert len(made) == 1

    def test_appends_path_without_placeholder(self, tmp_path, capsys):
        # the appended path is the script's $0: the command's last argument
        code, err = run_cli(
            "makeflows", str(FIXTURES / "lang" / "hello.cpp"), "--out-dir", str(tmp_path),
            "--render-cmd", """sh -c 'cp "$0" "$0.rendered"'""", capsys=capsys)
        assert code == 0 and err == ""
        made = list((tmp_path / "aux_files").glob("*.rendered"))
        assert len(made) == 1

    def test_missing_renderer_warns_once(self, tmp_path, capsys):
        code, err = run_cli(
            "makeflows", str(FIXTURES / "lang" / "two_actions.cpp"),
            "--out-dir", str(tmp_path),
            "--render-cmd", "definitely-not-a-real-binary", capsys=capsys)
        assert code == 0
        assert err.count("[render-failed]") == 1
        assert "failed to start" in err

    def test_unbalanced_quote_warns_and_the_pages_follow(self, tmp_path, capsys):
        code, err = run_cli(
            "all", str(FIXTURES / "lang" / "hello.cpp"), "--out-dir", str(tmp_path),
            "--render-cmd", "plantuml 'x", capsys=capsys)
        assert code == 0
        assert err == ("warning: render command failed to start: "
                       "No closing quotation [render-failed]\n")
        assert (tmp_path / "hello.html").is_file()
        assert (tmp_path / "index.html").is_file()

    def test_nonzero_exit_warns_per_diagram(self, tmp_path, capsys):
        code, err = run_cli(
            "makeflows", str(FIXTURES / "lang" / "hello.cpp"),
            "--out-dir", str(tmp_path),
            "--render-cmd", "false", capsys=capsys)
        assert code == 0
        assert "[render-failed]" in err
        assert "status 1" in err

    @pytest.mark.parametrize("status", [1, 0])
    def test_output_that_is_not_utf8_is_read_as_utf8(self, status, tmp_path, capsys):
        # each render prints the byte 0xff, which no UTF-8 text holds
        render = rf"""sh -c 'printf "\377bad\n" >&2; exit {status}' {{input}}"""
        code, err = run_cli("all", str(FIXTURES / "demo"), "--out-dir", str(tmp_path),
                            "--render-cmd", render, capsys=capsys)
        assert code == 0
        assert err.splitlines() == [
            f"warning: render command exited with status 1 for {name}: "
            "\ufffdbad [render-failed]" for name in (
                "aux__VINCIA__shower__zoom0.txt", "aux__VINCIA__shower__zoom1.txt",
                "main__main__zoom0.txt")] * status
        assert sorted(p.name for p in tmp_path.glob("*.html")) == [
            "aux.html", "index.html", "main.html"]

    @staticmethod
    def two_stems(tmp_path):
        """Two sources with two functions each, drawn at zoom 0 and 1."""
        sources = []
        for stem, names in (("one", "fg"), ("two", "hk")):
            src = tmp_path / f"{stem}.cpp"
            src.write_text("".join(
                f"void {n}() {{\n//$ {n} starts\n//$1 {n} detail\nx();\n}}\n"
                for n in names))
            sources.append(str(src))
        return sources

    def test_failures_are_reported_in_diagram_order(self, tmp_path, capsys):
        # fails for every zoom-1 diagram, those of the first stem last to
        # finish, and renders the others
        render = ("sh -c 'case \"$0\" in *one__*zoom1*) sleep 0.3;; esac; "
                  "case \"$0\" in *zoom1*) echo bad >&2; exit 3;; esac; "
                  "cp \"$0\" \"${0%.txt}.svg\"' {input}")
        sources = self.two_stems(tmp_path)
        runs = []
        for out in (tmp_path / "out1", tmp_path / "out2"):
            code, err = run_cli("makeflows", *sources, "--out-dir", str(out),
                                "--render-cmd", render, capsys=capsys)
            assert code == 0
            runs.append([line for line in err.splitlines()
                         if line.endswith("[render-failed]")])
            aux = out / "aux_files"
            assert sorted(p.stem for p in aux.glob("*.svg")) == sorted(
                p.stem for p in aux.glob("*.txt") if "zoom1" not in p.name)
        assert runs[0] == runs[1]
        assert [re.search(r" for (\S+): bad ", line).group(1)
                for line in runs[0]] == [
            "one__f__zoom1.txt", "one__g__zoom1.txt",
            "two__h__zoom1.txt", "two__k__zoom1.txt"]

    def test_renders_overlap(self, tmp_path, capsys):
        if cli._render_workers() < 2:
            pytest.skip("renders overlap only with two or more CPUs")
        # each render waits for another one to have started
        renderer = tmp_path / "wait_for_another.py"
        renderer.write_text(textwrap.dedent("""\
            import sys, time
            from pathlib import Path
            mine = Path(sys.argv[1] + ".started")
            mine.touch()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if any(p != mine for p in mine.parent.glob("*.started")):
                    sys.exit(0)
                time.sleep(0.01)
            sys.exit(1)
            """))
        out = tmp_path / "out"
        code, err = run_cli(
            "makeflows", *self.two_stems(tmp_path), "--out-dir", str(out),
            "--render-cmd",
            f"{shlex.quote(sys.executable)} {shlex.quote(str(renderer))} "
            "{input}", capsys=capsys)
        assert code == 0 and "[render-failed]" not in err
        aux = out / "aux_files"
        assert sorted(p.name for p in aux.glob("*.started")) == sorted(
            p.name + ".started" for p in aux.glob("*.txt"))


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "flowdoc", "all",
         str(FIXTURES / "lang" / "hello.cpp"), "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "hello.html").exists()


def test_version_output(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("flowdoc ")
