import re
import shlex
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from flowdoc import activity_ir, cli, cxx_structure, flowdb, plantuml_emit
from flowdoc.cli import main

from conftest import FIXTURES, GOLDEN


def run_cli(*argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.err


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

    def test_makeflows_without_db_still_works(self, tmp_path, capsys):
        code, err = run_cli("makeflows", *self.demo_sources(),
                            "--out-dir", str(tmp_path), capsys=capsys)
        assert code == 0
        assert "[no-link]" in err  # cross link needs build-db first


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

        def counted_init(view, tokens):
            lexes.append(view)
            init(view, tokens)

        def counted_build(af, *args, **kwargs):
            builds[(Path(af.fn.file).stem, af.anchor)] += 1
            return build(af, *args, **kwargs)

        def counted_render(tree):
            renders.append(tree)
            return render(tree)

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
        code, err = run_cli(
            "makeflows", str(FIXTURES / "lang" / "hello.cpp"),
            "--out-dir", str(tmp_path), "--render-cmd", "ls", capsys=capsys)
        assert code == 0 and err == ""

    def test_missing_renderer_warns_once(self, tmp_path, capsys):
        code, err = run_cli(
            "makeflows", str(FIXTURES / "lang" / "two_actions.cpp"),
            "--out-dir", str(tmp_path),
            "--render-cmd", "definitely-not-a-real-binary", capsys=capsys)
        assert code == 0
        assert err.count("[render-failed]") == 1
        assert "failed to start" in err

    def test_nonzero_exit_warns_per_diagram(self, tmp_path, capsys):
        code, err = run_cli(
            "makeflows", str(FIXTURES / "lang" / "hello.cpp"),
            "--out-dir", str(tmp_path),
            "--render-cmd", "false", capsys=capsys)
        assert code == 0
        assert "[render-failed]" in err
        assert "status 1" in err

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
