import errno
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdoc.cxx_structure import CallSite
from flowdoc.flowdb import (FlowDb, FlowDbEntry, analyze_source, analyze_stem,
                            load_merge, mangle_anchor, url_quote, url_unquote,
                            write_db)


class TestAnchors:
    def test_scope_separator(self):
        assert mangle_anchor("VINCIA::shower") == "VINCIA__shower"

    def test_plain_name_unchanged(self):
        assert mangle_anchor("main") == "main"

    def test_destructor_tilde(self):
        assert mangle_anchor("Foo::~Foo") == "Foo___Foo"

    def test_template_arguments(self):
        assert mangle_anchor("Box<int>::open") == "Box_int___open"

    def test_result_is_always_word_characters(self):
        for name in ("a::b", "x<y, z*>::w", "~d", "op()"):
            assert mangle_anchor(name)
            assert all(c.isalnum() or c == "_" for c in mangle_anchor(name))


def write_stem(stem, annotated, out):
    """``write_db`` as ``cli.run`` calls it: <stem>.flowdb for <stem>.html."""
    return write_db(out / f"{stem}.flowdb", out / f"{stem}.html", annotated, {})


def write(tmp_path, name, text):
    p = tmp_path / name
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text, encoding="utf-8")
    return p


class TestBuildDb:
    def test_entry_per_annotated_function(self, tmp_path):
        src = write(tmp_path, "widget.cpp",
                    "void a() {\n//$ first\nx();\n}\n"
                    "void b() {\ny();\n}\n"
                    "void c() {\n//$2 deep\nz();\n}\n")
        db_path = write_stem("widget", analyze_stem([src], []), tmp_path / "out")
        assert db_path == tmp_path / "out" / "widget.flowdb"
        content = db_path.read_text(encoding="utf-8")
        assert content == ("a\twidget.html#a\t0\n"
                           "c\twidget.html#c\t2\n")

    def test_no_annotations_gives_empty_db(self, tmp_path):
        src = write(tmp_path, "plain.cpp", "int f() {\nreturn 0;\n}\n")
        db_path = write_stem("plain", analyze_stem([src], []), tmp_path / "out")
        assert db_path.read_text(encoding="utf-8") == ""

    def test_lines_sorted_and_lf_terminated(self, tmp_path):
        src = write(tmp_path, "z.cpp",
                    "void zeta() {\n//$ z\nx();\n}\n"
                    "void alpha() {\n//$ a\nx();\n}\n")
        content = write_stem("z", analyze_stem([src], []),
                             tmp_path / "out").read_text(encoding="utf-8")
        lines = content.splitlines()
        assert lines == sorted(lines)
        assert content.endswith("\n")
        assert "\r" not in content

    def test_page_field_is_the_url_the_links_use(self, tmp_path):
        # a tab would split the line; '#' would end the page name
        src = write(tmp_path, "a\tb#c.cpp", "void f() {\n//$ act\nx();\n}\n")
        content = write_stem("a\tb#c", analyze_stem([src], []),
                             tmp_path / "out").read_text(encoding="utf-8")
        assert content == "f\ta%09b%23c.html#f\t0\n"
        diags = []
        assert load_merge(tmp_path / "out", diags, {}).entries["f"].html_path == (
            "a%09b%23c.html")
        assert diags == []

    def test_unreadable_source_reports_error(self, tmp_path):
        diags = []
        assert analyze_stem([tmp_path / "missing.cpp"], diags) is None
        assert any(d.code == "io-error" for d in diags)

    def test_overload_anchors_deduplicated(self, tmp_path):
        src = write(tmp_path, "over.cpp",
                    "void f(int a) {\n//$ ints\nx();\n}\n"
                    "void f(double a) {\n//$ doubles\nx();\n}\n")
        anchors = [af.anchor for af in analyze_source(src, [], {})]
        assert anchors == ["f", "f__2"]

    @pytest.mark.parametrize("heads,expected", [
        (("g()", "g(double)", "g__2()"), ["g", "g__2", "g__2__2"]),
        (("g__2()", "g()", "g(double)"), ["g__2", "g", "g__3"]),
    ])
    def test_an_anchor_is_unique_on_its_page(self, tmp_path, heads, expected):
        # a suffixed overload never takes the anchor of a function so named
        src = write(tmp_path, "m.cpp", "".join(
            f"void {head} {{\n//$ {head}\nx();\n}}\n" for head in heads))
        assert [af.anchor for af in analyze_source(src, [], {})] == expected

    def test_sources_sharing_a_stem_are_unioned(self, tmp_path):
        cpp = write(tmp_path, "box.cpp",
                    "void Box::pack() {\n//$ pack it\nx();\n}\n")
        hdr = write(tmp_path, "box.h",
                    "class Box {\npublic:\n"
                    "    int size() const {\n//$ measure\nreturn n;\n}\n"
                    "};\n")
        content = write_stem("box", analyze_stem([cpp, hdr], []),
                             tmp_path / "out").read_text(encoding="utf-8")
        assert content == ("Box::pack\tbox.html#Box__pack\t0\n"
                           "Box::size\tbox.html#Box__size\t0\n")

    def test_plain_header_cannot_clobber_its_cpp(self, tmp_path):
        cpp = write(tmp_path, "box.cpp",
                    "void Box::pack() {\n//$ pack it\nx();\n}\n")
        hdr = write(tmp_path, "box.h", "class Box {\npublic:\nvoid pack();\n};\n")
        content = write_stem("box", analyze_stem([cpp, hdr], []),
                             tmp_path / "out").read_text(encoding="utf-8")
        assert "Box::pack" in content

    def test_anchor_dedup_spans_the_stem_group(self, tmp_path):
        one = write(tmp_path, "g.cpp", "void g() {\n//$ a\nx();\n}\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        two = write(sub, "g.cpp", "void g() {\n//$ b\nx();\n}\n")
        content = write_stem("g", analyze_stem([one, two], []),
                             tmp_path / "out").read_text(encoding="utf-8")
        assert content == ("g\tg.html#g\t0\n"
                           "g\tg.html#g__2\t0\n")


def test_each_analysis_diagnostic_keeps_its_file_and_line(tmp_path):
    """Every layer reports at the file and line of the source it reads."""
    sources = [write(tmp_path, "x.h", "void h() {\n//$ act\n"
                                      "  int a = 1;  //$\n  while x;\n"
                                      "  s = \"open;\n}\n}\n"),
               write(tmp_path, "x.cpp", "\n\nvoid c() {\n//$ act\n  while y;\n"
                                        "  c = \"open;\n  int b = 2;  //$\n}\n}\n")]
    diags = []
    assert [af.fn.qualified_name for af in analyze_stem(sources, diags)] == ["h", "c"]
    h, c = (str(src) for src in sources)
    assert [(d.file, d.line, d.code) for d in diags] == [
        (h, 5, "unterminated-string"), (h, 7, "unbalanced-braces"),
        (h, 3, "dangling-call-highlight"), (h, 4, "malformed-control-header"),
        (c, 6, "unterminated-string"), (c, 9, "unbalanced-braces"),
        (c, 7, "dangling-call-highlight"), (c, 5, "malformed-control-header")]


class TestLoadMerge:
    def test_round_trip(self, tmp_path):
        src = write(tmp_path, "m.cpp", "void go() {\n//$1 step\nx();\n}\n")
        out = tmp_path / "out"
        write_stem("m", analyze_stem([src], []), out)
        db = load_merge(out, [], {})
        assert len(db.entries) == 1
        entry = db.entries["go"]
        assert entry == FlowDbEntry("go", "m.html", "go", 1)

    def test_malformed_lines_skipped_with_warning(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "bad.flowdb").write_text(
            "good\tbad.html#good\t0\n"
            "missing fields\n"
            "neg\tbad.html#neg\t-1\n"
            "noanchor\tbad.html\t0\n"
            # a zoom is 0-99 in ASCII digits, and url_quote escapes '#' in a page
            "big\tbad.html#big\t100\n"
            "long\tbad.html#long\t" + "9" * 5000 + "\n"
            "arabic\tbad.html#arabic\t\u0663\n"
            "hash\tb#ad.html#hash\t0\n",
            encoding="utf-8")
        diags = []
        db = load_merge(out, diags, {})
        assert set(db.entries) == {"good"}
        assert [d.line for d in diags if d.code == "malformed-db-line"] == [2, 3, 4, 5, 6, 7, 8]

    def test_a_database_not_in_utf8_is_an_io_error(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "a.flowdb").write_bytes("caf\xe9\ta.html#caf\t0\n".encode("latin-1"))
        (out / "b.flowdb").write_text("good\tb.html#good\t0\n", encoding="utf-8")
        diags = []
        db = load_merge(out, diags, {})
        assert set(db.entries) == {"good"}
        assert [(d.code, d.file) for d in diags] == [("io-error", str(out / "a.flowdb"))]

    def test_duplicate_names_keep_first_page(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "a.flowdb").write_text("dup\tzz.html#dup\t0\n", encoding="utf-8")
        (out / "b.flowdb").write_text("dup\taa.html#dup\t1\n", encoding="utf-8")
        diags = []
        db = load_merge(out, diags, {})
        assert db.entries["dup"].html_path == "aa.html"
        assert [d.message for d in diags if d.code == "duplicate-definition"] == [
            "'dup' is documented on more than one page; links go to aa.html"]

    def test_overloads_on_one_page_are_reported_as_such(self, tmp_path):
        out = tmp_path / "out"
        src = write(tmp_path, "o.cpp", "void f(int a) {\n//$ one\na++;\n}\n"
                                       "void f(double b) {\n//$ two\nb++;\n}\n")
        write_stem("o", analyze_stem([src], []), out)
        diags = []
        db = load_merge(out, diags, {})
        assert db.entries["f"].anchor == "f"
        assert [(d.code, d.line, d.message) for d in diags] == [
            ("duplicate-definition", 2,
             "'f' is documented more than once on o.html; links go to o.html#f")]

    def test_every_entry_named_flowdb_is_read_as_glob_lists_it(self, tmp_path):
        """The entries ``Path(out).glob('*.flowdb')`` lists: a hidden one is
        read, a directory and a dangling symlink are each an io-error, and a
        name is matched with its case. A directory that is missing, or not a
        directory, holds no database."""
        out = tmp_path / "out"
        out.mkdir()
        (out / ".x.flowdb").write_text("f\tx.html#f\t0\n", encoding="utf-8")
        (out / "X.FLOWDB").write_text("not a database line\n", encoding="utf-8")
        (out / "d.flowdb").mkdir()
        (out / "dangle.flowdb").symlink_to(tmp_path / "missing")
        diags = []
        assert load_merge(out, diags, {}).entries == {"f": FlowDbEntry("f", "x.html", "f", 0)}
        assert [(d.code, d.file, d.message) for d in diags] == [
            ("io-error", str(out / name), f"cannot read database: [Errno {code}] "
                                          f"{os.strerror(code)}: '{out / name}'")
            for name, code in (("d.flowdb", errno.EISDIR), ("dangle.flowdb", errno.ENOENT))]
        for no_dir in (tmp_path / "missing", out / ".x.flowdb"):
            assert load_merge(no_dir, diags, {}).entries == {}
        assert len(diags) == 2

    def test_merge_across_files(self, tmp_path):
        out = tmp_path / "out"
        for name, body in (("one.cpp", "void f1() {\n//$ a\nx();\n}\n"),
                           ("two.cpp", "void f2() {\n//$ b\nx();\n}\n")):
            src = write(tmp_path, name, body)
            write_stem(src.stem, analyze_stem([src], []), out)
        db = load_merge(out, [], {})
        assert set(db.entries) == {"f1", "f2"}


@given(st.text())
def test_url_unquote_inverts_url_quote(name):
    assert url_unquote(url_quote(name)) == name


def call(name, text=None, line=1):
    return CallSite(text or name, name, line, 0)


class TestResolve:
    def db(self):
        return FlowDb({
            "VINCIA::shower": FlowDbEntry("VINCIA::shower", "aux.html",
                                          "VINCIA__shower", 1),
            "main": FlowDbEntry("main", "main.html", "main", 0),
            "util::trim": FlowDbEntry("util::trim", "str.html", "util__trim", 0),
            "fmt::trim": FlowDbEntry("fmt::trim", "fmt.html", "fmt__trim", 0),
        })

    def test_exact_match(self):
        entry = self.db().resolve(call("VINCIA::shower"), "f.cpp", [])
        assert entry == self.db().entries["VINCIA::shower"]

    def test_unique_suffix_match(self):
        entry = self.db().resolve(call("shower", "vinciaOBJ->shower"), "f.cpp", [])
        assert entry == self.db().entries["VINCIA::shower"]

    def test_unknown_name_is_none(self):
        assert self.db().resolve(call("nonexistent"), "f.cpp", []) is None

    def test_ambiguous_suffix_warns_and_breaks_link(self):
        diags = []
        assert self.db().resolve(call("trim"), "f.cpp", diags) is None
        assert [d.code for d in diags] == ["ambiguous-callee"]

    def test_exact_match_beats_suffix_ambiguity(self):
        db = FlowDb(dict(self.db().entries,
                         trim=FlowDbEntry("trim", "top.html", "trim", 0)))
        diags = []
        entry = db.resolve(call("trim"), "f.cpp", diags)
        assert (entry.html_path, entry.anchor) == ("top.html", "trim")
        assert diags == []


def resolve_events(n):
    """The trace events of one resolve of 'run' among n 'n{i}::run' entries."""
    db = FlowDb({f"n{i}::run": FlowDbEntry(f"n{i}::run", "p.html", f"n{i}__run", 0)
                 for i in range(n)})
    events, diags = 0, []

    def count(frame, event, arg):
        nonlocal events
        events += 1
        return count

    before = sys.gettrace()
    sys.settrace(count)
    try:
        db.resolve(call("run"), "f.cpp", diags)
    finally:
        sys.settrace(before)
    assert [d.code for d in diags] == ["ambiguous-callee"]
    return events


def test_resolve_does_bounded_work_however_many_names_end_alike():
    # a lookup, not a scan of every same-named definition
    assert resolve_events(1000) <= 1.2 * resolve_events(100)


_NAME = st.text(alphabet="ab:<>~", min_size=1, max_size=8)


@settings(max_examples=300)
@given(_NAME, st.lists(_NAME, max_size=6), st.lists(_NAME, max_size=3))
def test_indexed_resolve_matches_a_linear_scan(wanted, others, prefixes):
    # names ending in '::' + wanted make suffix hits and ambiguity common
    names = list(dict.fromkeys(others + [p + "::" + wanted for p in prefixes]))
    entries = {name: FlowDbEntry(name, f"p{k}.html", "a", 0)
               for k, name in enumerate(names)}
    diags = []
    entry = FlowDb(entries).resolve(call(wanted, line=7), "f.cpp", diags)
    # exact name first, then a unique '::' suffix match
    hits = [name for name in names if name.endswith("::" + wanted)]
    found = wanted if wanted in entries else hits[0] if len(hits) == 1 else None
    assert entry == (entries[found] if found is not None else None)
    ambiguous = found is None and len(hits) > 1
    assert [(d.code, d.file, d.line) for d in diags] == (
        [("ambiguous-callee", "f.cpp", 7)] if ambiguous else [])


@settings(max_examples=200)
@given(st.lists(
    st.tuples(
        st.text(alphabet="abcxyz_:<>~", min_size=1, max_size=12).filter(
            lambda s: "\t" not in s and s.strip()),
        st.integers(min_value=0, max_value=9)),
    max_size=8))
def test_db_write_parse_round_trip(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("db")
    seen = {}
    for name, zoom in rows:
        seen.setdefault(name, zoom)
    lines = sorted(f"{name}\tpage.html#{mangle_anchor(name) or 'x'}\t{zoom}\n"
                   for name, zoom in seen.items())
    (tmp / "gen.flowdb").write_text("".join(lines), encoding="utf-8")
    diags = []
    db = load_merge(tmp, diags, {})
    ok_names = {n for n in seen if mangle_anchor(n)}
    assert set(db.entries) == ok_names
    for name in ok_names:
        assert db.entries[name].max_zoom == seen[name]
