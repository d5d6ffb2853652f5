import html

import pytest
from hypothesis import given, strategies as st

from flowdoc.cxx_structure import FunctionDef, Stmt, StmtKind
from flowdoc.flowdb import AnnotatedFunction, FlowDb, FlowDbEntry
from flowdoc.html_emit import _escape, emit_index, emit_page

from conftest import check_links

TEXT = "@startuml\nstart\n:x;\nstop\n@enduml\n"


def sample_func(anchor="main", zooms=(0,), text=TEXT, signature=None):
    """A page entry: the function record and its diagram text per zoom."""
    name = anchor.replace("__", "::")
    fn = FunctionDef(name, signature or f"int {anchor}()", 0, 1, "t.cpp")
    body = Stmt(StmtKind.BLOCK, (0, 1))
    return AnnotatedFunction(fn, anchor, (), len(zooms) - 1, body), [text] * len(zooms)


def write_page(out, stem, funcs, foreign=()):
    """``emit_page`` as ``cli.run`` calls it: <stem>.html in out, each diagram
    at aux_files/<stem>__<anchor>__zoom<k>.txt, owned unless named in foreign."""
    aux = out / "aux_files"
    return emit_page(out / f"{stem}.html", stem, [
        (af, [(aux / name, text, name not in foreign) for k, text in enumerate(texts)
              for name in [f"{stem}__{af.anchor}__zoom{k}.txt"]])
        for af, texts in funcs])


@given(st.text(alphabet="&<>\"'a;# \n\u00e9", max_size=40) | st.text())
def test_escape_equals_html_escape(text):
    assert _escape(text) == html.escape(text, quote=True)


class TestPage:
    def test_page_path_and_skeleton(self, tmp_path):
        page = write_page(tmp_path, "main", [sample_func()])
        assert page == tmp_path / "main.html"
        text = page.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "<title>main</title>" in text
        assert '<nav><a href="index.html">index</a></nav>' in text
        assert "<h1>main</h1>" in text

    def test_function_section_ids(self, tmp_path):
        text = write_page(tmp_path, "main", [sample_func(zooms=(0, 1))]).read_text()
        assert '<h2 id="main">main</h2>' in text
        assert '<div class="zoom" id="main__zoom0">' in text
        assert '<div class="zoom" id="main__zoom1">' in text

    def test_svg_object_with_text_fallback(self, tmp_path):
        text = write_page(tmp_path, "main", [sample_func()]).read_text()
        assert ('<object type="image/svg+xml" '
                'data="aux_files/main__main__zoom0.svg">') in text
        assert "<pre>@startuml\nstart\n:x;\nstop\n@enduml\n</pre>" in text
        assert "<summary>PlantUML source</summary>" in text

    def test_a_diagram_another_stem_owns_shows_only_its_text(self, tmp_path):
        text = write_page(tmp_path, "main", [sample_func(zooms=(0, 1))],
                          foreign={"main__main__zoom1.txt"}).read_text()
        assert 'data="aux_files/main__main__zoom0.svg"' in text
        assert "zoom1.svg" not in text
        assert text.count("<pre>") == 4

    def test_signature_collapsed_and_escaped(self, tmp_path):
        fn = sample_func("ns__f", signature="std::vector<int>\nns::f ()")
        text = write_page(tmp_path, "a", [fn]).read_text()
        assert "<code>std::vector&lt;int&gt; ns::f ()</code>" in text

    def test_diagram_content_html_escaped(self, tmp_path):
        fn = sample_func(text="@startuml\nstart\n:a < b & c;\nstop\n@enduml\n")
        text = write_page(tmp_path, "main", [fn]).read_text()
        assert ":a &lt; b &amp; c;" in text

    def test_rewrite_is_idempotent(self, tmp_path):
        first = write_page(tmp_path, "main", [sample_func()]).read_bytes()
        second = write_page(tmp_path, "main", [sample_func()]).read_bytes()
        assert first == second


class TestIndex:
    def db(self):
        return FlowDb({
            "main": FlowDbEntry("main", "main.html", "main", 0),
            "VINCIA::shower": FlowDbEntry("VINCIA::shower", "aux.html",
                                          "VINCIA__shower", 2),
            "VINCIA::init": FlowDbEntry("VINCIA::init", "aux.html",
                                        "VINCIA__init", 0)})

    def test_groups_sorted_by_page(self, tmp_path):
        text = emit_index(self.db(), tmp_path / "index.html").read_text()
        assert text.index('href="aux.html"') < text.index('href="main.html"')

    def test_entries_sorted_within_group(self, tmp_path):
        text = emit_index(self.db(), tmp_path / "index.html").read_text()
        assert text.index("VINCIA::init") < text.index("VINCIA::shower")

    def test_zoom_ranges(self, tmp_path):
        text = emit_index(self.db(), tmp_path / "index.html").read_text()
        assert ">main</a> (zoom 0)<" in text
        assert ">VINCIA::shower</a> (zoom 0&ndash;2)<" in text

    def test_anchor_links(self, tmp_path):
        text = emit_index(self.db(), tmp_path / "index.html").read_text()
        assert 'href="aux.html#VINCIA__shower"' in text

    def test_page_field_is_the_href_and_its_name_the_title(self, tmp_path):
        db = FlowDb({"f": FlowDbEntry("f", "a%09b%23c.html", "f", 0)})
        text = emit_index(db, tmp_path / "index.html").read_text()
        assert '<h2><a href="a%09b%23c.html">a\tb#c.html</a></h2>' in text
        assert '<li><a href="a%09b%23c.html#f">f</a>' in text

    def test_empty_db_notice(self, tmp_path):
        text = emit_index(FlowDb({}), tmp_path / "index.html").read_text()
        assert "No annotated functions were found." in text


class TestCheckLinks:
    def write_out(self, root, diagram_target="../aux.html#VINCIA__shower"):
        main_text = ("@startuml\nstart\n:call\n"
                     f"[[{diagram_target} VINCIA::shower()]];\nstop\n@enduml\n")
        write_page(root, "aux", [sample_func("VINCIA__shower")])
        write_page(root, "main", [sample_func("main", text=main_text)])
        emit_index(FlowDb({
            "main": FlowDbEntry("main", "main.html", "main", 0),
            "VINCIA::shower": FlowDbEntry("VINCIA::shower", "aux.html",
                                          "VINCIA__shower", 0)}), root / "index.html")
        aux = root / "aux_files"
        aux.mkdir(exist_ok=True)
        (aux / "main__main__zoom0.txt").write_text(main_text)
        (aux / "aux__VINCIA__shower__zoom0.txt").write_text(TEXT)

    def test_all_resolved_on_consistent_tree(self, tmp_path):
        self.write_out(tmp_path)
        refs = check_links(tmp_path)
        assert all(r.ok for r in refs)
        assert len(refs) >= 5

    def test_diagram_links_are_checked(self, tmp_path):
        self.write_out(tmp_path)
        sources = {r.source for r in check_links(tmp_path)}
        assert "aux_files/main__main__zoom0.txt" in sources

    def test_broken_anchor_counted(self, tmp_path):
        self.write_out(tmp_path, diagram_target="../aux.html#nope")
        broken = [r for r in check_links(tmp_path) if not r.ok]
        assert [r.target for r in broken] == ["../aux.html#nope"]

    def test_missing_page_counted(self, tmp_path):
        self.write_out(tmp_path, diagram_target="../gone.html#x")
        assert sum(not r.ok for r in check_links(tmp_path)) == 1

    def test_links_a_browser_reads_elsewhere_are_broken(self, tmp_path):
        # "std:" is a scheme, and a backslash is a slash, so a directory
        self.write_out(tmp_path)
        (tmp_path / "std:vec.html").write_text("<p></p>")
        (tmp_path / "a\\b.html").write_text("<p></p>")
        extra = tmp_path / "main.html"
        extra.write_text(extra.read_text().replace(
            "</body>", '<a href="std:vec.html">s</a><a href="a\\b.html">a</a></body>'))
        broken = [r.target for r in check_links(tmp_path) if not r.ok]
        assert broken == ["std:vec.html", "a\\b.html"]

    def test_external_links_ignored(self, tmp_path):
        self.write_out(tmp_path)
        extra = tmp_path / "main.html"
        extra.write_text(extra.read_text().replace(
            "</body>", '<a href="https://example.com/x">ext</a></body>'))
        assert all("example.com" not in r.target
                   for r in check_links(tmp_path))

    def test_images_are_checked(self, tmp_path):
        self.write_out(tmp_path)
        images = [r for r in check_links(tmp_path) if r.target.endswith(".svg")]
        assert images == [
            ("aux.html", "aux_files/aux__VINCIA__shower__zoom0.svg", True),
            ("main.html", "aux_files/main__main__zoom0.svg", True)]

    @pytest.mark.parametrize("data, diagram", [
        ("aux_files/gone.svg", None),
        ("aux_files/main__main__zoom0.txt", None),
        ("main__main__zoom0.svg", None),
        ("../aux_files/main__main__zoom0.svg", None),
        ("aux_files/a?b.svg", "a?b.txt"),
        # a backslash is a slash: the directory aux_files/back/
        ("aux_files/back\\slash.svg", "back\\slash.txt")])
    def test_an_image_that_names_no_diagram_is_broken(self, data, diagram, tmp_path):
        self.write_out(tmp_path)
        if diagram:
            (tmp_path / "aux_files" / diagram).write_text(TEXT)
        page = tmp_path / "main.html"
        page.write_text(page.read_text().replace(
            'data="aux_files/main__main__zoom0.svg"', f'data="{data}"'))
        assert [r.target for r in check_links(tmp_path) if not r.ok] == [data]

    def test_a_rendered_tree_needs_each_svg(self, tmp_path):
        self.write_out(tmp_path)
        (tmp_path / "aux_files" / "main__main__zoom0.svg").write_text("<svg/>")
        assert all(r.ok for r in check_links(tmp_path))
        broken = [r.target for r in check_links(tmp_path, rendered=True) if not r.ok]
        assert broken == ["aux_files/aux__VINCIA__shower__zoom0.svg"]
