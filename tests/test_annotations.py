from flowdoc.annotations import (AnnotationKind, classify, collect,
                                 parse_marker)
from flowdoc.cxx_structure import CodeStream
from flowdoc.scanner import Token, TokenKind, scan


def collect_src(src, diags=None):
    return collect(CodeStream(scan(src)), "t.cpp",
                   diags if diags is not None else [])


class TestMarkerGrammar:
    def test_plain_comment_is_not_annotation(self):
        assert parse_marker("// just a note") is None
        assert parse_marker("//not marked") is None

    def test_doxygen_markers_are_not_annotations(self):
        assert parse_marker("/// brief") is None
        assert parse_marker("//! brief") is None

    def test_bare_marker(self):
        assert parse_marker("//$") == (0, False, "")

    def test_text_after_marker(self):
        assert parse_marker("//$ do the thing  ") == (0, False, "do the thing")

    def test_zoom_digits_attached(self):
        assert parse_marker("//$2 fine detail") == (2, False, "fine detail")
        assert parse_marker("//$10 deeper") == (10, False, "deeper")

    def test_digits_after_space_are_text(self):
        zoom, parallel, text = parse_marker("//$ 1) prepare system of partons")
        assert zoom == 0
        assert text == "1) prepare system of partons"

    def test_parallel_tag(self):
        assert parse_marker("//$ <parallel> task A") == (0, True, "task A")

    def test_parallel_tag_with_zoom(self):
        assert parse_marker("//$3 <parallel> task B") == (3, True, "task B")

    def test_tag_must_lead_the_text(self):
        zoom, parallel, text = parse_marker("//$ task <parallel> A")
        assert not parallel
        assert text == "task <parallel> A"


def tok(text, line=1):
    return Token(TokenKind.LINE_COMMENT, text, line, 0)


class TestClassify:
    def test_standalone_is_action(self):
        ann = classify(tok("//$ step"), "other", standalone=True)
        assert ann.kind is AnnotationKind.ACTION
        assert ann.text == "step"

    def test_postfix_is_call_highlight(self):
        ann = classify(tok("//$   "), None, standalone=False)
        assert ann.kind is AnnotationKind.CALL_HIGHLIGHT
        assert ann.text == ""

    def test_bracket_before_if_is_condition_desc(self):
        ann = classify(tok("//$ [first branch]"), "if", standalone=True)
        assert ann.kind is AnnotationKind.CONDITION_DESC
        assert ann.text == "first branch"

    def test_bracket_before_loop(self):
        ann = classify(tok("//$ [for each item]"), "loop", standalone=True)
        assert ann.kind is AnnotationKind.CONDITION_DESC

    def test_bracket_before_return_is_return_desc(self):
        ann = classify(tok("//$ [negative outcome]"), "return", standalone=True)
        assert ann.kind is AnnotationKind.RETURN_DESC
        assert ann.text == "negative outcome"

    def test_orphan_bracket_demotes_to_action(self):
        ann = classify(tok("//$ [stranded]"), "other", standalone=True)
        assert ann.kind is AnnotationKind.ACTION
        assert ann.text == "[stranded]"

    def test_action_with_brackets_inside_text(self):
        ann = classify(tok("//$ use arr[0] as seed"), "if", standalone=True)
        assert ann.kind is AnnotationKind.ACTION


class TestCollect:
    def test_source_order(self):
        src = "void f() {\n//$ one\na();\n//$ two\nb();\n}\n"
        anns = collect_src(src)
        assert [a.text for a in anns] == ["one", "two"]
        assert [a.line for a in anns] == [2, 4]

    def test_postfix_on_call_line(self):
        src = "void f() {\nhelper();  //$\n}\n"
        anns = collect_src(src)
        assert [a.kind for a in anns] == [AnnotationKind.CALL_HIGHLIGHT]

    def test_postfix_without_call_is_dropped_with_warning(self):
        diags = []
        src = "void f() {\nint x = 1;  //$\n}\n"
        anns = collect_src(src, diags)
        assert anns == []
        assert [d.code for d in diags] == ["dangling-call-highlight"]

    def test_binding_skips_blank_lines_and_comments(self):
        src = ("void f() {\n"
               "//$ [worth checking]\n"
               "\n"
               "// an aside\n"
               "/* block */\n"
               "#define X 1\n"
               "if (x) {\n//$ inside\ny();\n}\n"
               "}\n")
        anns = collect_src(src)
        assert anns[0].kind is AnnotationKind.CONDITION_DESC
        assert anns[0].target is not None

    def test_another_annotation_blocks_binding(self):
        diags = []
        src = ("void f() {\n"
               "//$ [meant for the if]\n"
               "//$ interloper\n"
               "if (x) {\ny();\n}\n"
               "}\n")
        anns = collect_src(src, diags)
        assert anns[0].kind is AnnotationKind.ACTION
        assert anns[0].text == "[meant for the if]"
        assert any(d.code == "orphan-bracket-annotation" for d in diags)

    def test_intervening_code_breaks_binding(self):
        diags = []
        src = ("void f() {\n"
               "//$ [lost]\n"
               "x = 1;\n"
               "if (x) {\ny();\n}\n"
               "}\n")
        anns = collect_src(src, diags)
        assert anns[0].kind is AnnotationKind.ACTION
        assert any(d.code == "orphan-bracket-annotation" for d in diags)

    def test_desc_before_else_if(self):
        src = ("void f() {\n"
               "if (a) {\nx();\n}\n"
               "//$ [other case]\n"
               "else if (b) {\ny();\n}\n"
               "}\n")
        anns = collect_src(src)
        assert anns[0].kind is AnnotationKind.CONDITION_DESC

    def test_desc_before_do_while_trailer(self):
        src = ("void f() {\n"
               "do {\nx();\n}\n"
               "//$ [more data]\n"
               "while (next());\n"
               "}\n")
        anns = collect_src(src)
        assert anns[0].kind is AnnotationKind.CONDITION_DESC

    def test_desc_before_return(self):
        src = "int f() {\n//$ [the answer]\nreturn 42;\n}\n"
        anns = collect_src(src)
        assert anns[0].kind is AnnotationKind.RETURN_DESC

    def test_annotation_inside_string_is_ignored(self):
        src = 'void f() {\nlog("//$ fake");\n}\n'
        assert collect_src(src) == []

    def test_annotation_inside_block_comment_is_ignored(self):
        src = "void f() {\n/* //$ hidden */\nx();\n}\n"
        assert collect_src(src) == []

    def test_marker_at_end_of_file(self):
        anns = collect_src("void f() {\n}\n//$ trailing note")
        assert [a.kind for a in anns] == [AnnotationKind.ACTION]
