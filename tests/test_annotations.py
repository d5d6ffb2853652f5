import re

import pytest
from hypothesis import given, settings, strategies as st

from flowdoc.annotations import MAX_ZOOM, collect
from flowdoc.cxx_structure import CallSite, CodeStream, find_definitions

ACTION, CONDITION, RETURN, CALL = "action", "condition", "return", "call"


def kind(entry):
    """What an entry of collect draws: a highlighted call, an action, or a
    description of a condition or of a return."""
    if isinstance(entry, CallSite):
        return CALL
    if entry.target is None:
        return ACTION
    return RETURN if entry.keyword == "return" else CONDITION


def collect_view(view):
    """The annotations of view, in source order, each function's in turn."""
    return [a for annos in collect(view, find_definitions(view)).values() for a in annos]


def collect_src(src, diags=None):
    return collect_view(CodeStream(src, "t.cpp", diags if diags is not None else []))


def body(*lines):
    return "void f() {\n" + "\n".join(lines) + "\n}\n"


def read(src, diags=None):
    return [(kind(a), a.zoom, a.parallel, a.text) for a in collect_src(src, diags)]


def marker(comment):
    """(zoom, parallel, text) of a standalone comment read as an action, or
    None when it is no annotation."""
    anns = read(body(comment, "x();"))
    assert len(anns) <= 1 and all(a[0] == ACTION for a in anns)
    return anns[0][1:] if anns else None


class TestMarkerGrammar:
    def test_plain_comment_is_not_annotation(self):
        assert marker("// just a note") is None
        assert marker("//not marked") is None

    def test_doxygen_markers_are_not_annotations(self):
        assert marker("/// brief") is None
        assert marker("//! brief") is None

    def test_bare_marker(self):
        assert marker("//$") == (0, False, "")

    def test_text_after_marker(self):
        assert marker("//$ do the thing  ") == (0, False, "do the thing")

    def test_zoom_digits_attached(self):
        assert marker("//$2 fine detail") == (2, False, "fine detail")
        assert marker("//$10 deeper") == (10, False, "deeper")

    def test_digits_after_space_are_text(self):
        assert marker("//$ 1) prepare system of partons") == (
            0, False, "1) prepare system of partons")

    def test_parallel_tag(self):
        assert marker("//$ <parallel> task A") == (0, True, "task A")

    def test_parallel_tag_with_zoom(self):
        assert marker("//$3 <parallel> task B") == (3, True, "task B")

    def test_tag_must_lead_the_text(self):
        assert marker("//$ task <parallel> A") == (0, False, "task <parallel> A")


def annotation(comment, code):
    [ann] = collect_src(body(comment, code))
    return ann


class TestClassify:
    """A marker's kind follows from its line and the lexeme after it."""

    def test_standalone_is_action(self):
        ann = annotation("//$ step", "x();")
        assert (kind(ann), ann.text) == (ACTION, "step")

    def test_postfix_is_call_highlight(self):
        ann = annotation("helper();  //$   ", "")
        assert (kind(ann), ann.callee_text) == (CALL, "helper")

    def test_bracket_before_if_is_condition_desc(self):
        ann = annotation("//$ [first branch]", "if (a) {\nx();\n}")
        assert (kind(ann), ann.text) == (CONDITION, "first branch")

    def test_bracket_before_loop(self):
        for loop in ("for (;;) {}", "while (a) {}", "do {} while (a);"):
            ann = annotation("//$ [for each item]", loop)
            assert (kind(ann), ann.text) == (CONDITION, "for each item")

    def test_bracket_before_return_is_return_desc(self):
        ann = annotation("//$ [negative outcome]", "return 1;")
        assert (kind(ann), ann.text) == (RETURN, "negative outcome")

    def test_orphan_bracket_demotes_to_action(self):
        ann = annotation("//$ [stranded]", "x();")
        assert (kind(ann), ann.text) == (ACTION, "[stranded]")

    def test_empty_brackets_are_an_action(self):
        diags = []
        anns = collect_src(body("//$ [ ]", "if (a) {\nx();\n}"), diags)
        assert [(kind(a), a.text) for a in anns] == [(ACTION, "[ ]")]
        assert diags == []

    def test_action_with_brackets_inside_text(self):
        ann = annotation("//$ use arr[0] as seed", "if (a) {\nx();\n}")
        assert (kind(ann), ann.text) == (ACTION, "use arr[0] as seed")


@pytest.mark.parametrize("zoom", ["100", "100000000", "9" * 5000])
def test_zoom_above_the_bound_is_drawn_at_the_bound(zoom):
    diags = []
    assert read(body(f"//${zoom} deep", "x();"), diags) == [
        (ACTION, MAX_ZOOM, False, "deep")]
    assert [(d.code, d.line) for d in diags] == [("zoom-too-deep", 2)]


# The marker grammar spelled out step by step: the reference for the property
# test below.
def ref_parse_marker(comment_text):
    m = re.match(r"//\$(\d*)", comment_text)
    if m is None:
        return None
    zoom = int(m.group(1)) if m.group(1) else 0
    rest = comment_text[m.end():].lstrip()
    parallel = False
    if rest.startswith("<parallel>"):
        parallel = True
        rest = rest[len("<parallel>"):].lstrip()
    return zoom, parallel, rest.rstrip()


def ref_bracket_payload(text):
    if len(text) >= 2 and text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if inner:
            return inner
    return None


FOLLOWERS = {"x();": None, "if (a) {}": CONDITION,
             "else {}": CONDITION,
             "while (a) {}": CONDITION,
             "do {} while (a);": CONDITION,
             "return 1;": RETURN}
PIECES = st.sampled_from(["\t", "\r", "\x0b", "\x1c", "\x85", "\u2028",
                          "\u3000", " ", "\u0663", "0", "1", "9", "a", "z",
                          "[", "]", "[]", "[ ]", "<parallel>", "<", ">", "$", "/"])


@settings(max_examples=200)
@given(st.lists(PIECES, max_size=12).map("".join), st.sampled_from(sorted(FOLLOWERS)))
def test_collect_reads_markers_as_the_reference_grammar(tail, follower):
    view = CodeStream(body("//$" + tail, follower), "t.cpp", [])
    [tok] = view.markers  # a lone '\r' stays inside the comment
    zoom, parallel, text = ref_parse_marker(tok.text)
    inner = ref_bracket_payload(text)
    expected = FOLLOWERS[follower] if inner is not None else None
    [ann] = collect_view(view)
    if expected is None:
        assert (kind(ann), ann.zoom, ann.parallel, ann.text) == (
            ACTION, min(zoom, MAX_ZOOM), parallel, text)
    else:
        assert (kind(ann), ann.text) == (expected, inner)


class TestCollect:
    def test_source_order(self):
        src = "void f() {\n//$ one\na();\n//$ two\nb();\n}\n"
        anns = collect_src(src)
        assert [a.text for a in anns] == ["one", "two"]
        assert [a.line for a in anns] == [2, 4]

    def test_postfix_on_call_line(self):
        src = "void f() {\nhelper();  //$\n}\n"
        anns = collect_src(src)
        assert [kind(a) for a in anns] == [CALL]

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
        assert kind(anns[0]) == CONDITION
        assert src.startswith("if (x)", anns[0].target)

    def test_another_annotation_blocks_binding(self):
        diags = []
        src = ("void f() {\n"
               "//$ [meant for the if]\n"
               "//$ interloper\n"
               "if (x) {\ny();\n}\n"
               "}\n")
        anns = collect_src(src, diags)
        assert kind(anns[0]) == ACTION
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
        assert kind(anns[0]) == ACTION
        assert any(d.code == "orphan-bracket-annotation" for d in diags)

    def test_desc_before_else_if(self):
        src = ("void f() {\n"
               "if (a) {\nx();\n}\n"
               "//$ [other case]\n"
               "else if (b) {\ny();\n}\n"
               "}\n")
        anns = collect_src(src)
        assert kind(anns[0]) == CONDITION

    def test_desc_before_do_while_trailer(self):
        src = ("void f() {\n"
               "do {\nx();\n}\n"
               "//$ [more data]\n"
               "while (next());\n"
               "}\n")
        anns = collect_src(src)
        assert kind(anns[0]) == CONDITION

    def test_desc_before_return(self):
        src = "int f() {\n//$ [the answer]\nreturn 42;\n}\n"
        anns = collect_src(src)
        assert kind(anns[0]) == RETURN

    def test_annotation_inside_string_is_ignored(self):
        src = 'void f() {\nlog("//$ fake");\n}\n'
        assert collect_src(src) == []

    def test_annotation_inside_block_comment_is_ignored(self):
        src = "void f() {\n/* //$ hidden */\nx();\n}\n"
        assert collect_src(src) == []

    def test_marker_at_end_of_file(self):
        diags = []
        assert collect_src("void f() {\n}\n//$ trailing note", diags) == []
        assert [(d.code, d.line) for d in diags] == [("unplaced-marker", 3)]
