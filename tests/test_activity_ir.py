import pytest

from flowdoc.activity_ir import (ActionNode, BranchNode, ForkNode, LoopNode,
                                 StopNode, build_activity, project)
from flowdoc.annotations import collect
from flowdoc.cxx_structure import CallSite, CodeStream, find_definitions
from flowdoc.flowdb import (FlowDb, FlowDbEntry, analyze_source,
                            annotated_functions)

from conftest import FIXTURES
from test_cli import _NOISY, _nested_ifs, _zoomed


def annotated(src, diags):
    """The first function of src, if annotated, with its statement tree."""
    view = CodeStream(src, "t.cpp", diags)
    defs = find_definitions(view)
    held = collect(view, defs)
    afs = annotated_functions(view, defs, {0: held[0]} if 0 in held else {}, {})
    return afs[0] if afs else None


def build(src, db=None, diags=None):
    diags = diags if diags is not None else []
    af = annotated(src, diags)
    return None if af is None else build_activity(af, db or FlowDb({}), diags)


def shape(nodes):
    out = []
    for n in nodes:
        if isinstance(n, ActionNode):
            out.append(("action", n.text))
        elif isinstance(n, BranchNode):
            out.append(("branch", [(a.label, shape(a.body)) for a in n.arms]))
        elif isinstance(n, LoopNode):
            out.append(("loop", n.label, shape(n.body)))
        elif isinstance(n, ForkNode):
            out.append(("fork", shape(n.actions)))
        elif isinstance(n, StopNode):
            out.append(("stop", n.text))
    return out


class TestFusion:
    def test_no_annotations_gives_no_tree(self):
        assert build("void f() {\nx();\n}\n") is None

    def test_single_action_with_implicit_stop(self):
        tree = build("void f() {\n//$ step one\nx();\ny();\n}\n")
        assert shape(tree) == [("action", "step one"), ("stop", None)]

    def test_statements_before_first_action_are_invisible(self):
        tree = build("void f() {\nint a = 0;\n//$ visible\nx();\n}\n")
        assert shape(tree) == [("action", "visible"), ("stop", None)]

    def test_consecutive_actions(self):
        tree = build("void f() {\n//$ one\nx();\n//$ two\ny();\n}\n")
        assert shape(tree) == [("action", "one"), ("action", "two"),
                               ("stop", None)]

    def test_return_becomes_stop(self):
        tree = build("int f() {\n//$ work\nx();\nreturn 0;\n}\n")
        assert shape(tree) == [("action", "work"), ("stop", None)]

    def test_return_description(self):
        tree = build("int f() {\n//$ last action\nx();\n"
                     "//$ [return value]\nreturn v;\n}\n")
        assert shape(tree) == [("action", "last action"),
                               ("stop", "return value")]

    def test_empty_statements_and_a_bare_block_keep_the_order(self):
        tree = build("void f() {\n//$ one\nx();\n;\n{\n//$ two\ny();\n}\n;\n"
                     "//$ three\nz();\n}\n")
        assert shape(tree) == [("action", "one"), ("action", "two"),
                               ("action", "three"), ("stop", None)]

    def test_mid_function_return_keeps_final_stop(self):
        tree = build("int f() {\n//$ a\nif (x) {\n//$ [early]\nreturn 1;\n}\n"
                     "//$ b\ny();\n}\n")
        assert shape(tree)[-1] == ("stop", None)


class TestConstructGating:
    @pytest.mark.parametrize("src,expected", [
        ("void f() {\nwhile (b)\n//$ inside\nx();\ny();\n}\n",
         [("loop", "b", [("action", "inside")])]),
        ("void f() {\nif (a)\n//$ inside\n{\nx();\n}\n}\n",
         [("branch", [("a", [("action", "inside")])])]),
        ("void f() {\nif (a) {\nx();\n}\n//$ inside\nelse {\ny();\n}\n}\n",
         [("branch", [("a", []), (None, [("action", "inside")])])]),
    ], ids=["unbraced-body", "brace-on-a-later-line", "before-else"])
    def test_an_action_after_a_header_is_in_its_arm(self, src, expected):
        assert shape(build(src)) == expected + [("stop", None)]

    def test_unannotated_if_is_absorbed(self):
        tree = build("void f() {\n//$ all of it\nif (x) {\ny();\n}\nz();\n}\n")
        assert shape(tree) == [("action", "all of it"), ("stop", None)]

    def test_annotated_if_renders_with_condition_label(self):
        tree = build("void f() {\nif (count > 0) {\n//$ drain\nx();\n}\n}\n")
        assert shape(tree) == [
            ("branch", [("count > 0", [("action", "drain")])]),
            ("stop", None)]

    def test_condition_desc_alone_does_not_render(self):
        diags = []
        tree = build("void f() {\n//$ head\na();\n"
                     "//$ [pointless]\nif (x) {\ny();\n}\n}\n", diags=diags)
        assert shape(tree) == [("action", "head"), ("stop", None)]
        assert any(d.code == "unused-condition-description" for d in diags)

    def test_condition_desc_overrides_label(self):
        tree = build("void f() {\n//$ [rare case]\nif (x&&y||z) {\n"
                     "//$ handle\na();\n}\n}\n")
        branch = tree[0]
        assert branch.arms[0].label == "rare case"

    def test_if_constexpr_is_labelled_by_its_condition(self):
        tree = build("void f() {\nif constexpr (sizeof(int) == 4) {\n//$ wide\nx();\n}\n}\n")
        assert shape(tree) == [
            ("branch", [("sizeof(int) == 4", [("action", "wide")])]),
            ("stop", None)]

    def test_multiline_condition_collapses(self):
        tree = build("void f() {\nif (alpha &&\n    beta) {\n//$ go\na();\n}\n}\n")
        assert tree[0].arms[0].label == "alpha && beta"

    def test_else_if_chain_with_descs(self):
        tree = build(
            "void f() {\n"
            "if (a) {\n//$ one\nx();\n}\n"
            "//$ [second way]\nelse if (b) {\n//$ two\ny();\n}\n"
            "else {\n//$ three\nz();\n}\n"
            "}\n")
        arms = tree[0].arms
        assert [a.label for a in arms] == ["a", "second way", None]
        assert [a.is_else for a in arms] == [False, False, True]

    def test_described_else_arm(self):
        tree = build("void f() {\nif (a) {\n//$ one\nx();\n}\n"
                     "//$ [fallback]\nelse {\n//$ two\ny();\n}\n}\n")
        assert tree[0].arms[-1].label == "fallback"

    def test_empty_else_arm_still_present(self):
        tree = build("void f() {\nif (a) {\n//$ one\nx();\n}\nelse {\nz();\n}\n}\n")
        arms = tree[0].arms
        assert len(arms) == 2
        assert arms[1].is_else and arms[1].body == []

    def test_while_loop(self):
        tree = build("void f() {\nwhile (more()) {\n//$ consume\nx();\n}\n}\n")
        assert shape(tree) == [
            ("loop", "more()", [("action", "consume")]), ("stop", None)]
        assert not tree[0].post_test

    def test_for_loop_label_is_full_header(self):
        tree = build("void f() {\nfor (int i = 0; i < n; ++i) {\n//$ step\nx();\n}\n}\n")
        assert tree[0].label == "int i = 0; i < n; ++i"

    def test_do_while_post_test(self):
        tree = build("void f() {\ndo {\n//$ pump\nx();\n}\n"
                     "//$ [until drained]\nwhile (y);\n}\n")
        node = tree[0]
        assert node.post_test
        assert node.label == "until drained"

    def test_loop_desc_on_header(self):
        tree = build("void f() {\n//$ [for every event]\nwhile (e = next()) {\n"
                     "//$ handle\nx();\n}\n}\n")
        assert tree[0].label == "for every event"


class TestCallHighlights:
    def db(self):
        return FlowDb({"VINCIA::shower": FlowDbEntry(
            "VINCIA::shower", "aux.html", "VINCIA__shower", 1)})

    def test_resolved_call(self):
        tree = build("void f() {\n//$ run it\nobj->shower();  //$\n}\n",
                     db=self.db())
        action = tree[0]
        assert action.calls == [
            ("VINCIA::shower()", "aux.html#VINCIA__shower")]

    def test_unresolved_call_warns_and_stays_text(self):
        diags = []
        tree = build("void f() {\n//$ run\nmystery();  //$\n}\n", diags=diags)
        action = tree[0]
        assert action.calls == [
            ("mystery()", None)]
        assert [d.code for d in diags] == ["no-link"]

    def test_highlight_without_open_action_creates_implicit_box(self):
        tree = build("void f() {\nobj->shower();  //$\n}\n", db=self.db())
        assert isinstance(tree[0], ActionNode)
        assert tree[0].text == ""
        assert tree[0].calls[0][0] == "VINCIA::shower()"

    def test_repeated_callee_on_one_line_warns_once(self):
        diags = []
        tree = build("void f() {\n//$ run\ng(); g();  //$\n}\n", diags=diags)
        assert [display for display, _ in tree[0].calls] == ["g()", "g()"]
        assert [d.code for d in diags] == ["no-link"]

    def test_repeated_ambiguous_callee_warns_once(self):
        db = FlowDb({name: FlowDbEntry(name, "p.html", name.replace("::", "__"), 0)
                     for name in ("A::step", "B::step")})
        diags = []
        tree = build("void f() {\n//$ run\nstep(); step();  //$\n}\n",
                     db=db, diags=diags)
        assert [display for display, _ in tree[0].calls] == ["step()", "step()"]
        assert [d.code for d in diags] == ["ambiguous-callee", "no-link"]

    @pytest.mark.parametrize("code", ["return ::helper(x);",
                                      "throw ::helper(x);",
                                      "auto p = new ::helper(x);"])
    def test_global_scope_call_after_a_keyword_links(self, code):
        db = FlowDb({"helper": FlowDbEntry("helper", "h.html", "helper", 0)})
        diags = []
        tree = build("int f() {\n//$ run\n" + code + "  //$\n}\n",
                     db=db, diags=diags)
        assert tree[0].calls == [
            ("helper()", "h.html#helper")]
        assert diags == []

    @pytest.mark.parametrize("opaque", [
        "switch (k) {\ncase 1:\n//$ inside\nx();  //$\nbreak;\n}\n",
        "try {\ny();\n} catch (...) {\n//$ inside\nx();  //$\n}\n",
        "auto l = [&]() {\n//$ inside\nx();  //$\n};\n"],
        ids=["switch", "try", "lambda"])
    def test_call_in_opaque_statement_goes_to_the_action_above_it(self, opaque):
        tree = build("void f() {\n//$ before\na();\n" + opaque + "}\n")
        assert [(n.text, [display for display, _ in n.calls]) for n in tree[:-1]] == [
            ("before", []), ("inside", ["x()"])]

    def test_a_highlight_after_the_closing_brace_is_drawn(self):
        diags = []
        tree = build("void f() {\nobj->shower(); }  //$\n", db=self.db(), diags=diags)
        assert tree[0].calls == [("VINCIA::shower()", "aux.html#VINCIA__shower")]
        assert diags == []

    def test_highlight_makes_construct_render(self):
        tree = build("void f() {\n//$ head\na();\nif (x) {\n"
                     "obj->shower();  //$\n}\n}\n", db=self.db())
        kinds = [type(n).__name__ for n in tree]
        assert kinds == ["ActionNode", "BranchNode", "StopNode"]


_LABELLED = ("void f() {\n//$ before\na();\nif (x) {\n//$ inside\nb();\n}\n"
             "//$ after\nc();\n}\n")


@pytest.mark.parametrize("old,new", [
    ("if (x) {", "retry: if (x) {"),
    ("if (x) {", "[[likely]] if (x) {"),
    ("if (x) {", "if (x) [[likely]] {"),
    ("c();\n}", "c();\nend:\n}"),
], ids=["label", "attribute-before", "attribute-in-arm", "label-at-the-end"])
def test_a_label_or_an_attribute_list_hides_no_construct(old, new):
    plain_diags, diags = [], []
    plain = shape(build(_LABELLED, diags=plain_diags))
    assert shape(build(_LABELLED.replace(old, new), diags=diags)) == plain
    assert diags == plain_diags
    assert ("action", "after") in plain and plain[1][0] == "branch"


class TestForks:
    def test_three_parallel_actions_fork(self):
        tree = build("void f() {\n//$ <parallel> a1\nx();\n"
                     "//$ <parallel> a2\ny();\n//$ <parallel> a3\nz();\n}\n")
        assert shape(tree) == [
            ("fork", [("action", "a1"), ("action", "a2"), ("action", "a3")]),
            ("stop", None)]

    def test_single_parallel_action_stays_plain(self):
        tree = build("void f() {\n//$ <parallel> alone\nx();\n//$ after\ny();\n}\n")
        assert shape(tree)[0] == ("action", "alone")

    def test_zoom_change_breaks_the_run(self):
        tree = build("void f() {\n//$ <parallel> a\nx();\n"
                     "//$1 <parallel> b\ny();\n//$1 <parallel> c\nz();\n}\n")
        kinds = [type(n).__name__ for n in tree]
        assert kinds == ["ActionNode", "ForkNode", "StopNode"]


class TestProjection:
    SAMPLE = ("void f() {\n"
              "//$ coarse\na();\n"
              "//$1 finer\nb();\n"
              "//$2 finest\nc();\n"
              "if (x) {\n//$1 inside\nd();\n}\n"
              "}\n")

    def sample(self):
        return build(self.SAMPLE)

    def test_level_zero_strips_deeper_actions(self):
        tree = project(self.sample(), 0)
        assert shape(tree) == [("action", "coarse"), ("stop", None)]

    def test_intermediate_level(self):
        tree = project(self.sample(), 1)
        assert shape(tree) == [
            ("action", "coarse"), ("action", "finer"),
            ("branch", [("x", [("action", "inside")])]), ("stop", None)]

    def test_full_level_keeps_everything(self):
        tree = project(self.sample(), 2)
        texts = [n.text for n in tree if isinstance(n, ActionNode)]
        assert texts == ["coarse", "finer", "finest"]

    def test_max_zoom_reflects_actions(self):
        assert annotated(self.SAMPLE, []).max_zoom == 2

    def test_stop_survives_projection(self):
        tree = build("int f() {\n//$1 deep only\nx();\n"
                     "//$ [done]\nreturn 0;\n}\n")
        zero = project(tree, 0)
        assert shape(zero) == [("stop", "done")]

    def test_parallel_actions_at_different_zooms_form_no_fork(self):
        tree = build("void f() {\n//$ <parallel> keep\nx();\n"
                     "//$1 <parallel> deep a\ny();\n}\n")
        assert [type(n).__name__ for n in tree] == [
            "ActionNode", "ActionNode", "StopNode"]

    def test_fork_branch_dropping(self):
        tree = build("void f() {\n//$1 <parallel> a\nx();\n"
                     "//$1 <parallel> b\ny();\n}\n")
        assert [type(n).__name__ for n in tree] == ["ForkNode", "StopNode"]
        zero = project(tree, 0)
        assert shape(zero) == [("stop", None)]

    def test_empty_branch_shell_elided(self):
        tree = build("void f() {\nif (x) {\n//$1 detail\na();\n}\n"
                     "//$ tail\nb();\n}\n")
        zero = project(tree, 0)
        assert shape(zero) == [("action", "tail"), ("stop", None)]
        one = project(tree, 1)
        assert shape(one)[0][0] == "branch"


class TestLeftoverDiagnostics:
    def test_unused_return_desc_warns(self):
        diags = []
        build("int f() {\n//$ act\na();\nswitch (k) {\ncase 1:\n"
              "//$ [inside opaque]\nreturn 1;\n}\nreturn 0;\n}\n", diags=diags)
        assert any(d.code == "unused-condition-description" for d in diags)

    def test_highlight_on_construct_header_is_drawn(self):
        diags = []
        tree = build("void f() {\n//$ act\na();\nif (check()) {  //$\nb();\n}\n}\n",
                     diags=diags)
        assert [display for display, _ in tree[0].calls] == ["check()"]
        assert [d.code for d in diags] == ["no-link"]


def calls_drawn(nodes):
    """The highlighted calls of an activity tree, in walk order."""
    out = []
    for n in nodes:
        if isinstance(n, ActionNode):
            out += [display for display, _ in n.calls]
        elif isinstance(n, BranchNode):
            for arm in n.arms:
                out += calls_drawn(arm.body)
        elif isinstance(n, LoopNode):
            out += calls_drawn(n.body)
        elif isinstance(n, ForkNode):
            out += calls_drawn(n.actions)
    return out


# a highlighted call on a line shared with another statement, or in a
# construct's header, and where it is drawn: the shape, with each box's calls
_SHARED_LINES = {
    "void f(int x) {\n//$ act\na();\nif (x) {\nb();\n} else { g();  //$\n}\n}\n":
        [("act", []), ("branch", [("x", []), (None, [("", ["g()"])])])],
    "void f(int x) {\n//$ act\nif (x) { h(); } g();  //$\n}\n":
        [("act", []), ("branch", [("x", [("", ["h()"])])]), ("", ["g()"])],
    "void f(int x) {\n//$ act\nwhile (next(x)) {  //$\na();\n}\n}\n":
        [("act", ["next()"]), ("loop", "next(x)", [])],
    "void f(int x) {\n//$ act\nif (next(x)) {  //$\na();\n}\n}\n":
        [("act", ["next()"]), ("branch", [("next(x)", [])])],
    "void f(int x) {\n//$ act\nif (x) {\na();\n} else if (ok(x)) {  //$\nb();\n}\n}\n":
        [("act", []), ("branch", [("x", []), ("ok(x)", [("", ["ok()"])])])],
    "void f(int x) {\n//$ act\ndo {\na();\n} while (ok(x));  //$\n}\n":
        [("act", []), ("loop", "ok(x)", []), ("", ["ok()"])],
}


def drawn(nodes):
    """``shape``, with each action box as its text and its calls, and
    without forks and stops."""
    out = []
    for n in nodes:
        if isinstance(n, ActionNode):
            out.append((n.text, [display for display, _ in n.calls]))
        elif isinstance(n, BranchNode):
            out.append(("branch", [(a.label, drawn(a.body)) for a in n.arms]))
        elif isinstance(n, LoopNode):
            out.append(("loop", n.label, drawn(n.body)))
    return out


@pytest.mark.parametrize("src", list(_SHARED_LINES), ids=[
    "else-arm", "after-if", "while-header", "if-header", "else-if-header",
    "do-while-tail"])
def test_a_call_is_drawn_with_its_statement_or_next_to_its_header(src):
    diags = []
    tree = build(src, diags=diags)
    assert drawn(tree) == _SHARED_LINES[src]
    assert {d.code for d in diags} == {"no-link"}


_PLACEMENT_SOURCES = {
    **{str(p.relative_to(FIXTURES)): p.read_text(encoding="utf-8")
       for p in sorted(FIXTURES.rglob("*.cpp"))},
    "noisy.cpp": _NOISY,
    "zoomed.cpp": _zoomed(12),
    "deep.cpp": _nested_ifs(100),
    "too_deep.cpp": _nested_ifs(300),
    "shared_lines.cpp": "".join(src.replace("void f(", f"void f{k}(")
                                for k, src in enumerate(_SHARED_LINES)),
}


@pytest.mark.parametrize("name", sorted(_PLACEMENT_SOURCES))
def test_one_descent_finds_each_line_its_innermost_statement(name, tmp_path):
    """The builder's one walk places each highlighted call with the
    statement holding it: read in walk order, the calls drawn are the
    function's highlighted calls in source order, each once."""
    path = tmp_path / name.replace("/", "_")
    path.write_text(_PLACEMENT_SOURCES[name], encoding="utf-8")
    afs = analyze_source(path, [], {})
    assert afs
    for af in afs:
        diags = []
        tree = build_activity(af, FlowDb({}), diags)
        calls = sorted((c for c in af.annotations if isinstance(c, CallSite)),
                       key=lambda c: c.offset)
        assert calls_drawn(tree) == [c.callee_text + "()" for c in calls]
        assert "dangling-call-highlight" not in [d.code for d in diags]

