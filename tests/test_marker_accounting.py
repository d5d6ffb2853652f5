"""Every ``//$`` is drawn or reported.

A marker is drawn when what it says shows in a diagram of its source: its
text as an action, its ``[...]`` text as a branch, loop or end label, or,
for a postfix marker with nothing after it, every call of its line that
lies in a function body. It is reported when one of ``REPORTS`` names its
line. Each drawn action and label accounts for one marker only. The
sources are the fixtures, small benchmark corpora, a body nested past the
nesting bound and Hypothesis files that put every marker form between the
lines of generated functions, file-scope code and class bodies.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from flowdoc.activity_ir import (ActionNode, BranchNode, ForkNode, LoopNode,
                                 build_activity)
from flowdoc.annotations import collect
from flowdoc.cxx_structure import (MAX_NESTING, CodeStream, body_holding, detect_calls,
                                   find_definitions)
from flowdoc.flowdb import SOURCE_SUFFIXES, FlowDb, annotated_functions

from conftest import FIXTURES
from test_annotations import ref_bracket_payload, ref_parse_marker
from test_bench_corpora import SMALL

REPORTS = {"unplaced-marker", "dangling-call-highlight", "ignored-highlight-text",
           "orphan-bracket-annotation", "zoom-too-deep", "unused-condition-description"}


def drawn_items(nodes, actions, labels, calls):
    for node in nodes:
        if isinstance(node, ForkNode):
            drawn_items(node.actions, actions, labels, calls)
        elif isinstance(node, ActionNode):
            actions[node.text] += 1
            calls.update(display for display, _ in node.calls)
        elif isinstance(node, BranchNode):
            for arm in node.arms:
                labels[arm.label] += 1
                drawn_items(arm.body, actions, labels, calls)
        elif isinstance(node, LoopNode):
            labels[node.label] += 1
            drawn_items(node.body, actions, labels, calls)
        else:
            labels[node.text] += 1


def unaccounted(text, name="t.cpp"):
    """The lines of the markers of text that are neither drawn nor reported."""
    diags = []
    view = CodeStream(text, name, diags)
    defs = find_definitions(view)
    held = collect(view, defs)
    assert list(held) == sorted(held)  # annotated_functions keeps this order
    actions, labels, calls = Counter(), Counter(), set()
    for af in annotated_functions(view, defs, held, {}):
        drawn_items(build_activity(af, FlowDb({}), diags), actions, labels, calls)
    reported = {d.line for d in diags if d.code in REPORTS}
    missing = []
    for tok in view.markers:
        line = view.line(tok.offset)
        if line in reported:
            continue
        lo = view.index_at_or_after(view.line_starts[line - 1])
        hi = view.index_at_or_after(tok.offset)
        _, _, said = ref_parse_marker(tok.text)
        payload = ref_bracket_payload(said)
        if lo < hi:  # postfix: its calls are all it can show
            in_bodies = [c for c in detect_calls(view, lo, hi)
                         if body_holding(defs, c.offset) is not None]
            if tok.text[3:].strip() or not in_bodies or not all(
                    f"{c.callee_text}()" in calls for c in in_bodies):
                missing.append(line)
        elif payload is not None and labels[payload] > 0:
            labels[payload] -= 1
        elif payload is None and actions[said] > 0:
            actions[said] -= 1
        else:
            missing.append(line)
    return missing


@pytest.mark.parametrize("fixture", ["demo", "lang", "xlink"])
def test_each_marker_of_a_fixture_is_drawn_or_reported(fixture):
    texts = {p.name: p.read_text(encoding="utf-8")
             for p in (FIXTURES / fixture).rglob("*") if p.suffix in SOURCE_SUFFIXES}
    assert sum(text.count("//$") for text in texts.values()) > 3
    for name, text in texts.items():
        assert unaccounted(text, name) == [], name


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_each_marker_of_a_small_corpus_is_drawn_or_reported(workload):
    files = SMALL[workload](random.Random(7)).files
    assert sum(text.count("//$") for text in files.values()) > 10
    for rel, text in files.items():
        assert unaccounted(text, rel) == [], rel


def test_each_description_past_the_nesting_bound_is_reported():
    depth = MAX_NESTING + 12
    src = "".join(["void deep(int a) {\n//$ start\n"]
                  + [f"//$ [level {k}]\nif (a > {k}) {{\n" for k in range(depth)]
                  + ["//$ innermost\nx();\n", "}\n" * depth, "}\n"])
    assert unaccounted(src) == []


STANDALONE = ["//$", "//$ {t}", "//$2 {t}", "//$100 {t}", "//$ <parallel> {t}",
              "//$1 <parallel> {t}", "//$ [{t}]", "//$ [ ]"]
POSTFIX = ["//$", "//$ {t}", "//$3", "//$ [{t}]", "//$ <parallel>", "//$ "]


@st.composite
def statements(draw, depth=0):
    """The lines of a statement list; a call is named by a placeholder."""
    lines = []
    for _ in range(draw(st.integers(0 if depth else 1, 3))):
        kind = draw(st.sampled_from(["call", "call", "return", "if", "else",
                                     "while", "for", "do", "switch"][:2 if depth > 2 else 9]))
        if kind != "call" and draw(st.booleans()):
            lines.append("//$ [{t}]")  # a description, bound unless a marker comes between
        if kind == "call":
            lines.append("@();")
        elif kind == "return":
            lines.append("return;")
        elif kind == "do":
            lines += ["do {", *draw(statements(depth + 1)), "} while (@());"]
        elif kind == "switch":
            lines += ["switch (k) {", "case 1:", *draw(statements(depth + 1)), "}"]
        else:
            header = {"if": "if (@()) {", "else": "if (a) {", "while": "while (@()) {",
                      "for": "for (int i = 0; i < @(); ++i) {"}[kind]
            lines += [header, *draw(statements(depth + 1)), "}"]
            if kind == "else":
                lines += ["else {", *draw(statements(depth + 1)), "}"]
    return lines


@st.composite
def marked_sources(draw):
    """A source of functions, file-scope code and a class, with markers of
    every form on their own lines and after code, each text and call named
    after its place."""
    lines = []
    for k in range(draw(st.integers(1, 3))):
        head, tail = draw(st.sampled_from([
            ([f"void f{k}() {{"], ["}"]), ([f"int S{k}::f(int x) const {{"], ["}"]),
            # a line two bodies share, its highlight past both
            ([f"void f{k}() {{"], ["@a(); } void b@() { @b(); }  //$"]),
            ([f"struct C{k} {{", "int n;", "void m() {"], ["}", "};"])]))
        lines += head + draw(statements()) + tail
        lines += draw(st.sampled_from([[], ["int g = @();"], ["auto h = [] { @(); };"]]))
    for at in sorted(draw(st.lists(st.integers(0, len(lines)), max_size=8)), reverse=True):
        lines.insert(at, draw(st.sampled_from(STANDALONE)))
    for at in draw(st.lists(st.integers(0, len(lines) - 1), max_size=5)):
        if "//" not in lines[at]:
            lines[at] += "  " + draw(st.sampled_from(POSTFIX))
    return "".join(line.replace("@", f"c{n}").replace("{t}", f"t{n}") + "\n"
                   for n, line in enumerate(lines, start=1))


@settings(max_examples=150)
@given(marked_sources())
def test_each_marker_of_a_generated_source_is_drawn_or_reported(src):
    assert unaccounted(src) == []
