"""The body parser gives back the statement tree a generator drew.

A Hypothesis strategy draws the tree of one function body: if / else-if /
else chains, while, for and do-while loops, each with a braced or unbraced
body, returns, plain statements, switch, try and lambda statements kept
opaque, nested blocks and empty statements, each possibly behind labels and
``[[...]]`` lists, a few levels deep, with ``//$`` actions between
statements and ``//$ [...]`` descriptions before keywords. A printer writes
the tree as C++: between any two pieces it puts the next of a drawn cycle
of layouts (spaces, line breaks, and comments and directives that hold
braces and keywords); literals in statements and conditions hold them too.
As it prints, it builds the ``Stmt`` tree ``parse_body`` must return:
kinds, spans, conditions verbatim and the offsets of the keywords it
printed.

A reference printer then writes each zoom level's PlantUML from the drawn
tree alone: a construct is drawn when it holds an action or a described
return, a return ends the flow where it is drawn, and a level shows the
actions up to its zoom and the constructs that then hold one. The
diagrams ``build_activity`` and ``render_function`` give must equal it.
"""

import functools
import itertools

from hypothesis import given, settings, strategies as st

from flowdoc.activity_ir import build_activity
from flowdoc.annotations import collect
from flowdoc.cxx_structure import CodeStream, Stmt, StmtKind, find_definitions, parse_body
from flowdoc.flowdb import AnnotatedFunction, FlowDb
from flowdoc.plantuml_emit import render_function

BLOCK, PLAIN, IF, LOOP, DO_WHILE, RETURN = (
    StmtKind.BLOCK, StmtKind.PLAIN, StmtKind.IF, StmtKind.LOOP, StmtKind.DO_WHILE,
    StmtKind.RETURN)

# Each piece below is printed whole; a layout goes only between pieces.
LAYOUTS = [" ", "\n", "  \n\t", " /* } else { */ ", "/*if(*/", " // } while (x) {\n",
           "\n#define OPEN {\n", "\n#define C 1 /* }\nelse { */ + 2\n"]
PLAINS = [("x", "(", ")", ";"),
          ("y", "=", "f", "(", '"{ if ("', ",", "'}'", ")", ";"),
          ("int", "z", "[", "2", "]", "=", "{", "1", ",", "2", "}", ";"),
          ("w", "(", 'R"x(} while (x) {)x"', ")", ";"),
          ("a", "=", "b", "<", "c", "?", "d", ":", "e", ";"),
          ("break", ";")]
RETURNS = [("return", ";"), ("return", "x", "+", "1", ";"), ("return", "{", "}", ";"),
           ("return", '"} else {"', ";")]
# opaque statements, each with the index of the piece an action may precede
OPAQUES = [(("switch", "(", "k", ")", "{", "case", "1", ":", "x", "(", ")", ";", "break",
             ";", "default", ":", "if", "(", "a", ")", "{", "}", "}"), 8),
           (("try", "{", "x", "(", ")", ";", "}", "catch", "(", "const", "E", "&", "e",
             ")", "{", "while", "(", "e", ")", "{", "}", "}", "catch", "(", "...", ")",
             "{", "}"), 2),
           (("auto", "fn", "=", "[", "&", "]", "(", "int", "v", ")", "{", "if", "(", "v",
             ")", "{", "w", "(", ")", ";", "}", "return", "v", ";", "}", ";"), 11),
           (("switch", "(", "k", ")", "y", "(", ")", ";"), None)]
CONDITIONS = [("a",), ("a", ">", "0"), ("s", "==", '"} else {"'), ("f", "(", "'('", ")"),
              ("(", "a", ")", "||", "!", "b")]
FOR_HEADS = [("int", "i", "=", "0", ";", "i", "<", "n", ";", "++", "i"), (";", ";"),
             ("auto", "&", "x", ":", "xs")]
PREFIXES = [("again", ":"), ("[[", "likely", "]]"), ("[[", "gnu", "::", "hot", "]]")]
TEXTS = ["read input", "check it", "emit", "step"]
DESCS = ["ready", "more to do", "done"]

# the strategies, each built once
LAYOUT_CYCLE = st.lists(st.sampled_from(LAYOUTS), min_size=1, max_size=6)
PREFIX = st.lists(st.sampled_from(PREFIXES), max_size=2).map(lambda ps: sum(ps, ()))
PIECES_OF = {"plain": st.sampled_from([(p, None) for p in PLAINS]),
             "return": st.sampled_from([(r, None) for r in RETURNS]),
             "opaque": st.sampled_from(OPAQUES)}
CONDITION = st.sampled_from(CONDITIONS)
IF_CONDITIONS = st.lists(CONDITION, min_size=1, max_size=3)
LOOP_HEAD = st.sampled_from([("while", c) for c in CONDITIONS] + [("for", h) for h in FOR_HEADS])
SIMPLE = ["plain", "return", "opaque", "empty"]
# by depth left: none, or some; an if is drawn as often as the other constructs
KIND = [st.sampled_from(SIMPLE),
        st.sampled_from(SIMPLE + ["block", "if", "if", "if", "loop", "do"])]
DESC = st.none() | st.sampled_from(DESCS)
FLAG = st.booleans()
ACTION = st.fixed_dictionaries({"kind": st.just("act"), "zoom": st.sampled_from(["", "1", "2"]),
                                "text": st.sampled_from(TEXTS)})
MAYBE_ACTION = st.none() | ACTION


@st.composite
def _statement(draw, depth):
    """One statement node, constructs only while depth is left."""
    kind = draw(KIND[depth > 0])
    node = {"kind": kind, "prefix": draw(PREFIX)}
    if kind in PIECES_OF:
        pieces, act_at = draw(PIECES_OF[kind])
        node.update(pieces=pieces, desc=draw(DESC) if kind == "return" else None,
                    act=draw(MAYBE_ACTION) if act_at is not None else None, act_at=act_at)
    elif kind == "block":
        node["items"] = draw(items(depth - 1))
    elif kind == "if":
        conditions = draw(IF_CONDITIONS)
        n = len(conditions) + draw(FLAG)  # with an 'else' arm or not
        node["arms"] = [{"cond": conditions[k] if k < len(conditions) else None,
                         "constexpr": draw(FLAG) and draw(FLAG),
                         "desc": draw(DESC), "body": draw(body(depth - 1))}
                        for k in range(n)]
        for k, arm in enumerate(node["arms"]):
            # an 'else' after an arm binds to an open 'if' that ends it, and
            # 'else if' continues the chain: such bodies get braces
            if (k + 1 < n and ends_open(arm["body"]) or arm["cond"] is None
                    and arm["body"]["kind"] == "if" and not arm["body"]["prefix"]):
                arm["body"] = {"kind": "block", "prefix": (), "items": [arm["body"]]}
    else:
        node.update(body=draw(body(depth - 1)), desc=draw(DESC))
        if kind == "loop":
            node["keyword"], node["cond"] = draw(LOOP_HEAD)
        else:
            node["cond"], node["desc_on_while"] = draw(CONDITION), draw(FLAG)
    return node


@functools.cache
def statement(depth):
    return _statement(depth)


@functools.cache
def items(depth):
    return st.lists(ACTION | statement(depth), max_size=3)


@functools.cache
def body(depth):
    """A braced block or one unbraced statement."""
    return st.one_of(st.builds(lambda its: {"kind": "block", "prefix": (), "items": its},
                               items(depth)),
                     statement(depth).filter(lambda n: n["kind"] != "block"))


def ends_open(node):
    """Whether an 'else' right after the statement would bind to an 'if'
    inside it."""
    if node["kind"] == "if":
        last = node["arms"][-1]
        return last["cond"] is not None or ends_open(last["body"])
    return node["kind"] == "loop" and ends_open(node["body"])


class Printer:
    """Writes a drawn tree as C++, with the drawn layouts between pieces in
    turn, and builds the statement tree ``parse_body`` must return."""

    def __init__(self, layouts):
        self.layouts, self.src, self.last = itertools.cycle(layouts), "", 0

    def put(self, piece):
        """A layout, then piece; the offset of piece."""
        self.src += next(self.layouts)
        self.last = len(self.src)
        self.src += piece
        return self.last

    def marker(self, text):
        self.src += f"\n{text}\n"

    def items(self, nodes):
        out = [self.item(node) for node in nodes]
        return tuple(stmt for stmt in out if stmt is not None)

    def item(self, node):
        if node["kind"] == "act":
            self.marker(f"//${node['zoom']} {node['text']}")
            return None
        for piece in node["prefix"]:
            self.put(piece)
        kind = node["kind"]
        if kind == "empty":
            self.put(";")
            return None
        if kind == "block":
            lo = self.put("{")
            children = self.items(node["items"])
            return Stmt(BLOCK, (lo, self.put("}")), children=children)
        if kind in ("plain", "return", "opaque"):
            if node["desc"]:
                self.marker(f"//$ [{node['desc']}]")
            at = []
            for k, piece in enumerate(node["pieces"]):
                if k == node["act_at"] and node["act"]:
                    self.item(node["act"])
                at.append(self.put(piece))
            if kind == "return":
                return Stmt(RETURN, (at[0], at[-1]), keywords=(at[0],))
            return Stmt(PLAIN, (at[0], at[-1]))
        if kind == "if":
            arms = []
            for k, arm in enumerate(node["arms"]):
                if arm["desc"]:
                    self.marker(f"//$ [{arm['desc']}]")
                keyword = self.put("else" if k else "if")
                start = keyword + 4
                if arm["cond"] is not None:
                    if k:
                        self.put("if")
                    if arm["constexpr"]:
                        self.put("constexpr")
                    start = self.group(arm)
                arms.append(self.arm(arm["body"], start, arm.get("text"), (keyword,)))
            return Stmt(IF, (arms[0].keywords[0], arms[-1].span[1]), None, tuple(arms))
        if node["desc"] and not node.get("desc_on_while"):
            self.marker(f"//$ [{node['desc']}]")
        if kind == "loop":
            keyword = self.put(node["keyword"])
            inner = self.arm(node["body"], self.group(node), None, ())
            return Stmt(LOOP, (keyword, inner.span[1]), node["text"], (inner,), (keyword,))
        keyword = self.put("do")
        inner = self.arm(node["body"], keyword + 2, None, ())
        if node["desc"] and node["desc_on_while"]:
            self.marker(f"//$ [{node['desc']}]")
        w = self.put("while")
        self.group(node)
        return Stmt(DO_WHILE, (keyword, self.put(";")), node["text"], (inner,), (keyword, w))

    def group(self, node):
        """A condition in parentheses, whose text goes to node['text']; the
        offset past its ')'."""
        lo = self.put("(") + 1
        for piece in node["cond"]:
            self.put(piece)
        hi = self.put(")")
        node["text"] = self.src[lo:hi]
        return hi + 1

    def arm(self, node, start, cond, keywords):
        """The Block of an arm or loop body that starts at start: a braced
        body's statements, or the one unbraced statement."""
        stmt = self.item(node)
        if node["kind"] == "block":
            return Stmt(BLOCK, (start, stmt.span[1]), cond, stmt.children, keywords)
        if stmt is None:  # an empty statement: the arm ends at its ';'
            return Stmt(BLOCK, (start, self.last), cond, (), keywords)
        return Stmt(BLOCK, (start, stmt.span[1]), cond, (stmt,), keywords)


def triggers(node):
    """Whether the node holds an action or a described return, which draws
    every construct around it."""
    kind = node["kind"]
    if kind in ("plain", "return", "opaque"):
        return bool(node["act"] or node["desc"])
    if kind == "block":
        return any(map(triggers, node["items"]))
    if kind == "if":
        return any(triggers(arm["body"]) for arm in node["arms"])
    return kind == "act" or kind in ("loop", "do") and triggers(node["body"])


def label(desc, text):
    return desc or " ".join(text.split()) or "..."


def lines_of(node, level):
    """The PlantUML lines of a drawn node at a zoom level."""
    kind = node["kind"]
    if kind == "act":
        return [f":{node['text']};"] if int(node["zoom"] or 0) <= level else []
    if kind in ("plain", "return", "opaque"):
        lines = lines_of(node["act"], level) if node["act"] else []
        if kind == "return":
            lines += [f":{node['desc']};"] * bool(node["desc"]) + ["stop"]
        return lines
    if kind == "block":
        return [line for item in node["items"] for line in lines_of(item, level)]
    if kind == "empty" or not triggers(node):
        return []
    if kind == "if":
        bodies = [lines_of(arm["body"], level) for arm in node["arms"]]
        if not any(bodies):
            return []
        lines = []
        for k, (arm, lines_of_arm) in enumerate(zip(node["arms"], bodies)):
            if arm["cond"] is None:
                lines.append(f"else ({arm['desc'] or 'no'})")
            else:
                lines.append(f"{'elseif' if k else 'if'} "
                             f"({label(arm['desc'], arm['text'])}) then (yes)")
            lines += lines_of_arm
        return lines + ["endif"]
    inner = lines_of(node["body"], level)
    if not inner:
        return []
    if kind == "loop":
        return [f"while ({label(node['desc'], node['text'])})", *inner, "endwhile"]
    return ["repeat", *inner, f"repeat while ({label(node['desc'], node['text'])})"]


def ends_in_stop(nodes):
    """Whether the last node the items draw, at any zoom, is a return's stop."""
    for node in reversed(nodes):
        kind = node["kind"]
        if kind == "return":
            return True
        if kind == "block":
            if any(lines_of(item, float("inf")) for item in node["items"]):
                return ends_in_stop(node["items"])
        elif kind != "empty" and triggers(node):
            return False
    return False


def unused_descriptions(node):
    """The descriptions of constructs that are not drawn."""
    kind = node["kind"]
    if kind == "block":
        return sum(map(unused_descriptions, node["items"]))
    if kind == "if":
        inside = sum(unused_descriptions(arm["body"]) for arm in node["arms"])
        return inside + (0 if triggers(node) else
                         sum(bool(arm["desc"]) for arm in node["arms"]))
    if kind in ("loop", "do"):
        return (unused_descriptions(node["body"])
                + (0 if triggers(node) else bool(node["desc"])))
    return 0


@settings(max_examples=250)
@given(items(3), LAYOUT_CYCLE)
def test_parse_body_gives_back_the_drawn_tree_and_its_diagrams(nodes, layouts):
    printer = Printer(layouts)
    for piece in ("void", "f", "(", ")"):
        printer.put(piece)
    lo = printer.put("{")
    children = printer.items(nodes)
    expected = Stmt(BLOCK, (lo, printer.put("}")), children=children)
    src = printer.src + "\n"
    diags = []
    view = CodeStream(src, "t.cpp", diags)
    [fn] = find_definitions(view)
    assert fn.body_start == lo
    root = parse_body(fn, view)
    assert root == expected

    annotations = tuple(collect(view, [fn]).get(0, ()))
    max_zoom = max((a.zoom for a in annotations), default=0)
    tree = build_activity(AnnotatedFunction(fn, "f", annotations, max_zoom, root),
                          FlowDb({}), diags)
    top = {"kind": "block", "items": nodes}
    assert render_function(tree, max_zoom) == [
        "\n".join(["@startuml", "start", *lines_of(top, level),
                   *["stop"] * (not ends_in_stop(nodes)), "@enduml"]) + "\n"
        for level in range(max_zoom + 1)]
    assert [d.code for d in diags] == (
        ["unused-condition-description"] * unused_descriptions(top))
