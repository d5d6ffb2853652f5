"""Fusing statement trees with annotations into activity trees.

The builder is the one place that pairs annotations with statements: each
action goes to the innermost block holding its line, each highlighted call
to the innermost statement holding its line, each description to the keyword
it targets. The activity tree is what actually gets drawn. Its nodes:

* ActionNode: one box, from a standalone annotation; absorbs the unannotated
  statements after it and carries highlighted calls found on ``//$`` lines.
* BranchNode / LoopNode: a control construct that contains at least one
  action, call highlight or described return somewhere inside. Constructs
  with none stay invisible, swallowed by the preceding action box.
* ForkNode: a run of two or more consecutive ``<parallel>`` actions at one
  zoom level, each action one fork branch.
* StopNode: a reachable return in a rendered region, or the implicit end.

Zoom level k draws the nodes whose lowest level is at most k: an action's
is its zoom, a fork's its actions' zoom, a stop's 0, a branch's or loop's
the minimum over its bodies (none if they are empty). So a low-zoom diagram
is a subgraph of the next deeper one, and a construct shell is never empty.
"""

from __future__ import annotations

import bisect
import math
from enum import Enum

from .annotations import Annotation, AnnotationKind
from .cxx_structure import Stmt, StmtKind, owners
from .diagnostics import Diagnostic, sink, warning
from .flowdb import AnnotatedFunction, FlowDb


class HighlightedCall:
    __slots__ = ("display", "href")

    def __init__(self, display: str, href: str | None):
        self.display, self.href = display, href  # a None href renders as text


class ActionNode:
    __slots__ = ("text", "zoom", "parallel", "calls")

    def __init__(self, text: str, zoom: int = 0, parallel: bool = False,
                 calls: list[HighlightedCall] | None = None):
        self.text, self.zoom, self.parallel = text, zoom, parallel
        self.calls = [] if calls is None else calls


class BranchArm:
    __slots__ = ("label", "body", "is_else")

    def __init__(self, label: str | None, body: list, is_else: bool = False):
        # label is None only for an undescribed else arm
        self.label, self.body, self.is_else = label, body, is_else


class BranchNode:
    __slots__ = ("arms",)

    def __init__(self, arms: list[BranchArm]):
        self.arms = arms


class LoopStyle(Enum):
    PRE_TEST = "pre"    # while, for
    POST_TEST = "post"  # do-while


_LOOP_STYLES = {StmtKind.WHILE: LoopStyle.PRE_TEST, StmtKind.FOR: LoopStyle.PRE_TEST,
                StmtKind.DO_WHILE: LoopStyle.POST_TEST}


class LoopNode:
    __slots__ = ("style", "label", "body")

    def __init__(self, style: LoopStyle, label: str, body: list):
        self.style, self.label, self.body = style, label, body


class ForkNode:
    __slots__ = ("actions",)

    def __init__(self, actions: list[ActionNode]):
        self.actions = actions  # all at one zoom level, at least two


class StopNode:
    __slots__ = ("text",)

    def __init__(self, text: str | None = None):
        self.text = text


ActivityNode = ActionNode | BranchNode | LoopNode | ForkNode | StopNode


class ActivityTree:
    __slots__ = ("root", "max_zoom")

    def __init__(self, root: list[ActivityNode], max_zoom: int):
        self.root, self.max_zoom = root, max_zoom


class LevelOutOfRange(ValueError):
    pass


def collapse_ws(text: str) -> str:
    return " ".join(text.split())


def build_activity(af: AnnotatedFunction, db: FlowDb,
                   diags: list[Diagnostic] | None = None) -> ActivityTree:
    """Build the activity tree of one annotated function from its statement
    tree and the annotations ``flowdb.annotated_functions`` gave it."""
    diags = sink(diags)
    builder = _Builder(af, db, diags)
    root = builder.fuse_block(af.body)
    if not root or not isinstance(root[-1], StopNode):
        root.append(StopNode())
    builder.report_leftovers()
    return ActivityTree(root, af.max_zoom)


class _Builder:
    def __init__(self, af: AnnotatedFunction, db: FlowDb,
                 diags: list[Diagnostic]):
        annos = af.annotations
        self.fn = af.fn
        self.db = db
        self.diags = diags
        # actions and highlighted calls by the id of the statement they go to
        self.owned = owners(af.body, [a for a in annos if a.kind is AnnotationKind.ACTION],
                            StmtKind.BLOCK)
        self.calls = owners(af.body, [c for a in annos for c in a.calls])
        # descriptions by keyword offset; a condition description targets
        # only if/else/loop keywords, a return description only 'return'.
        # Those the body's root keeps were swallowed past the nesting bound
        # and counted in a nesting-too-deep warning already.
        swallowed = set(af.body.keywords)
        self.descs = {a.target: a for a in annos
                      if a.target is not None and a.target not in swallowed}
        self.highlight_lines = {a.line for a in annos
                                if a.kind is AnnotationKind.CALL_HIGHLIGHT}
        self.trigger_lines = sorted(a.line for a in annos if a.kind in (
            AnnotationKind.ACTION, AnnotationKind.CALL_HIGHLIGHT, AnnotationKind.RETURN_DESC))
        self.consumed_descs: set[int] = set()
        self.surfaced_highlights: set[int] = set()
        # (line, callee as written) -> its box entry: a callee repeated on
        # one line is resolved, and reported, once
        self.linked: dict[tuple[int, str], HighlightedCall] = {}

    # -- queries ----------------------------------------------------------

    def _renders(self, stmt: Stmt) -> bool:
        lo, hi = stmt.span
        i = bisect.bisect_left(self.trigger_lines, lo)
        return i < len(self.trigger_lines) and self.trigger_lines[i] <= hi

    def _label(self, stmt: Stmt) -> str | None:
        """The description bound to one of stmt's keywords, else its
        condition (None for a bare else arm or a return)."""
        for kw in stmt.keywords:
            if kw in self.descs:
                self.consumed_descs.add(kw)
                return self.descs[kw].text
        if stmt.condition_text is None:
            return None
        return collapse_ws(stmt.condition_text) or "..."

    # -- fusion -----------------------------------------------------------

    def fuse_block(self, block: Stmt) -> list[ActivityNode]:
        # the nodes so far; a last ActionNode is the open box, which the
        # absorbed calls join, and any other node closes it
        seq: list[ActivityNode] = []
        self._fuse_into(block, seq)
        return _fork_pass(seq)

    def _fuse_into(self, block: Stmt, seq: list[ActivityNode]) -> None:
        # the block's actions, last first; each opens before the first
        # statement or absorbed call below it
        pending = self.owned.get(id(block), [])[::-1]
        for stmt in block.children:
            _open_actions(pending, stmt.span[0], seq)
            self._fuse_stmt(stmt, seq, pending)
        _open_actions(pending, math.inf, seq)

    def _fuse_stmt(self, stmt: Stmt, seq: list[ActivityNode],
                   pending: list[Annotation]) -> None:
        if stmt.kind is StmtKind.BLOCK:
            # bare blocks are scoping only; contents flow through
            self._fuse_into(stmt, seq)
            return
        if stmt.kind is StmtKind.RETURN:
            self._absorb_calls(stmt, seq, pending)
            seq.append(StopNode(self._label(stmt)))
            return
        if stmt.kind is StmtKind.IF and self._renders(stmt):
            seq.append(BranchNode([
                BranchArm(self._label(arm), self.fuse_block(arm),
                          is_else=arm.condition_text is None)
                for arm in stmt.children]))
            return
        style = _LOOP_STYLES.get(stmt.kind)
        if style is not None and self._renders(stmt):
            seq.append(LoopNode(style, self._label(stmt),
                                self.fuse_block(stmt.children[0])))
            return
        # absorbed: plain statements and silent constructs (which hold no
        # highlight, or they would render)
        self._absorb_calls(stmt, seq, pending)

    def _absorb_calls(self, stmt: Stmt, seq: list[ActivityNode],
                      pending: list[Annotation]) -> None:
        for call in self.calls.get(id(stmt), ()):
            # an action inside an opaque statement names the calls below it
            _open_actions(pending, call.line, seq)
            key = (call.line, call.callee_text)
            hc = self.linked.get(key)
            if hc is None:
                entry = self.db.resolve(call, self.fn.file, self.diags)
                if entry is not None:
                    hc = HighlightedCall(entry.qualified_name + "()",
                                         f"{entry.html_path}#{entry.anchor}")
                else:
                    self.diags.append(warning(
                        "no-link",
                        f"no diagram found for call '{call.callee_text}'; "
                        f"shown without a link",
                        self.fn.file, call.line))
                    hc = HighlightedCall(call.callee_text + "()", None)
                self.linked[key] = hc
            if not (seq and isinstance(seq[-1], ActionNode)):
                seq.append(ActionNode(""))  # no box is open: an unnamed one
            seq[-1].calls.append(hc)
            self.surfaced_highlights.add(call.line)

    # -- diagnostics ------------------------------------------------------

    def report_leftovers(self) -> None:
        for kind, what in ((AnnotationKind.CONDITION_DESC, "construct"),
                           (AnnotationKind.RETURN_DESC, "return")):
            for kw, ann in sorted(self.descs.items()):
                if ann.kind is kind and kw not in self.consumed_descs:
                    self.diags.append(warning(
                        "unused-condition-description",
                        f"description '[{ann.text}]' was not applied to any "
                        f"rendered {what}",
                        self.fn.file, ann.line))
        for line in sorted(self.highlight_lines - self.surfaced_highlights):
            self.diags.append(warning(
                "dangling-call-highlight",
                "call highlight could not be attached to an action; ignored",
                self.fn.file, line))


def _open_actions(pending: list[Annotation], line: float,
                  seq: list[ActivityNode]) -> None:
    """Open, in order, the pending actions above line."""
    while pending and pending[-1].line < line:
        a = pending.pop()
        seq.append(ActionNode(a.text, a.zoom, a.parallel))


def _fork_pass(nodes: list[ActivityNode]) -> list[ActivityNode]:
    """Group runs of >= 2 consecutive parallel actions at one zoom level."""
    out: list[ActivityNode] = []
    i = 0
    while i < len(nodes):
        node = nodes[i]
        if isinstance(node, ActionNode) and node.parallel:
            j = i
            while (j < len(nodes) and isinstance(nodes[j], ActionNode)
                   and nodes[j].parallel and nodes[j].zoom == node.zoom):
                j += 1
            if j - i >= 2:
                out.append(ForkNode(nodes[i:j]))
                i = j
                continue
        out.append(node)
        i += 1
    return out


def project(tree: ActivityTree, level: int) -> ActivityTree:
    """The tree restricted to the nodes whose lowest level is at most level."""
    if not 0 <= level <= tree.max_zoom:
        raise LevelOutOfRange(
            f"zoom level {level} outside 0..{tree.max_zoom}")

    def filter_nodes(nodes: list[ActivityNode]) -> list[ActivityNode]:
        out: list[ActivityNode] = []
        for node in nodes:
            if isinstance(node, ActionNode):
                if node.zoom <= level:
                    out.append(node)
            elif isinstance(node, BranchNode):
                arms = [BranchArm(a.label, filter_nodes(a.body), a.is_else)
                        for a in node.arms]
                if any(arm.body for arm in arms):
                    out.append(BranchNode(arms))
            elif isinstance(node, LoopNode):
                body = filter_nodes(node.body)
                if body:
                    out.append(LoopNode(node.style, node.label, body))
            elif isinstance(node, ForkNode):
                if node.actions[0].zoom <= level:
                    out.append(node)
            else:
                out.append(node)
        return out

    return ActivityTree(filter_nodes(tree.root), tree.max_zoom)
