"""Fusing statement trees with annotations into activity trees.

The builder is the one place that pairs annotations with statements. It
splits them once, by ``target``: descriptions, and the actions and call
sites its one walk over the statement tree, in source order, places where
the walk stands at the item's offset: an action opens a box, or joins a
parallel box of its zoom right before it in a fork; a call joins the open
box or opens an unnamed one. So a call goes with its own statement even on
a line shared with another; a call in the header of a drawn if or loop goes
in the box before the construct, one in an else-if header at the top of its
arm, one in a do-while's trailing condition right after the loop. Each
description goes to the keyword it targets. Positions are character offsets
into the source. The activity tree is what actually gets drawn. Its nodes
are records with read-only fields; the builder fills only the open box's
``calls`` and the open fork's ``actions``, lists each box or fork owns:

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
from collections import namedtuple

from .annotations import Annotation
from .cxx_structure import Stmt, StmtKind
from .diagnostics import Diagnostic, warning
from .flowdb import AnnotatedFunction, FlowDb


# calls: (display, href or None) pairs
ActionNode = namedtuple("ActionNode", "text zoom parallel calls", defaults=(0, False, ()))
# label None only for an undescribed else arm
BranchArm = namedtuple("BranchArm", "label body is_else", defaults=(False,))
BranchNode = namedtuple("BranchNode", "arms")
# post_test: a do-while, else a while or for
LoopNode = namedtuple("LoopNode", "post_test label body")
# actions: ActionNodes all at one zoom level, at least two
ForkNode = namedtuple("ForkNode", "actions")
StopNode = namedtuple("StopNode", "text", defaults=(None,))


ActivityNode = ActionNode | BranchNode | LoopNode | ForkNode | StopNode


def collapse_ws(text: str) -> str:
    return " ".join(text.split())


def build_activity(af: AnnotatedFunction, db: FlowDb,
                   diags: list[Diagnostic]) -> list[ActivityNode]:
    """The activity tree of one annotated function, as its top-level node
    list, from its statement tree and the annotations
    ``annotations.collect`` placed in it."""
    builder = _Builder(af, db, diags)
    root = builder.fuse_block(af.body)
    if not root or not isinstance(root[-1], StopNode):
        root.append(StopNode())
    builder.report_leftovers()
    return root


class _Builder:
    def __init__(self, af: AnnotatedFunction, db: FlowDb,
                 diags: list[Diagnostic]):
        self.fn, self.db, self.diags = af.fn, db, diags
        # the actions and highlighted calls, last first: _take pops them;
        # the descriptions by the offset of their keyword
        self.items, self.descs = [], {}
        for a in reversed(af.annotations):
            if isinstance(a, Annotation) and a.target is not None:
                self.descs[a.target] = a
            else:
                self.items.append(a)
        self.triggers = sorted([item.offset for item in self.items] + [
            a.offset for a in self.descs.values() if a.keyword == "return"])
        # (line, callee as written) -> its box entry: a callee repeated on
        # one line is resolved, and reported, once
        self.linked: dict[tuple[int, str], tuple[str, str | None]] = {}

    # -- queries ----------------------------------------------------------

    def _renders(self, stmt: Stmt) -> bool:
        i = bisect.bisect_left(self.triggers, stmt.span[0])
        return i < len(self.triggers) and self.triggers[i] <= stmt.span[1]

    def _label(self, stmt: Stmt) -> str | None:
        """The description bound to one of stmt's keywords, which it uses
        up, else its condition (None for a bare else arm or a return)."""
        for kw in stmt.keywords:
            if kw in self.descs:
                return self.descs.pop(kw).text
        if stmt.condition_text is None:
            return None
        return collapse_ws(stmt.condition_text) or "..."

    # -- fusion -----------------------------------------------------------

    def fuse_block(self, block: Stmt, seq: list[ActivityNode] | None = None
                   ) -> list[ActivityNode]:
        """The nodes of a block, appended to ``seq`` if given."""
        seq = [] if seq is None else seq
        for stmt in block.children:
            self._take(stmt.span[0], seq)
            self._fuse_stmt(stmt, seq)
        self._take(block.span[1], seq)
        return seq

    def _fuse_stmt(self, stmt: Stmt, seq: list[ActivityNode]) -> None:
        if stmt.kind is StmtKind.BLOCK:
            self.fuse_block(stmt, seq)  # scoping only; contents flow through
        elif stmt.kind in (StmtKind.IF, StmtKind.LOOP, StmtKind.DO_WHILE) and self._renders(stmt):
            # the header's calls go in the box before the construct
            self._take(stmt.children[0].span[0], seq)
            if stmt.kind is StmtKind.IF:
                seq.append(BranchNode([
                    BranchArm(self._label(arm), self.fuse_block(arm),
                              is_else=arm.condition_text is None)
                    for arm in stmt.children]))
            else:
                seq.append(LoopNode(stmt.kind is StmtKind.DO_WHILE, self._label(stmt),
                                    self.fuse_block(stmt.children[0])))
        # what is left: all of an absorbed statement (plain statements and
        # silent constructs, which hold no item, or they would render), a
        # do-while's trailing condition, nothing after a block
        self._take(stmt.span[1] + 1, seq)
        if stmt.kind is StmtKind.RETURN:
            seq.append(StopNode(self._label(stmt)))

    def _take(self, before: int, seq: list[ActivityNode]) -> None:
        """Place the items before offset ``before``: an action opens a box,
        or joins a parallel open box of its zoom in a fork; a call joins the
        open box or opens an unnamed one. The open box is a last action, or
        a last fork's last action; any other node closes it."""
        items = self.items
        while items and items[-1].offset < before:
            item = items.pop()
            box = seq[-1] if seq else None
            if isinstance(box, ForkNode):
                box = box.actions[-1]
            if isinstance(item, Annotation):
                node = ActionNode(item.text, item.zoom, item.parallel, [])
                if not (item.parallel and isinstance(box, ActionNode)
                        and box.parallel and box.zoom == item.zoom):
                    seq.append(node)
                elif isinstance(seq[-1], ForkNode):
                    seq[-1].actions.append(node)
                else:
                    seq[-1] = ForkNode([box, node])
                continue
            key = (item.line, item.callee_text)
            hc = self.linked.get(key)
            if hc is None:
                entry = self.db.resolve(item, self.fn.file, self.diags)
                if entry is not None:
                    hc = (entry.qualified_name + "()", f"{entry.html_path}#{entry.anchor}")
                else:
                    self.diags.append(warning(
                        "no-link", f"no diagram found for call '{item.callee_text}'; "
                        "shown without a link", self.fn.file, item.line))
                    hc = (item.callee_text + "()", None)
                self.linked[key] = hc
            if not isinstance(box, ActionNode):
                box = ActionNode("", calls=[])  # no box is open: an unnamed one
                seq.append(box)
            box.calls.append(hc)

    # -- diagnostics ------------------------------------------------------

    def report_leftovers(self) -> None:
        # the condition descriptions, then the return descriptions
        for ann in sorted(self.descs.values(),
                          key=lambda a: (a.keyword == "return", a.target)):
            what = "return" if ann.keyword == "return" else "construct"
            self.diags.append(warning(
                "unused-condition-description",
                f"description '[{ann.text}]' was not applied to any "
                f"rendered {what}", self.fn.file, ann.line))


def project(root: list[ActivityNode], level: int) -> list[ActivityNode]:
    """The tree restricted to the nodes whose lowest level is at most level."""
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
                    out.append(LoopNode(node.post_test, node.label, body))
            elif isinstance(node, ForkNode):
                if node.actions[0].zoom <= level:
                    out.append(node)
            else:
                out.append(node)
        return out

    return filter_nodes(root)
