"""The ``//$`` annotation comment language.

Marker grammar, applied to a line comment's text:

    //$            action at zoom 0
    //$N           action at zoom N (digits attached to the marker)
    //$ <parallel> action participating in a fork with its neighbours
    //$ [text]     description for a following branch/loop condition or return

A ``//$`` comment on a line that already contains code is a call highlight
for that line. A bracket form standing before anything other than ``if``,
``else``, a loop keyword or ``return`` is kept as a plain action (brackets
and all) and reported, so a typo never silently drops documentation.

Binding of a standalone annotation to "the next statement" ignores blank
lines, ordinary comments and preprocessor directives, but another ``//$``
comment in between claims the statement for itself.
"""

from __future__ import annotations

import bisect
import re
from collections.abc import Sequence
from enum import Enum

from .cxx_structure import CallSite, CodeStream, FunctionDef, detect_calls
from .diagnostics import Diagnostic, sink, warning
from .scanner import Token


class AnnotationKind(Enum):
    ACTION = "action"
    CONDITION_DESC = "condition_desc"
    RETURN_DESC = "return_desc"
    CALL_HIGHLIGHT = "call_highlight"


class Annotation:
    __slots__ = ("kind", "text", "line", "offset", "zoom", "parallel",
                 "target", "calls")

    def __init__(self, kind: AnnotationKind, text: str, line: int, offset: int,
                 zoom: int = 0, parallel: bool = False):
        self.kind, self.text, self.line = kind, text, line
        self.offset = offset  # of the '//$' marker
        self.zoom, self.parallel = zoom, parallel
        # offset of the keyword a description binds to (test with 'is not None')
        self.target: int | None = None
        # call sites on a highlighted line
        self.calls: tuple[CallSite, ...] = ()


_MARKER_RE = re.compile(r"//\$(\d*)")
_PARALLEL_TAG = "<parallel>"


def parse_marker(comment_text: str) -> tuple[int, bool, str] | None:
    """Split a ``//$`` comment into (zoom, parallel, payload text).

    Returns None for comments that are not annotations. Zoom digits must sit
    directly against the marker; ``//$ 1) step one`` is an action whose text
    begins with "1)", not a zoom-1 action.
    """
    m = _MARKER_RE.match(comment_text)
    if m is None:
        return None
    zoom = int(m.group(1)) if m.group(1) else 0
    rest = comment_text[m.end():].lstrip()
    parallel = False
    if rest.startswith(_PARALLEL_TAG):
        parallel = True
        rest = rest[len(_PARALLEL_TAG):].lstrip()
    return zoom, parallel, rest.rstrip()


def _bracket_payload(text: str) -> str | None:
    if len(text) >= 2 and text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if inner:
            return inner
    return None


_DESC_KINDS = {"if": AnnotationKind.CONDITION_DESC,
               "else": AnnotationKind.CONDITION_DESC,
               "loop": AnnotationKind.CONDITION_DESC,
               "return": AnnotationKind.RETURN_DESC}


def classify(comment: Token, following_kind: str | None,
             standalone: bool) -> Annotation | None:
    """Pure classification of one comment token.

    following_kind is one of "if", "else", "loop", "return", "other" or
    None (nothing follows); it is only consulted for standalone
    bracket-form annotations.
    """
    parsed = parse_marker(comment.text)
    if parsed is None:
        return None
    zoom, parallel, text = parsed
    if not standalone:
        return Annotation(AnnotationKind.CALL_HIGHLIGHT, text, comment.line,
                          comment.offset)
    inner = _bracket_payload(text)
    kind = _DESC_KINDS.get(following_kind)
    if inner is not None and kind is not None:
        return Annotation(kind, inner, comment.line, comment.offset)
    # an orphan bracket is demoted to an action, brackets preserved
    return Annotation(AnnotationKind.ACTION, text, comment.line, comment.offset,
                      zoom=zoom, parallel=parallel)


def collect(view: CodeStream, file: str = "<input>",
            diags: list[Diagnostic] | None = None,
            defs: Sequence[FunctionDef] = ()) -> list[Annotation]:
    """All annotations of a source's lexed view, in source order.

    A highlight keeps the call sites among the lexemes of its line, after
    the ``{`` of the body of ``defs`` (in source order) that holds the
    marker if it opens there: a definition's declarator is no call.
    Postfix highlights whose line holds no detectable call are dropped with
    a diagnostic; orphan bracket annotations are kept as actions and
    reported.
    """
    diags = sink(diags)
    body_starts = [fn.body_start.offset for fn in defs]
    markers = view.markers
    out: list[Annotation] = []
    for k, tok in enumerate(markers):
        if view.code_by_line.get(tok.line, "").strip():
            lo = view.index_at_or_after(view.line_starts[tok.line - 1])
            d = bisect.bisect_left(body_starts, tok.offset) - 1
            if (d >= 0 and defs[d].body_start.line == tok.line
                    and tok.offset < defs[d].body_end.offset):
                lo = view.index_at_or_after(body_starts[d]) + 1
            calls = detect_calls(view, lo, view.index_at_or_after(tok.offset))
            if not calls:
                diags.append(warning(
                    "dangling-call-highlight",
                    "postfix '//$' on a line with no detectable call; ignored",
                    file, tok.line))
                continue
            ann = classify(tok, None, standalone=False)
            ann.calls = tuple(calls)
            out.append(ann)
            continue
        # the next '//$' comment claims whatever follows it
        block_at = markers[k + 1].offset if k + 1 < len(markers) else None
        following_kind, target = _following_context(view, tok, block_at)
        ann = classify(tok, following_kind, standalone=True)
        if ann.kind is AnnotationKind.ACTION:
            if _bracket_payload(ann.text) is not None:
                diags.append(warning(
                    "orphan-bracket-annotation",
                    "'[...]' annotation does not precede a branch, loop or "
                    "return; kept as a plain action",
                    file, tok.line))
        else:
            ann.target = target
        out.append(ann)
    return out


def _following_context(view: CodeStream, tok: Token, block_at: int | None
                       ) -> tuple[str | None, int | None]:
    """Kind and keyword offset of the code construct following a comment.

    Scans past whitespace, plain comments and preprocessor lines. The
    ``//$`` comment at offset block_at, if any, blocks the binding.
    """
    k = view.index_at_or_after(tok.offset + len(tok.text))
    lx = view.lexemes
    if k >= len(lx):
        return None, None
    if block_at is not None and lx[k].offset > block_at:
        return None, None
    word = lx[k].text
    if word in ("while", "for", "do"):
        return "loop", lx[k].offset
    if word in ("if", "else", "return"):
        return word, lx[k].offset
    return "other", None
