"""The ``//$`` annotation comment language.

Marker grammar, applied to a line comment's text, from which each backslash
and the line break it continues are removed, as C++ splices lines:

    //$            action at zoom 0
    //$N           action at zoom N (digits attached to the marker)
    //$ <parallel> action participating in a fork with its neighbours
    //$ [text]     description for a following branch/loop condition or return

A ``//$`` comment on a line that already contains code is a call highlight
for that line; anything after its marker is reported, not drawn. A
description binds to the first lexeme after its comment, past blank lines,
ordinary comments and preprocessor directives, unless the next ``//$``
comment comes before that lexeme. A bracket form bound to
anything other than ``if``, ``else``, a loop keyword or ``return`` is kept
as a plain action (brackets and all) and reported, so a typo never silently
drops documentation. A zoom above ``MAX_ZOOM`` is drawn at ``MAX_ZOOM`` and
reported, so one marker cannot ask for unbounded diagrams.

What a marker means is decided here once, into values: an ``Annotation``
is an action or a description, and a highlight is the ``CallSite``s it draws.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Sequence

from .cxx_structure import CallSite, CodeStream, FunctionDef, body_holding, detect_calls
from .diagnostics import warning


class Annotation(namedtuple("Annotation", "text line offset zoom parallel target keyword",
                            defaults=(0, False, None, None))):
    """An action, or a description bound to the keyword at offset target;
    offset is that of the '//$' marker."""
    __slots__ = ()


# zoom digits touching the marker, an optional leading tag, then the text
# without its surrounding whitespace
_MARKER_RE = re.compile(r"//\$(\d*)\s*(<parallel>)?\s*(.*?)\s*\Z", re.S)
_DESC_RE = re.compile(r"\[\s*(\S.*?)\s*\]\Z", re.S)
# a backslash and the line break it continues, in a comment that runs on
_SPLICE = re.compile(r"\\\r?\n")
MAX_ZOOM = 99
_DESC_WORDS = {"if", "else", "while", "for", "do", "return"}


def collect(view: CodeStream, defs: Sequence[FunctionDef]
            ) -> dict[int, list[Annotation | CallSite]]:
    """The annotations of a source's lexed view, in source order, by the
    index in ``defs`` (its definitions, in source order) of the definition
    each belongs to, in index order; diagnostics go to ``view.diags``. An
    action or description is an ``Annotation``; a highlight is the
    ``CallSite``s it draws, each one entry.

    This is the one place that decides which annotations belong to a
    function. A marker belongs to the body whose braces enclose it
    (``body_holding``), so a line two bodies share gives it to one of them.
    A highlight draws the call sites on its line, before its marker, that
    lie in a body, so a declarator is no call. It goes to its marker's body,
    or, past every body, to that of its first call; a call in another body
    is reported, and so is any text after its marker, which is not drawn.
    One in a body with no call there is dropped and reported. Any other
    marker outside every body is reported alone and dropped; orphan bracket
    annotations are kept as actions and reported.
    """
    markers, lx = view.markers, view.lexemes
    held: dict[int, list[Annotation | CallSite]] = {}
    for k, tok in enumerate(markers):
        spliced = _SPLICE.sub("", tok.text) if "\n" in tok.text else tok.text
        digits, parallel, text = _MARKER_RE.match(spliced).groups()
        line = view.line(tok.offset)
        home = body_holding(defs, tok.offset)
        if line in view.code_lines:
            lo = view.index_at_or_after(view.line_starts[line - 1])
            calls = [(d, c) for c in detect_calls(view, lo, view.index_at_or_after(tok.offset))
                     if (d := body_holding(defs, c.offset)) is not None]
            home = calls[0][0] if home is None and calls else home
            for d, c in calls:
                if d != home:
                    view.diags.append(warning(
                        "unplaced-marker", f"call '{c.callee_text}' lies outside the "
                        "function body its '//$' is drawn in; not drawn", view.file, line))
            drawn = tuple(c for d, c in calls if d == home)
            if drawn:
                if digits or parallel or text:
                    view.diags.append(warning(
                        "ignored-highlight-text", "zoom digits, tag and text after a "
                        "call-highlighting '//$' are not drawn", view.file, line))
                held.setdefault(home, []).extend(drawn)
                continue
            if home is not None:
                view.diags.append(warning(
                    "dangling-call-highlight",
                    "postfix '//$' on a line with no detectable call; ignored",
                    view.file, line))
                continue
        if home is None:
            view.diags.append(warning(
                "unplaced-marker", "'//$' outside every recognized function body; "
                "not drawn", view.file, line))
            continue
        desc = _DESC_RE.match(text)
        i = view.index_at_or_after(tok.offset + len(tok.text))
        if desc and i < len(lx) and lx[i].text in _DESC_WORDS and (
                k + 1 == len(markers) or lx[i].offset < markers[k + 1].offset):
            held.setdefault(home, []).append(Annotation(
                desc[1], line, tok.offset, target=lx[i].offset, keyword=lx[i].text))
            continue
        if desc:
            view.diags.append(warning(
                "orphan-bracket-annotation",
                "'[...]' annotation does not precede a branch, loop or "
                "return; kept as a plain action",
                view.file, line))
        # int() refuses a run of more than 4300 digits; one that long is too deep
        zoom = int(digits or 0) if len(digits) <= 4300 else MAX_ZOOM + 1
        if zoom > MAX_ZOOM:
            view.diags.append(warning(
                "zoom-too-deep",
                f"zoom levels above {MAX_ZOOM} are not drawn; "
                f"this action is drawn at zoom {MAX_ZOOM}",
                view.file, line))
        held.setdefault(home, []).append(Annotation(
            text, line, tok.offset, min(zoom, MAX_ZOOM), parallel is not None))
    return held
