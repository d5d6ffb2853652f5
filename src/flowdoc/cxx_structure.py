"""Structural recognition of C++ function definitions and statement shape.

This is deliberately not a C++ parser. Working on the lexemes of a
``CodeStream``, the lexed view of the scanner's code, it recognizes just
enough structure for flowcharting:

* function definitions (including out-of-line members, constructors and
  destructors), qualified through a tracked namespace/class context,
* per-body statement trees with if/else-if/else chains, the three loop
  forms, returns, and opaque Plain statements for everything else,
* call sites.

Positions are character offsets into the source, as the lexed view holds
them: a statement spans the offsets of its first and last lexeme and records
those of the keywords a description can bind to; only diagnostics and call
sites look lines up. A statement is an immutable ``Stmt``, built whole: an
If arm carries its condition and keyword from the start. The view pairs
every bracket with its closer once, angle brackets included, so skipping a
body, a group or an initializer is a lookup, not a rescan. An angle pair is
read only where a template is expected: in code ``<`` and ``>`` may compare.
It also carries its source's name and diagnostic list, ``view.file`` and
``view.diags``: every layer that reads the view reports there.

Declarations (ending in ``;``), lambdas, local classes, operator overloads
(``operator bool()`` and ``operator"" _km`` too) and ``switch``/``try``
bodies stay opaque: they are brace-matched and skipped, never mis-read.
Preprocessor content is ignored entirely, so code hidden behind conditional
compilation can unbalance braces; that surfaces as a diagnostic rather than
silent misparsing.
"""

from __future__ import annotations

import bisect
import re
from collections import namedtuple
from collections.abc import Sequence
from enum import Enum
from operator import attrgetter

from .diagnostics import Diagnostic, warning
from .scanner import _OFFSET, LexKind, line_code_map, scan

_CLOSER = {"(": ")", "[": "]", "{": "}"}
_BRACKETS = frozenset("()[]{}<>")
_DECLARATION_PUNCT = frozenset("(){};:")


class CodeStream:
    """The lexed view of one source file, built from its text with one
    ``scanner.scan`` and shared by every layer that reads it.

    ``lexemes`` are the scanner's: no comment or directive, and each
    string/char literal one opaque lexeme (its text keeps the quotes, so it
    is never mistaken for a bracket). ``markers`` are its ``//$`` comments,
    each with its text and offset. A position is a character offset into
    ``source``, and ``line`` maps it to its line; ``code_lines``, from
    ``scanner.line_code_map``, holds the lines on which a lexeme starts.
    ``partner`` maps the index of each ``(``, ``[`` and ``{`` lexeme to the
    index of its closer, found with one stack per bracket type; an opener
    never closed has no entry. ``angle``, from the same pass, maps each ``<``
    to the ``>`` that closes it within one bracket group, and back; a closer
    that is unpaired or crosses another bracket ends the ``<``s open before
    it. A pair is read only where a template is expected. ``file`` names the
    source in diagnostics, and ``diags`` is the list that the scanner and
    every layer reading the view append them to.
    """

    def __init__(self, text: str, file: str, diags: list[Diagnostic]):
        lexemes, self.markers = scan(text, file, diags)
        self.source, self.file, self.diags, self.lexemes = text, file, diags, lexemes
        self.line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
        self.code_lines = line_code_map(lexemes, self.line_starts)
        self.partner: dict[int, int] = {}
        self.angle: dict[int, int] = {}
        # the open brackets of each type, keyed by their closer
        open_at: dict[str, list[int]] = {")": [], "]": [], "}": []}
        # per group, innermost last, its opener and the '<'s open in it: the
        # file's, then one per opener until its closer comes while innermost
        groups: list[tuple[int, list[int]]] = [(-1, [])]
        for i, b in [(i, l[0]) for i, l in enumerate(lexemes) if l[0] in _BRACKETS]:
            if b in _CLOSER:
                open_at[_CLOSER[b]].append(i)
                groups.append((i, []))
            elif b in open_at:
                o = open_at[b].pop() if open_at[b] else None
                if o is not None:
                    self.partner[o] = i
                if groups[-1][0] == o:
                    groups.pop()
                else:  # unpaired, or closing across another bracket
                    groups = [(-1, [])]  # no '<' open before it pairs
            elif b == "<":
                groups[-1][1].append(i)
            elif groups[-1][1]:  # a '>' that closes a '<'
                self.angle[i] = o = groups[-1][1].pop()
                self.angle[o] = i

    def line(self, offset: int) -> int:
        """1-based line of a character offset."""
        return bisect.bisect_right(self.line_starts, offset)

    def index_at_or_after(self, offset: int) -> int:
        return bisect.bisect_left(self.lexemes, offset, key=_OFFSET)


# body_start: the offset of '{', body_end that of the matching '}'
FunctionDef = namedtuple("FunctionDef",
                         "qualified_name signature_text body_start body_end file")
# callee_text as written, e.g. "vinciaOBJ->shower"; normalized_name the lookup
# key, e.g. "shower" or "VINCIA::shower"; offset that of the chain's first lexeme
CallSite = namedtuple("CallSite", "callee_text normalized_name line offset")


class StmtKind(Enum):
    PLAIN = "plain"
    BLOCK = "block"
    IF = "if"
    LOOP = "loop"  # a while or for loop: its test comes first
    DO_WHILE = "do_while"
    RETURN = "return"


class Stmt(namedtuple("Stmt", "kind span condition_text children keywords",
                      defaults=(None, (), ()))):
    """One statement. An If's children are its arms, in order: Blocks that
    carry their own condition (None for a bare else) and keyword.

    ``span`` holds the offsets of the first and last lexeme; a body's root
    spans its braces, and an arm starts right after its header, so it holds
    the comments between them. ``condition_text`` is a loop's or an If
    arm's. ``keywords`` are the offsets of those a description binds to:
    the arm's 'if' or 'else', the loop's ('do' and its 'while'), 'return'.
    """
    __slots__ = ()


# Blocks nested deeper than this below a function body are kept as one
# opaque statement, which bounds the recursion of every tree walk.
MAX_NESTING = 128

_CLASS_KEYS = ("class", "struct", "union")
_ACCESS = ("public", "private", "protected")
_TRAILING_WORDS = {"const", "volatile", "noexcept", "override", "final",
                   "mutable", "constexpr", "throw", "try"}
# words that never name a function or a scope of one
_NOT_NAMES = {
    "if", "else", "while", "for", "do", "switch", "catch", "return", "goto",
    "new", "delete", "sizeof", "alignof", "alignas", "decltype", "typeid",
    "operator", "case", "default", "using", "static_assert", "asm",
    "requires", "noexcept", "throw", "void", "bool", "char", "short", "int",
    "long", "float", "double", "signed", "unsigned", "auto",
}
# how a name chain is read, by its reader: the separators it may hold,
# whether a scope keeps its template arguments in the name, and whether a
# '~' before the last word joins it only after a separator
_DECLARATOR = (("::",), True, False)
_CALLEE = (("::", ".", "->"), False, True)


_Scope = namedtuple("_Scope", "kind name open_line")  # kind 'namespace', 'class' or 'extern'


def find_definitions(view: CodeStream) -> list[FunctionDef]:
    """Recognize function definitions in source order.

    The restricted pattern is: optional template header, return-type tokens,
    a ``::``-qualified identifier (``~`` allowed for destructors), a balanced
    parameter list, optional trailing specifiers or a constructor initializer
    list, then ``{``. The one walk over a declaration marks the ``(`` of each
    top-level group it steps over and each stray ``)``, and its groups are
    read from these marks. Each body is skipped to the partner of its ``{``,
    so nothing inside a function can be mistaken for another definition.
    """
    lx, partner = view.lexemes, view.partner
    defs: list[FunctionDef] = []
    scopes: list[_Scope] = []
    start = 0  # the pending declaration is lx[start:i]
    marks: list[int] = []  # the '(' of each of its groups and each stray ')'
    unbalanced = 0  # the line of the first brace found unmatched
    i = 0
    n = len(lx)
    while i < n:
        t = lx[i].text
        if t not in _DECLARATION_PUNCT:
            i += 1
            continue
        if t == "(" or t == ")":
            # a group stays in the declaration, an unclosed one ends it
            marks.append(i)
            i = partner.get(i, n - 1) + 1 if t == "(" else i + 1
            continue
        if t == "{":
            decision, payload = _analyze_buffer(view, start, i, marks)
            close = partner.get(i)
            if decision in ("namespace", "class", "extern"):
                scopes.append(_Scope(decision, payload, view.line(lx[i].offset)))
                close = i  # step past the '{' alone; its '}' pops the scope
            elif close is None:
                unbalanced = unbalanced or view.line(lx[i].offset)
                close = n - 1
            if decision == "initializer":  # it stays in the declaration, its parentheses marked
                marks += [k for k in range(i + 1, close) if lx[k].text in ("(", ")")]
                i = close + 1
                continue
            if decision == "function":
                qualifiers = [s.name for s in scopes if s.name]
                signature = view.source[lx[start].offset:lx[i].offset].strip()
                defs.append(FunctionDef("::".join(qualifiers + [payload]), signature,
                                        lx[i].offset, lx[close].offset, view.file))
            i = close  # a body, or an opaque enum body, initializer, lambda: skipped whole
        elif t == "}":
            if scopes:
                scopes.pop()
            else:
                unbalanced = unbalanced or view.line(lx[i].offset)
        elif t == ":" and not (i - start == 1 and scopes and scopes[-1].kind == "class"
                               and lx[start].text in _ACCESS):
            i += 1
            continue
        i += 1  # the declaration ends
        start = i
        marks = []

    if unbalanced or scopes:
        view.diags.append(warning("unbalanced-braces", "unbalanced braces", view.file,
                                  unbalanced or scopes[0].open_line))
    return defs


def _analyze_buffer(view: CodeStream, s: int, e: int, marks: list[int]):
    """Classify the pending declaration lexemes [s, e), which end at a '{',
    given the marks of its walk (``find_definitions``).

    Returns ("function" or "initializer", name_chain), ("namespace" or
    "class", name|None) or ("extern" or "opaque", None).
    """
    lx = view.lexemes
    s = _past_attributes(view, s, e)
    while s + 1 < e and lx[s].text == "template" and lx[s + 1].text == "<":
        s = _past_attributes(view, view.angle.get(s + 1, e) + 1, e)
    if s >= e:
        return "opaque", None

    # The top-level groups of [s, e): a mark before s or inside the last
    # group starts none. A group across s, a stray ')' or a group still open
    # at the '{' leaves no function to match.
    groups, reach = [], s
    for k in marks:
        close = view.partner.get(k, e) if lx[k].text == "(" else -1
        if k >= reach and k < close < e:
            groups.append((k, close))
            reach = close + 1
        elif k >= reach or close >= reach:
            groups = ()
            break
    # Earlier groups first: in "Foo::Foo(int n) : m_(n) {" the parameter
    # list is the first top-level group, the rest are member initializers.
    for op, cl in groups:
        decision = _trailing(view, cl + 1, e)
        chain = _name_chain(view, s, op, _DECLARATOR) if decision else None
        if chain is not None:
            return decision, chain[1]

    toks = lx[s:e]
    head = toks[0].text
    if head == "namespace" or (head == "inline" and len(toks) > 1 and toks[1].text == "namespace"):
        start = 1 if head == "namespace" else 2
        parts = [t.text for t in toks[start:] if t.kind is LexKind.WORD or t.text == "::"]
        return "namespace", "".join(parts) or None
    if head == "extern" and len(toks) == 2 and toks[1].kind is LexKind.LIT:
        return "extern", None

    for idx, t in enumerate(toks):
        if t.text == "enum":
            return "opaque", None
        if t.text in _CLASS_KEYS:  # named by its last word before any base clause
            name = None
            for w in toks[idx + 1:]:
                if w.text == ":":
                    break
                if w.kind is LexKind.WORD and w.text != "final":
                    name = w.text
            return "class", name
    return "opaque", None


def _trailing(view: CodeStream, k: int, e: int) -> str | None:
    """What the lexemes [k, e) after a parameter list make of the '{' at e:
    "function" or "initializer", else None."""
    lx = view.lexemes
    while (k := _past_attributes(view, k, e)) < e:
        t = lx[k].text
        if t == ":":  # a constructor initializer list: a '{' after a word or
            # a closing '>' opens a member initializer, after ')' or '}' the body
            member = lx[e - 1].kind is LexKind.WORD or lx[e - 1].text == ">"
            return "initializer" if member else "function"
        if t == "->":
            return "function"  # trailing return type
        if t not in _TRAILING_WORDS and t != "&":
            return None
        k += 1
        if t in ("noexcept", "throw") and k < e and lx[k].text == "(":
            k = min(view.partner.get(k, e) + 1, e)
    return "function"


def _past_attributes(view: CodeStream, k: int, e: int) -> int:
    """The index past the ``[[...]]`` lists that start at lexeme k, at most e."""
    lx = view.lexemes
    while k + 1 < e and lx[k].text == lx[k + 1].text == "[":
        k = min(view.partner.get(k, e) + 1, e)
    return k


def _name_chain(view: CodeStream, lo: int, op: int, rules) -> tuple[int, str] | None:
    """The index of the first lexeme and the name of the chain that ends
    right before lexeme op, read back no lower than lo by ``rules``,
    ``_DECLARATOR`` or ``_CALLEE``: a word with the ``~`` before it, then
    separator + word pairs, a word before ``::`` with its template arguments.
    It stops before a word of ``_NOT_NAMES``, and is None when that is its
    last word or when an ``operator`` comes before it, a literal between
    them or not. Its name is the part after the last ``.`` or ``->``."""
    seps, keep_args, tilde_after_sep = rules
    lx = view.lexemes
    k = op - 1
    if k < lo or lx[k].kind is not LexKind.WORD or lx[k].text in _NOT_NAMES:
        return None
    name, scoped = lx[k].text, True
    if k > lo and lx[k - 1].text == "~" and (
            not tilde_after_sep or k - 2 >= lo and lx[k - 2].text in seps):
        k -= 1
        name = "~" + name
    while k - 2 >= lo and lx[k - 1].text in seps:
        sep, q = lx[k - 1].text, k - 2
        if sep == "::" and lx[q].text == ">":
            q = view.angle.get(q, lo) - 1
        if q < lo or lx[q].kind is not LexKind.WORD or lx[q].text in _NOT_NAMES:
            break
        scoped = scoped and sep == "::"
        if scoped:
            scope = lx[q:k - 1] if keep_args else lx[q:q + 1]
            name = "".join(t.text for t in scope) + "::" + name
        k = q
    j = k - 1 if k - 1 >= lo and lx[k - 1].kind is LexKind.LIT else k
    return None if j - 1 >= lo and lx[j - 1].text == "operator" else (k, name)


def body_holding(defs: Sequence[FunctionDef], offset: int) -> int | None:
    """The index of the definition of ``defs`` (in source order, as
    ``find_definitions`` gives them) whose body's braces enclose offset."""
    d = bisect.bisect_left(defs, offset, key=attrgetter("body_start")) - 1
    return d if d >= 0 and offset < defs[d].body_end else None


# ---------------------------------------------------------------------------
# statement trees

def parse_body(fn: FunctionDef, view: CodeStream) -> Stmt:
    """Parse a recognized function body into a statement tree, whose root
    is a Block spanning the braces."""
    lo = view.index_at_or_after(fn.body_start)
    hi = view.index_at_or_after(fn.body_end)
    return Stmt(StmtKind.BLOCK, (fn.body_start, fn.body_end),
                children=_BodyParser(view).parse_range(lo + 1, hi))


def detect_calls(view: CodeStream, lo: int, hi: int) -> list[CallSite]:
    """Call sites among the lexemes [lo, hi), in order of their ``(``.

    A call is the name chain (``_name_chain``) of ``::``, ``.`` and ``->``
    right before a ``(``, never below lo; a ``~`` joins its last word only
    after a separator (``p->~T()``). The callee text is the chain as
    written, each gap that holds a comment one space; its lookup name drops
    template arguments.
    """
    lx = view.lexemes
    out = []
    for k in range(lo + 1, hi):
        chain = _name_chain(view, lo, k, _CALLEE) if lx[k].text == "(" else None
        if chain is None:
            continue
        first, name = chain
        text = lx[first].text
        for a, b in zip(lx[first:k - 1], lx[first + 1:k]):
            gap = view.source[a.offset + len(a.text):b.offset]
            text += (" " if gap.strip() else gap) + b.text
        out.append(CallSite(text, name, view.line(lx[first].offset), lx[first].offset))
    return out


class _BodyParser:
    def __init__(self, view: CodeStream):
        self.view = view
        self.lx = view.lexemes
        self.partner = view.partner
        self.file, self.diags = view.file, view.diags
        self.depth = 0  # blocks and unbraced arms entered, the body included

    def _span(self, i: int, j: int) -> tuple[int, int]:  # lexemes i through j
        return self.lx[i].offset, self.lx[j].offset

    def parse_range(self, lo: int, hi: int) -> tuple[Stmt, ...]:
        """The statements of a block's interior [lo, hi). Past MAX_NESTING
        blocks below the function body it is one opaque statement."""
        if self.depth > MAX_NESTING and lo < hi:
            return (self._opaque(lo, hi),)
        self.depth += 1
        out: list[Stmt] = []
        i = lo
        while i < hi:
            stmt, i = self.parse_one(i, hi)
            if stmt is not None:
                out.append(stmt)
        self.depth -= 1
        return tuple(out)

    def parse_one(self, i: int, hi: int) -> tuple[Stmt | None, int]:
        i = self._past_labels(i, hi)
        if i >= hi:
            return None, i
        t = self.lx[i].text
        if t == ";":
            return None, i + 1
        if t == "{":
            close = self.partner.get(i, hi)
            nxt = close + 1
            if close >= hi:
                close, nxt = max(hi - 1, i), hi
            return Stmt(StmtKind.BLOCK, self._span(i, close),
                        children=self.parse_range(i + 1, close)), nxt
        if t == "if":
            return self._parse_if(i, hi)
        if t in ("while", "for"):
            return self._parse_loop(i, hi)
        if t == "do":
            return self._parse_do(i, hi)
        if t in ("switch", "try"):
            return self._parse_opaque_construct(i, hi)
        return self._parse_plain(i, hi)

    # -- helpers ---------------------------------------------------------

    def _past_labels(self, i: int, hi: int) -> int:
        """Past the labels (``name :``) and ``[[...]]`` lists before a statement."""
        lx = self.lx
        i = _past_attributes(self.view, i, hi)
        while i + 1 < hi and lx[i].kind is LexKind.WORD and lx[i + 1].text == ":":
            i = _past_attributes(self.view, i + 2, hi)
        return i

    def _group(self, i: int, hi: int):
        """The condition header at i, a balanced (...) after an optional
        'constexpr': (interior_text, close) or None."""
        if i < hi and self.lx[i].text == "constexpr":
            i += 1
        if i >= hi or self.lx[i].text != "(":
            return None
        close = self.partner.get(i, hi)
        if close >= hi:
            return None
        return self.view.source[self.lx[i].offset + 1:self.lx[close].offset], close

    def _malformed(self, i: int, hi: int, what: str) -> tuple[Stmt, int]:
        self.diags.append(warning("malformed-control-header",
                                  f"malformed {what} header; treating as plain statement",
                                  self.file, self.view.line(self.lx[i].offset)))
        return self._parse_plain(i, hi)

    def _opaque(self, lo: int, hi: int) -> Stmt:
        """The lexemes [lo, hi) past the nesting bound as one statement."""
        self.diags.append(warning("nesting-too-deep",
                                  f"statements nested more than {MAX_NESTING} "
                                  f"blocks deep are kept as one opaque statement",
                                  self.file, self.view.line(self.lx[lo].offset)))
        return Stmt(StmtKind.PLAIN, self._span(lo, hi - 1))

    def _substatement(self, i: int, hi: int, cond: str | None = None,
                      keywords: tuple[int, ...] = ()) -> tuple[Stmt, int]:
        """One statement (or braced block) as a Block arm with cond and
        keywords, which starts right after its header, the lexeme before i."""
        head = self.lx[i - 1]
        start = head.offset + len(head.text)
        i = self._past_labels(i, hi)
        if i >= hi:
            end, children, nxt = start, (), i
        elif self.lx[i].text == "{":
            block, nxt = self.parse_one(i, hi)
            end, children = block.span[1], block.children
        else:
            if self.depth > MAX_NESTING:
                nxt = self._consume_simple(i, hi)
                stmt = self._opaque(i, nxt)
            else:
                self.depth += 1
                stmt, nxt = self.parse_one(i, hi)
                self.depth -= 1
            end, children = ((self.lx[i].offset, ()) if stmt is None
                             else (stmt.span[1], (stmt,)))
        return Stmt(StmtKind.BLOCK, (start, end), cond, children, keywords), nxt

    # -- statement forms -------------------------------------------------

    def _parse_if(self, i: int, hi: int) -> tuple[Stmt, int]:
        grp = self._group(i + 1, hi)
        if grp is None:
            return self._malformed(i, hi, "if")
        arms: list[Stmt] = []
        keyword = i
        while True:
            cond, close = grp
            arm, j = self._substatement(close + 1, hi, cond, (self.lx[keyword].offset,))
            arms.append(arm)
            if cond is None or j >= hi or self.lx[j].text != "else":
                break
            keyword = j
            if j + 1 < hi and self.lx[j + 1].text == "if":
                grp = self._group(j + 2, hi)
                if grp is None:
                    self.diags.append(warning(
                        "malformed-control-header", "malformed else-if header",
                        self.file, self.view.line(self.lx[j].offset)))
                    break
            else:
                grp = None, j  # a bare else: its arm starts after the keyword
        return Stmt(StmtKind.IF, (self.lx[i].offset, arms[-1].span[1]), None, tuple(arms)), j

    def _parse_loop(self, i: int, hi: int) -> tuple[Stmt, int]:
        grp = self._group(i + 1, hi)
        if grp is None:
            return self._malformed(i, hi, self.lx[i].text)
        cond, close = grp
        body, j = self._substatement(close + 1, hi)
        return Stmt(StmtKind.LOOP, (self.lx[i].offset, body.span[1]), cond, (body,),
                    (self.lx[i].offset,)), j

    def _parse_do(self, i: int, hi: int) -> tuple[Stmt, int]:
        body, w = self._substatement(i + 1, hi)
        grp = self._group(w + 1, hi) if w < hi and self.lx[w].text == "while" else None
        if grp is None:
            return self._malformed(i, hi, "do-while")
        cond, close = grp
        j = close + 1
        if j < hi and self.lx[j].text == ";":
            j += 1
        return Stmt(StmtKind.DO_WHILE, self._span(i, min(j, hi) - 1), cond, (body,),
                    (self.lx[i].offset, self.lx[w].offset)), j

    def _parse_opaque_construct(self, i: int, hi: int) -> tuple[Stmt, int]:
        # switch (...) { ... } and try { ... } catch (...) { ... } ... consumed
        # as one Plain statement, their bodies skipped unread
        j = i
        while True:
            grp = self._group(j + 1, hi)
            j = j + 1 if grp is None else grp[1] + 1
            if j < hi and self.lx[j].text == "{":
                j = min(self.partner.get(j, hi) + 1, hi)
            else:
                j = self._consume_simple(j, hi)
            if j >= hi or self.lx[j].text != "catch":
                break
        return Stmt(StmtKind.PLAIN, self._span(i, j - 1)), j

    def _parse_plain(self, i: int, hi: int) -> tuple[Stmt, int]:
        """A statement through its ';'; a return keeps its keyword."""
        j = self._consume_simple(i, hi)
        if self.lx[i].text == "return":
            return Stmt(StmtKind.RETURN, self._span(i, j - 1),
                        keywords=(self.lx[i].offset,)), j
        return Stmt(StmtKind.PLAIN, self._span(i, j - 1)), j

    def _consume_simple(self, i: int, hi: int) -> int:
        """Advance past one non-control statement: everything through the
        next ';' at group depth zero. Nested (), [], {} are skipped whole,
        which keeps lambdas and brace initializers opaque."""
        j = i
        while j < hi:
            t = self.lx[j].text
            if t == ";":
                return j + 1
            if t in _CLOSER:
                j = min(self.partner.get(j, hi) + 1, hi)
                continue
            j += 1
        return hi
