"""Structural recognition of C++ function definitions and statement shape.

This is deliberately not a C++ parser. Working on the scanner's Code tokens,
it recognizes just enough structure for flowcharting:

* function definitions (including out-of-line members, constructors and
  destructors), qualified through a tracked namespace/class context,
* per-body statement trees with if/else-if/else chains, the three loop
  forms, returns, and opaque Plain statements for everything else,
* call sites, inspected only on lines that carry a postfix ``//$`` marker.

Declarations (ending in ``;``), lambdas, local classes, operator overloads
and the bodies of ``switch``/``try`` stay opaque: they are brace-matched and
skipped, never mis-read. Preprocessor content is ignored entirely, so code
hidden behind conditional compilation can unbalance braces; that surfaces as
a diagnostic rather than silent misparsing.
"""

from __future__ import annotations

import bisect
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum

from .diagnostics import Diagnostic, error, sink, warning
from .scanner import Token, TokenKind, line_code_map, source_of


class LexKind(Enum):
    WORD = "word"
    NUM = "num"
    PUNCT = "punct"
    LIT = "lit"


@dataclass(frozen=True)
class Lexeme:
    text: str
    offset: int
    kind: LexKind


# identifiers, pp-numbers (digit separators included), '::', '->', then any
# single non-space character
_LEXEME_RE = re.compile(r"[A-Za-z_]\w*|\.?[0-9](?:[\w.']|[eEpP][+-])*|::|->|\S")


class CodeStream:
    """The lexed view of one source file, built once and shared by every
    layer that reads it.

    Comments and preprocessor tokens vanish from ``lexemes``; string/char
    literals become single opaque lexemes (their text keeps the quotes, so
    they can never be mistaken for braces or parentheses). The view also
    carries the offset -> (line, col) mapping, the per-line code text of
    ``scanner.line_code_map`` and the ``//$`` comments, so the token list
    need not outlive it.
    """

    def __init__(self, tokens: list[Token]):
        self.source = source_of(tokens)
        self.line_starts = [0] + [m.end() for m in re.finditer("\n", self.source)]
        self.code_by_line = line_code_map(tokens)
        self.markers: list[Token] = []  # '//$' line comments, in source order
        lexemes: list[Lexeme] = []
        for tok in tokens:
            if tok.kind is TokenKind.LINE_COMMENT and tok.text.startswith("//$"):
                self.markers.append(tok)
            elif tok.kind is TokenKind.CODE:
                for m in _LEXEME_RE.finditer(tok.text):
                    text = m.group()
                    first = text[0]
                    if first.isalpha() or first == "_":
                        kind = LexKind.WORD
                    elif first.isdigit() or (first == "." and len(text) > 1):
                        kind = LexKind.NUM
                    else:
                        kind = LexKind.PUNCT
                    lexemes.append(Lexeme(text, tok.offset + m.start(), kind))
            elif tok.kind in (TokenKind.STRING_LIT, TokenKind.CHAR_LIT):
                lexemes.append(Lexeme(tok.text, tok.offset, LexKind.LIT))
        self.lexemes = lexemes
        self._offsets = [l.offset for l in lexemes]

    def pos(self, offset: int) -> tuple[int, int]:
        """1-based (line, col) of a character offset."""
        idx = bisect.bisect_right(self.line_starts, offset) - 1
        return idx + 1, offset - self.line_starts[idx] + 1

    def index_at_or_after(self, offset: int) -> int:
        return bisect.bisect_left(self._offsets, offset)


@dataclass(frozen=True)
class SourcePos:
    line: int
    col: int
    offset: int


@dataclass(frozen=True)
class FunctionDef:
    qualified_name: str
    signature_text: str
    body_start: SourcePos  # position of '{'
    body_end: SourcePos    # position of the matching '}'
    file: str


@dataclass(frozen=True)
class CallSite:
    callee_text: str        # as written, e.g. "vinciaOBJ->shower"
    normalized_name: str    # lookup key, e.g. "shower" or "VINCIA::shower"
    line: int


class StmtKind(Enum):
    PLAIN = "plain"
    BLOCK = "block"
    IF = "if"
    WHILE = "while"
    DO_WHILE = "do_while"
    FOR = "for"
    RETURN = "return"


@dataclass
class Stmt:
    kind: StmtKind
    span: tuple[int, int]  # first and last source line, inclusive
    condition_text: str | None = None
    children: list["Stmt"] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    # The sequences below that most kinds leave empty default to (), not to
    # a list per statement, because a run keeps every annotated function's
    # tree until its diagrams are built.
    # If only: conditions of the else-if arms (children[1:]) and whether the
    # final child is a bare else arm.
    arm_conditions: Sequence[str] = ()
    has_else: bool = False
    # keyword positions annotations can bind to
    header_pos: tuple[int, int] | None = None
    arm_header_positions: Sequence[tuple[int, int]] = ()
    extra_bind_positions: Sequence[tuple[int, int]] = ()


_CLASS_KEYS = ("class", "struct", "union")
_ACCESS = ("public", "private", "protected")
_TRAILING_WORDS = {"const", "volatile", "noexcept", "override", "final",
                   "mutable", "constexpr", "throw", "try"}
_NOT_FUNCTION_NAMES = {
    "if", "else", "while", "for", "do", "switch", "catch", "return", "goto",
    "new", "delete", "sizeof", "alignof", "alignas", "decltype", "typeid",
    "operator", "case", "default", "using", "static_assert", "asm",
    "requires", "noexcept", "throw",
}
_NOT_CALLEE_NAMES = _NOT_FUNCTION_NAMES | {
    "void", "bool", "char", "short", "int", "long", "float", "double",
    "signed", "unsigned", "auto", "throw",
}


@dataclass
class _Scope:
    kind: str            # 'namespace' | 'class' | 'extern'
    name: str | None
    open_line: int


def find_definitions(view: CodeStream, file: str = "<input>",
                     diags: list[Diagnostic] | None = None) -> list[FunctionDef]:
    """Recognize function definitions in source order.

    The restricted pattern is: optional template header, return-type tokens,
    a ``::``-qualified identifier (``~`` allowed for destructors), a balanced
    parameter list, optional trailing specifiers or a constructor initializer
    list, then ``{``. Bodies are brace-matched and skipped, so nothing inside
    a function can be mistaken for another definition.
    """
    diags = sink(diags)
    lx = view.lexemes
    defs: list[FunctionDef] = []
    scopes: list[_Scope] = []
    buffer: list[int] = []
    paren_depth = 0
    reported_unbalanced = False
    i = 0
    n = len(lx)

    def report_unbalanced(line: int) -> None:
        nonlocal reported_unbalanced
        if not reported_unbalanced:
            diags.append(error("unbalanced-braces", "unbalanced braces", file, line))
            reported_unbalanced = True

    while i < n:
        t = lx[i].text
        if paren_depth == 0 and lx[i].kind is LexKind.PUNCT:
            if t == ";":
                buffer.clear()
                i += 1
                continue
            if t == "{":
                decision, payload = _analyze_buffer(view, buffer)
                brace_pos = view.pos(lx[i].offset)
                if decision == "function":
                    chain, ctor_init = payload
                    if ctor_init and buffer and _ends_like_member_init(view, buffer):
                        # '{' opens a member initializer, not the body; fold
                        # the group into the pending declaration
                        close = _match_forward(lx, i, "{", "}")
                        if close == -1:
                            report_unbalanced(brace_pos[0])
                            i = n
                            continue
                        buffer.extend(range(i, close + 1))
                        i = close + 1
                        continue
                    close = _match_forward(lx, i, "{", "}")
                    qualifiers = [s.name for s in scopes if s.name]
                    qname = "::".join(qualifiers + [chain])
                    sig_start = lx[buffer[0]].offset
                    signature = view.source[sig_start:lx[i].offset].strip()
                    if close == -1:
                        report_unbalanced(brace_pos[0])
                        end_off = lx[-1].offset
                        end_pos = view.pos(end_off)
                        defs.append(FunctionDef(qname, signature,
                                                SourcePos(*brace_pos, lx[i].offset),
                                                SourcePos(*end_pos, end_off), file))
                        i = n
                    else:
                        end_pos = view.pos(lx[close].offset)
                        defs.append(FunctionDef(qname, signature,
                                                SourcePos(*brace_pos, lx[i].offset),
                                                SourcePos(*end_pos, lx[close].offset), file))
                        i = close + 1
                    buffer.clear()
                    continue
                if decision in ("namespace", "class", "extern"):
                    scopes.append(_Scope(decision, payload, brace_pos[0]))
                    buffer.clear()
                    i += 1
                    continue
                # opaque: enum bodies, initializers, lambdas, unknown shapes
                close = _match_forward(lx, i, "{", "}")
                if close == -1:
                    report_unbalanced(brace_pos[0])
                    i = n
                else:
                    i = close + 1
                buffer.clear()
                continue
            if t == "}":
                if scopes:
                    scopes.pop()
                else:
                    report_unbalanced(view.pos(lx[i].offset)[0])
                buffer.clear()
                i += 1
                continue
            if (t == ":" and len(buffer) == 1 and scopes
                    and scopes[-1].kind == "class"
                    and lx[buffer[0]].text in _ACCESS):
                buffer.clear()
                i += 1
                continue
        if lx[i].kind is LexKind.PUNCT:
            if t == "(":
                paren_depth += 1
            elif t == ")":
                paren_depth = max(0, paren_depth - 1)
        buffer.append(i)
        i += 1

    if scopes:
        report_unbalanced(scopes[0].open_line)
    return defs


def _ends_like_member_init(view: CodeStream, buffer: list[int]) -> bool:
    # In a constructor initializer list, a '{' after an identifier or a
    # closing '>' starts a brace initializer; after ')' or '}' it is the body.
    last = view.lexemes[buffer[-1]]
    return last.kind is LexKind.WORD or last.text == ">"


def _match_forward(lx: list[Lexeme], i: int, open_t: str, close_t: str) -> int:
    depth = 0
    for k in range(i, len(lx)):
        t = lx[k].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return k
    return -1


def _past_group(lx: list[Lexeme], i: int, open_t: str, close_t: str) -> int:
    """Index just past the group opened at i, or past the end when the
    group is unbalanced."""
    close = _match_forward(lx, i, open_t, close_t)
    return len(lx) if close == -1 else close + 1


def _analyze_buffer(view: CodeStream, buffer: list[int]):
    """Classify the pending declaration ending at a '{'.

    Returns one of ("function", (name_chain, has_ctor_init)),
    ("namespace", name|None), ("class", name|None), ("extern", None),
    ("opaque", None).
    """
    lx = view.lexemes
    toks = [lx[k] for k in buffer]
    s = 0
    while s < len(toks):
        if toks[s].text == "template" and s + 1 < len(toks) and toks[s + 1].text == "<":
            s = _past_group(toks, s + 1, "<", ">")
        elif (toks[s].text == "[" and s + 1 < len(toks)
              and toks[s + 1].text == "["):
            s = _past_group(toks, s, "[", "]")
        else:
            break
    toks = toks[s:]
    if not toks:
        return "opaque", None

    fn = _match_function(toks)
    if fn is not None:
        return "function", fn

    head = toks[0].text
    if head == "namespace" or (head == "inline" and len(toks) > 1 and toks[1].text == "namespace"):
        start = 1 if head == "namespace" else 2
        parts = [t.text for t in toks[start:] if t.kind is LexKind.WORD or t.text == "::"]
        name = "".join(parts) or None
        return "namespace", name
    if head == "extern" and len(toks) == 2 and toks[1].kind is LexKind.LIT:
        return "extern", None

    for idx, t in enumerate(toks):
        if t.text == "enum":
            return "opaque", None
        if t.text in _CLASS_KEYS:
            limit = len(toks)
            for k in range(idx + 1, len(toks)):
                if toks[k].text == ":":
                    limit = k
                    break
            words = [w for w in toks[idx + 1:limit]
                     if w.kind is LexKind.WORD and w.text != "final"]
            return "class", (words[-1].text if words else None)
    return "opaque", None


def _match_function(toks: list[Lexeme]):
    """Match the restricted definition pattern against a declaration buffer.

    Returns (name_chain, has_ctor_init) or None.
    """
    depth = 0
    start = -1
    groups: list[tuple[int, int]] = []
    for idx, t in enumerate(toks):
        if t.text == "(":
            if depth == 0:
                start = idx
            depth += 1
        elif t.text == ")":
            depth -= 1
            if depth == 0:
                groups.append((start, idx))
            if depth < 0:
                return None
    if depth != 0 or not groups:
        return None

    # Earlier groups first: in "Foo::Foo(int n) : m_(n) {" the parameter
    # list is the first top-level group, the rest are member initializers.
    for op, cl in groups:
        ok, ctor_init = _trailing_ok(toks, cl + 1)
        if not ok:
            continue
        chain = _name_chain_before(toks, op)
        if chain is None:
            continue
        simple = chain.split("::")[-1].lstrip("~")
        if simple in _NOT_FUNCTION_NAMES:
            continue
        return chain, ctor_init
    return None


def _trailing_ok(toks: list[Lexeme], k: int) -> tuple[bool, bool]:
    n = len(toks)
    while k < n:
        t = toks[k].text
        if t == ":":
            return True, True   # constructor initializer list
        if t == "->":
            return True, False  # trailing return type
        if t in _TRAILING_WORDS:
            k += 1
            if t in ("noexcept", "throw") and k < n and toks[k].text == "(":
                k = _past_group(toks, k, "(", ")")
            continue
        if t == "&":
            k += 1
            continue
        if t == "[" and k + 1 < n and toks[k + 1].text == "[":
            k = _past_group(toks, k, "[", "]")
            continue
        return False, False
    return True, False


def _name_chain_before(toks: list[Lexeme], op: int) -> str | None:
    j = op - 1
    if j < 0 or toks[j].kind is not LexKind.WORD:
        return None
    name = toks[j].text
    j -= 1
    if j >= 0 and toks[j].text == "~":
        name = "~" + name
        j -= 1
    parts = [name]
    while j >= 1 and toks[j].text == "::":
        q = j - 1
        if toks[q].text == ">":
            depth = 0
            p = q
            while p >= 0:
                if toks[p].text == ">":
                    depth += 1
                elif toks[p].text == "<":
                    depth -= 1
                    if depth == 0:
                        break
                p -= 1
            if p <= 0 or toks[p - 1].kind is not LexKind.WORD:
                break
            parts.append("".join(t.text for t in toks[p - 1:q + 1]))
            j = p - 2
        elif toks[q].kind is LexKind.WORD:
            parts.append(toks[q].text)
            j = q - 1
        else:
            break
    parts.reverse()
    return "::".join(parts)


# ---------------------------------------------------------------------------
# statement trees

def parse_body(fn: FunctionDef, view: CodeStream,
               diags: list[Diagnostic] | None = None,
               calls: Iterable[CallSite] = ()) -> Stmt:
    """Parse a recognized function body into a statement tree.

    The root is a Block spanning the braces. Each of ``calls`` (the call
    sites of the body's ``//$`` highlights) is attached to the innermost
    statement owning its line.
    """
    diags = sink(diags)
    lo = view.index_at_or_after(fn.body_start.offset)
    hi = view.index_at_or_after(fn.body_end.offset)
    parser = _BodyParser(view, fn.file, diags)
    children = parser.parse_range(lo + 1, hi)
    root = Stmt(StmtKind.BLOCK, (fn.body_start.line, fn.body_end.line), children=children)
    for call in calls:
        innermost(root, call.line).calls.append(call)
    return root


def innermost(stmt: Stmt, line: int, kind: StmtKind | None = None) -> Stmt:
    """The innermost statement under stmt whose span holds line.

    At each level the first child holding the line is followed. With kind,
    the innermost statement of that kind on that path is returned, or stmt
    itself when there is none below it.
    """
    found = node = stmt
    while True:
        for child in node.children:
            if child.span[0] <= line <= child.span[1]:
                node = child
                if kind is None or child.kind is kind:
                    found = child
                break
        else:
            return found


_CALL_RE = re.compile(
    r"(?<![\w.:])([A-Za-z_]\w*(?:\s*(?:::|\.|->)\s*[A-Za-z_]\w*)*)\s*\(")


def detect_calls(line_code: str, line: int) -> list[CallSite]:
    """Best-effort call candidates on one line of code text.

    line_code must come from scanner.line_code_map so that parentheses inside
    literals cannot produce false positives.
    """
    out = []
    for m in _CALL_RE.finditer(line_code):
        chain = m.group(1)
        compact = re.sub(r"\s+", "", chain)
        last = re.split(r"->|\.", compact)[-1]
        simple = last.split("::")[-1]
        if simple in _NOT_CALLEE_NAMES:
            continue
        out.append(CallSite(callee_text=chain.strip(), normalized_name=last, line=line))
    return out


class _BodyParser:
    def __init__(self, view: CodeStream, file: str, diags: list[Diagnostic]):
        self.view = view
        self.lx = view.lexemes
        self.file = file
        self.diags = diags

    def _line(self, i: int) -> int:
        return self.view.pos(self.lx[i].offset)[0]

    def _pos(self, i: int) -> tuple[int, int]:
        return self.view.pos(self.lx[i].offset)

    def parse_range(self, lo: int, hi: int) -> list[Stmt]:
        out: list[Stmt] = []
        i = lo
        while i < hi:
            stmt, i = self.parse_one(i, hi)
            if stmt is not None:
                out.append(stmt)
        return out

    def parse_one(self, i: int, hi: int) -> tuple[Stmt | None, int]:
        t = self.lx[i].text
        if t == ";":
            return None, i + 1
        if t == "{":
            close = _match_forward(self.lx, i, "{", "}")
            if close == -1 or close >= hi:
                close = hi - 1 if hi - 1 > i else i
                children = self.parse_range(i + 1, max(i + 1, close))
                return Stmt(StmtKind.BLOCK, (self._line(i), self._line(close)),
                            children=children), hi
            children = self.parse_range(i + 1, close)
            return Stmt(StmtKind.BLOCK, (self._line(i), self._line(close)),
                        children=children), close + 1
        if t == "if":
            return self._parse_if(i, hi)
        if t in ("while", "for"):
            return self._parse_pretest(i, hi)
        if t == "do":
            return self._parse_do(i, hi)
        if t == "return":
            return self._parse_return(i, hi)
        if t == "switch":
            return self._parse_opaque_construct(i, hi)
        if t == "try":
            return self._parse_try(i, hi)
        return self._parse_plain(i, hi)

    # -- helpers ---------------------------------------------------------

    def _group(self, i: int, hi: int):
        """Balanced (...) starting at i; returns (interior_text, close) or None."""
        if i >= hi or self.lx[i].text != "(":
            return None
        close = _match_forward(self.lx, i, "(", ")")
        if close == -1 or close >= hi:
            return None
        interior = self.view.source[self.lx[i].offset + 1:self.lx[close].offset]
        return interior, close

    def _malformed(self, i: int, hi: int, what: str) -> tuple[Stmt, int]:
        self.diags.append(warning("malformed-control-header",
                                  f"malformed {what} header; treating as plain statement",
                                  self.file, self._line(i)))
        return self._parse_plain(i, hi)

    def _substatement(self, i: int, hi: int) -> tuple[Stmt, int]:
        """One statement (or braced block) wrapped as a Block arm."""
        if i >= hi:
            line = self._line(hi - 1) if hi > 0 else 1
            return Stmt(StmtKind.BLOCK, (line, line)), i
        if self.lx[i].text == "{":
            block, nxt = self.parse_one(i, hi)
            return block, nxt
        stmt, nxt = self.parse_one(i, hi)
        if stmt is None:
            line = self._line(i)
            return Stmt(StmtKind.BLOCK, (line, line)), nxt
        return Stmt(StmtKind.BLOCK, stmt.span, children=[stmt]), nxt

    # -- statement forms -------------------------------------------------

    def _parse_if(self, i: int, hi: int) -> tuple[Stmt, int]:
        if_pos = self._pos(i)
        j = i + 1
        if j < hi and self.lx[j].text == "constexpr":
            j += 1
        grp = self._group(j, hi)
        if grp is None:
            return self._malformed(i, hi, "if")
        cond, close = grp
        then_block, j = self._substatement(close + 1, hi)
        node = Stmt(StmtKind.IF, (if_pos[0], then_block.span[1]),
                    condition_text=cond, children=[then_block], header_pos=if_pos,
                    arm_conditions=[], arm_header_positions=[])
        while j < hi and self.lx[j].text == "else":
            else_pos = self._pos(j)
            k = j + 1
            if k < hi and self.lx[k].text == "if":
                k += 1
                if k < hi and self.lx[k].text == "constexpr":
                    k += 1
                grp = self._group(k, hi)
                if grp is None:
                    self.diags.append(warning("malformed-control-header",
                                              "malformed else-if header",
                                              self.file, else_pos[0]))
                    break
                cond_k, close_k = grp
                arm, j = self._substatement(close_k + 1, hi)
                node.children.append(arm)
                node.arm_conditions.append(cond_k)
                node.arm_header_positions.append(else_pos)
            else:
                arm, j = self._substatement(k, hi)
                node.children.append(arm)
                node.arm_header_positions.append(else_pos)
                node.has_else = True
                break
        node.span = (node.span[0], node.children[-1].span[1])
        return node, j

    def _parse_pretest(self, i: int, hi: int) -> tuple[Stmt, int]:
        kw = self.lx[i].text
        pos = self._pos(i)
        grp = self._group(i + 1, hi)
        if grp is None:
            return self._malformed(i, hi, kw)
        cond, close = grp
        body, j = self._substatement(close + 1, hi)
        kind = StmtKind.WHILE if kw == "while" else StmtKind.FOR
        return Stmt(kind, (pos[0], body.span[1]), condition_text=cond,
                    children=[body], header_pos=pos), j

    def _parse_do(self, i: int, hi: int) -> tuple[Stmt, int]:
        do_pos = self._pos(i)
        body, j = self._substatement(i + 1, hi)
        if j >= hi or self.lx[j].text != "while":
            return self._malformed(i, hi, "do-while")
        while_pos = self._pos(j)
        grp = self._group(j + 1, hi)
        if grp is None:
            return self._malformed(i, hi, "do-while")
        cond, close = grp
        j = close + 1
        if j < hi and self.lx[j].text == ";":
            j += 1
        return Stmt(StmtKind.DO_WHILE, (do_pos[0], self._line(min(j, hi) - 1)),
                    condition_text=cond, children=[body], header_pos=do_pos,
                    extra_bind_positions=[while_pos]), j

    def _parse_return(self, i: int, hi: int) -> tuple[Stmt, int]:
        pos = self._pos(i)
        j = self._consume_simple(i, hi)
        return Stmt(StmtKind.RETURN, (pos[0], self._line(j - 1)),
                    header_pos=pos), j

    def _parse_opaque_construct(self, i: int, hi: int) -> tuple[Stmt, int]:
        # switch (...) { ... } consumed as one Plain statement
        start = i
        j = i + 1
        grp = self._group(j, hi)
        if grp is not None:
            j = grp[1] + 1
        if j < hi and self.lx[j].text == "{":
            close = _match_forward(self.lx, j, "{", "}")
            j = close + 1 if close != -1 and close < hi else hi
        else:
            j = self._consume_simple(j, hi)
        return Stmt(StmtKind.PLAIN, (self._line(start), self._line(j - 1))), j

    def _parse_try(self, i: int, hi: int) -> tuple[Stmt, int]:
        start = i
        _, j = self._substatement(i + 1, hi)
        while j < hi and self.lx[j].text == "catch":
            grp = self._group(j + 1, hi)
            k = grp[1] + 1 if grp is not None else j + 1
            _, j = self._substatement(k, hi)
        return Stmt(StmtKind.PLAIN, (self._line(start), self._line(j - 1))), j

    def _parse_plain(self, i: int, hi: int) -> tuple[Stmt, int]:
        start = i
        j = self._consume_simple(i, hi)
        return Stmt(StmtKind.PLAIN, (self._line(start), self._line(j - 1))), j

    def _consume_simple(self, i: int, hi: int) -> int:
        """Advance past one non-control statement: everything through the
        next ';' at group depth zero. Nested (), [], {} are skipped whole,
        which keeps lambdas and brace initializers opaque."""
        j = i
        while j < hi:
            t = self.lx[j].text
            if t == ";":
                return j + 1
            if t in ("(", "[", "{"):
                close = _match_forward(self.lx, j, t, {"(": ")", "[": "]", "{": "}"}[t])
                if close == -1 or close >= hi:
                    return hi
                j = close + 1
                continue
            j += 1
        return hi
