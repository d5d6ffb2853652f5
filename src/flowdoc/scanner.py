"""Position-preserving tokenizer for C++ source text.

The scanner splits a file into code, comment, literal, and preprocessor
tokens without interpreting the code itself. Two guarantees matter to every
later phase:

* lossless: concatenating the token texts reproduces the input byte for byte,
* comment tokens are never produced from inside string/character literals,
  raw strings, or block comments, so ``//$`` markers found in LineComment
  tokens are real annotation candidates.

The grammar is deliberately shallow. Raw strings (``R"(...)"``, with optional
delimiter and encoding prefix) are honored; ``#`` lines (including
backslash-continued ones) become opaque Preprocessor tokens; everything else
is a Code run. Lines are 1-based; ``\r\n`` counts as one line break but
stays in the token text.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .diagnostics import Diagnostic, sink, warning


class TokenKind(Enum):
    CODE = "code"
    LINE_COMMENT = "line_comment"
    BLOCK_COMMENT = "block_comment"
    STRING_LIT = "string_lit"
    CHAR_LIT = "char_lit"
    PREPROCESSOR = "preprocessor"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int  # 1-based line of the first character
    offset: int  # character offset into the source


# Characters that can start a non-Code construct (or affect '#' line logic).
_SPECIAL = re.compile(r'["\'/#]')

# A raw-string opener is an encoding prefix + R immediately before the quote,
# not preceded by another identifier character (so FOOR"x" is not raw).
_RAW_PREFIX = re.compile(r"(?:u8|[uUL])?R\Z")

_HEX_DIGITS = set("0123456789abcdefABCDEF")
_WORD_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")


def scan(text: str, file: str = "<input>", diags: list[Diagnostic] | None = None) -> list[Token]:
    """Tokenize source text into an ordered, gap-free list of tokens.

    Unterminated constructs surface as warnings; scanning always continues
    to the end of the input.
    """
    diags = sink(diags)
    tokens: list[Token] = []
    n = len(text)

    line = 1

    def emit(kind: TokenKind, start: int, end: int) -> None:
        nonlocal line
        if end <= start:
            return
        chunk = text[start:end]
        tokens.append(Token(kind, chunk, line, start))
        line += chunk.count("\n")

    i = 0
    run_start = 0        # start of the pending Code run
    line_has_code = False  # any non-whitespace code/literal seen since last newline

    def note_chunk(chunk: str) -> None:
        # Update line_has_code for a stretch of plain code characters.
        nonlocal line_has_code
        nl = chunk.rfind("\n")
        if nl >= 0:
            line_has_code = bool(chunk[nl + 1 :].strip())
        elif chunk.strip():
            line_has_code = True

    while i < n:
        m = _SPECIAL.search(text, i)
        if m is None:
            note_chunk(text[i:n])
            i = n
            break
        note_chunk(text[i : m.start()])
        i = m.start()
        c = text[i]

        if c == "/":
            nxt = text[i + 1] if i + 1 < n else ""
            if nxt == "/":
                emit(TokenKind.CODE, run_start, i)
                end = text.find("\n", i)
                if end == -1:
                    end = n
                # keep \r with the newline, not in the comment text
                if end > i and text[end - 1] == "\r":
                    end -= 1
                emit(TokenKind.LINE_COMMENT, i, end)
                i = end
                run_start = i
            elif nxt == "*":
                emit(TokenKind.CODE, run_start, i)
                close = text.find("*/", i + 2)
                if close == -1:
                    diags.append(warning("unterminated-block-comment",
                                         "unterminated block comment", file, line))
                    emit(TokenKind.BLOCK_COMMENT, i, n)
                    i = n
                else:
                    # a block comment spanning a newline clears the code flag
                    if "\n" in text[i : close + 2]:
                        line_has_code = False
                    emit(TokenKind.BLOCK_COMMENT, i, close + 2)
                    i = close + 2
                run_start = i
            else:
                i += 1
                line_has_code = True
            continue

        if c == '"':
            prefix = _RAW_PREFIX.search(text, max(0, i - 3), i)
            is_raw = False
            if prefix is not None:
                before = prefix.start() - 1
                if before < 0 or text[before] not in _WORD_CHARS:
                    is_raw = True
            if is_raw:
                end = _raw_string_end(text, i)
                emit(TokenKind.CODE, run_start, i)
                if end == -1:
                    diags.append(warning("unterminated-raw-string",
                                         "unterminated raw string literal", file, line))
                    emit(TokenKind.STRING_LIT, i, n)
                    i = n
                else:
                    emit(TokenKind.STRING_LIT, i, end)
                    i = end
            else:
                emit(TokenKind.CODE, run_start, i)
                end, terminated = _quoted_end(text, i, '"')
                if not terminated:
                    diags.append(warning("unterminated-string",
                                         "unterminated string literal", file, line))
                emit(TokenKind.STRING_LIT, i, end)
                i = end
            run_start = i
            line_has_code = True
            continue

        if c == "'":
            # C++14 digit separator: 0xBEEF'1234, 1'000'000. Heuristic: a
            # quote squeezed between hex digits stays plain code.
            if (0 < i < n - 1 and text[i - 1] in _HEX_DIGITS and text[i + 1] in _HEX_DIGITS):
                i += 1
                line_has_code = True
                continue
            emit(TokenKind.CODE, run_start, i)
            end, terminated = _quoted_end(text, i, "'")
            if not terminated:
                diags.append(warning("unterminated-char",
                                     "unterminated character literal", file, line))
            emit(TokenKind.CHAR_LIT, i, end)
            i = end
            run_start = i
            line_has_code = True
            continue

        # '#': a directive only when nothing but whitespace (or comments)
        # precedes it on the line.
        if line_has_code:
            i += 1
            line_has_code = True
            continue
        emit(TokenKind.CODE, run_start, i)
        end = _logical_line_end(text, i)
        emit(TokenKind.PREPROCESSOR, i, end)
        i = end
        run_start = i
        line_has_code = False

    emit(TokenKind.CODE, run_start, n)
    return tokens


def _quoted_end(text: str, start: int, quote: str) -> tuple[int, bool]:
    """End offset (exclusive) of a plain quoted literal opened at start.

    Backslash escapes (including escaped newlines) are skipped. An unescaped
    newline or EOF leaves the literal unterminated; the newline itself is not
    consumed.
    """
    n = len(text)
    j = start + 1
    while j < n:
        c = text[j]
        if c == "\\":
            j += 2
            if j <= n and text[j - 1 : j] == "\r" and text[j : j + 1] == "\n":
                j += 1
            continue
        if c == quote:
            return j + 1, True
        if c == "\n":
            return j, False
        j += 1
    return n, False


def _raw_string_end(text: str, quote_pos: int) -> int:
    """End offset (exclusive) of a raw string whose opening quote is at
    quote_pos, or -1 when unterminated or malformed."""
    n = len(text)
    j = quote_pos + 1
    delim = []
    while j < n and len(delim) <= 16:
        c = text[j]
        if c == "(":
            closer = ")" + "".join(delim) + '"'
            end = text.find(closer, j + 1)
            return -1 if end == -1 else end + len(closer)
        if c in ' )\\\t\n"':
            return -1
        delim.append(c)
        j += 1
    return -1


def _logical_line_end(text: str, start: int) -> int:
    """End offset (exclusive, newline included) of a preprocessor logical
    line, honoring backslash continuations."""
    n = len(text)
    k = start
    while True:
        nl = text.find("\n", k)
        if nl == -1:
            return n
        back = nl - 1
        if back >= 0 and text[back] == "\r":
            back -= 1
        if back >= start and text[back] == "\\":
            k = nl + 1
            continue
        return nl + 1


def line_code_map(tokens: list[Token]) -> dict[int, str]:
    """Per-line code text, with literals collapsed to quote pairs.

    Its one use is to decide whether a ``//$`` comment is postfix (code
    precedes it on the line); call sites are found on the lexed view.
    """
    per_line: dict[int, list[str]] = {}
    for tok in tokens:
        if tok.kind is TokenKind.CODE:
            ln = tok.line
            for part in tok.text.split("\n"):
                if part:
                    per_line.setdefault(ln, []).append(part)
                ln += 1
        elif tok.kind is TokenKind.STRING_LIT:
            per_line.setdefault(tok.line, []).append('""')
        elif tok.kind is TokenKind.CHAR_LIT:
            per_line.setdefault(tok.line, []).append("''")
    return {ln: "".join(parts) for ln, parts in per_line.items()}


def source_of(tokens: list[Token]) -> str:
    """Reconstruct the exact source text (the scanner is lossless)."""
    return "".join(t.text for t in tokens)
