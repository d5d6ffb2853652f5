"""Position-preserving lexer for C++ source text.

One pass splits a file into lexemes and ``//$`` comments, without
interpreting the code itself. Comments and directives are matched only to be
skipped, so nothing inside a string/character literal, raw string or block
comment is ever taken for a ``//$`` marker, and no later phase reads more
than the lexemes and the markers.

One table of patterns is matched after any whitespace: an identifier, a
pp-number, punctuation (``::``, ``->`` or one character), a comment, a
literal or a ``#``. The first three and each literal are the lexemes; a line
comment that starts with ``//$`` is a marker. A line comment runs up to the
first line break that no backslash continues (a ``\r`` before it stays out),
as C++ splices lines before it removes comments; a block comment runs up to
the first ``*/``. A string or character literal runs up to the same
unescaped quote, a backslash escaping the next character or ``\r\n``; an
encoding prefix (``u8'a'``, ``L"x"``) is an identifier. A ``"`` right after
``R``, ``u8R``, ``uR``, ``UR`` or ``LR`` as a whole identifier (not
``FOOR"`` or ``éR"``) opens a raw string: a delimiter of at most 16
characters, ``(``, and all up to ``)``, the delimiter and ``"``. A ``#``
that no lexeme precedes on its logical line opens a directive; any other
``#`` is punctuation. As in C++, where a comment is one space and a
backslash before a line break splices two lines, a line break in a comment
or after a backslash starts no new line. A directive's pieces are read by
the same table, as C++ removes comments before it runs directives: it runs
through the first line break that no comment or literal holds and no
backslash continues, so a block comment that opens on it ends it only where
the comment ends. Its lexemes are dropped, and a ``//$`` comment on it is
reported, not returned.

A pp-number is a digit, or ``.`` and a digit, then word characters and dots.
A ``'`` in it between two hex digits is a digit separator (``1'000'000``,
``0xFF'AA``), except in a number that starts with ``.`` right after a word
character or a dot (``x.5'a'``); any other ``'`` opens a character literal.
An unterminated literal ends before its line break, a block comment or raw
string (bad delimiter included) at the end of input, with a warning on the
line it starts on.
"""

from __future__ import annotations

import bisect
import re
from collections import namedtuple
from enum import Enum
from operator import itemgetter

from .diagnostics import Diagnostic, warning


class LexKind(Enum):
    WORD = "word"
    NUM = "num"
    PUNCT = "punct"
    LIT = "lit"


Lexeme = namedtuple("Lexeme", "text offset kind")  # kind: a LexKind, None for a '//$' marker


# An identifier is a run of Unicode word characters (\w) that does not start
# with a digit; a raw-string prefix must not follow a word character.
IDENT = r"[^\W\d]\w*"

# The grammar: per kind (None for a comment or a directive's '#'), a pattern
# and, for a kind that can be left unterminated, the warning for it and a
# first group that is then unmatched. _TABLE tries them in order after
# whitespace, so a '/' is punctuation when it opens no comment; a '#' is
# punctuation or opens a directive, which scan decides. _RULES maps the
# outer group of each kind to that kind, that group and that warning,
# _PLAIN that of a word, a number or punctuation to its kind.
_GRAMMAR = (
    (LexKind.WORD, IDENT, None),
    (LexKind.NUM, r"(?<![\w.])\.?[0-9][\w.]*(?:(?<=[0-9A-Fa-f])'(?=[0-9A-Fa-f])[\w.]*)*"
                  r"|\.[0-9][\w.]*", None),
    (LexKind.PUNCT, r"::|->|[^\s\"'/#]", None),
    (None, r"//[^\r\n]*(?:(?:\r(?!\n|\Z)|(?<=\\)\r?\n)[^\r\n]*)*", None),
    (None, r"/\*(?s:.*?)(?:(\*/)|\Z)",
     ("unterminated-block-comment", "unterminated block comment")),
    (LexKind.LIT,
     r'"(?:(?<=(?<!\w)R")|(?<=(?<!\w)[uUL]R")|(?<=(?<!\w)u8R"))'
     r'(?:((?P<delim>[^ ()\\\t\n"]{0,16})\((?s:.*?)\)(?P=delim)")|(?s:.*))',
     ("unterminated-raw-string", "unterminated raw string literal")),
    (LexKind.LIT, r'"[^"\\\n]*(?:\\(?:\r\n|[\s\S]|\Z)[^"\\\n]*)*(")?',
     ("unterminated-string", "unterminated string literal")),
    (LexKind.LIT, r"'[^'\\\n]*(?:\\(?:\r\n|[\s\S]|\Z)[^'\\\n]*)*(')?",
     ("unterminated-char", "unterminated character literal")),
    (None, "#", None),
    (LexKind.PUNCT, r"/", None),
)
_TABLE = re.compile(r"\s*(?:%s|\Z)" % "|".join(
    f"(?P<k{n}>{p})" for n, (_, p, _) in enumerate(_GRAMMAR)))
_RULES = {_TABLE.groupindex[f"k{n}"]: (kind, _TABLE.groupindex[f"k{n}"] + 1, warn)
          for n, (kind, _, warn) in enumerate(_GRAMMAR)}
_OFFSET = itemgetter(1)  # of a Lexeme
_PLAIN = {k: kind for k, (kind, _, warn) in _RULES.items() if kind and not warn}
# a line break that ends a directive: one no backslash continues
_LINE_END = re.compile(r"(?<!\\)(?<!\\\r)\n")


def scan(text: str, file: str, diags: list[Diagnostic]) -> tuple[list[Lexeme], list[Lexeme]]:
    """The lexemes of source text and its ``//$`` comments, in source order.
    An unterminated token, or a ``//$`` on a directive line, is reported as
    a warning and scanning goes on."""
    lexemes, markers = [], []
    add, new, plain = lexemes.append, tuple.__new__, _PLAIN.get  # new skips namedtuple's __new__
    found: list[tuple[int, str, str]] = []  # the offset, code and message of each warning
    directive = False  # whether the piece m matched is on a directive
    for m in _TABLE.finditer(text):
        k = m.lastindex
        if directive:  # until a line break in the whitespace before a piece
            directive = _LINE_END.search(text, m.start(), m.start(k or 0)) is None
        elif (kind := plain(k)) is not None:
            add(new(Lexeme, (m[k], m.start(k), kind)))
            continue
        if k is None:  # the end of the text
            continue
        kind, inner, warn = _RULES[k]
        i = m.start(k)
        if warn and m.group(inner) is None:
            found.append((i, *warn))
        if text[i] == "#" and not directive:  # punctuation after a lexeme on its line,
            # which a line break ends only in the whitespace between pieces (a
            # comment is one space) and only where no backslash continues it;
            # a backslash lexeme that splices lines away is none
            last = len(lexemes)
            while last and text.startswith(("\\\n", "\\\r\n"), lexemes[last - 1].offset):
                last -= 1
            after = lexemes[last - 1].offset + len(lexemes[last - 1].text) if last else None
            directive = after is None or any(
                _LINE_END.search(text, p.start(), p.start(p.lastindex or 0))
                for p in _TABLE.finditer(text, after, i + 1))
            kind = None if directive else LexKind.PUNCT
        if directive:
            if text.startswith("//$", i):
                found.append((i, "unplaced-marker", "'//$' on a preprocessor line; not drawn"))
        elif kind is not None:
            add(new(Lexeme, (m[k], i, kind)))
        elif text.startswith("//$", i):
            markers.append(new(Lexeme, (m[k], i, None)))
    line, counted = 1, 0  # line: that of offset counted
    for i, code, message in found:
        line, counted = line + text.count("\n", counted, i), i
        diags.append(warning(code, message, file, line))
    return lexemes, markers


def line_code_map(lexemes: list[Lexeme], line_starts: list[int]) -> set[int]:
    """The 1-based lines on which a lexeme starts, given the offset at which
    each line starts, with one bisect per line. Its one use is to tell a
    postfix ``//$`` comment (code precedes it on its line) from a standalone
    one."""
    ends = [bisect.bisect_left(lexemes, end, key=_OFFSET) for end in line_starts[1:]]
    ends.append(len(lexemes))  # the index past the last lexeme of each line
    return {ln for ln, (a, b) in enumerate(zip([0] + ends, ends), 1) if b > a}
