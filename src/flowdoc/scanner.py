"""Position-preserving lexer for C++ source text.

One pass splits a file into lexemes and ``//$`` comments, without
interpreting the code itself. Comments and directives are matched only to be
skipped, so nothing inside a string/character literal, raw string or block
comment is ever taken for a ``//$`` marker, and no later phase reads more
than the lexemes and the markers.

One table of patterns is matched after any whitespace: an identifier, a
pp-number, punctuation (``::``, ``->`` or one character), a comment, a
literal or a ``#``. The first three and each literal are the lexemes;
a line comment that starts with ``//$`` is a marker. A line comment runs up
to the line break (a ``\r`` before it stays out), a block comment up to the
first ``*/``. A string or character literal runs up to the same unescaped
quote, a backslash escaping the next character or ``\r\n``; an encoding
prefix (``u8'a'``, ``L"x"``) is an identifier. A ``"`` right after ``R``,
``u8R``, ``uR``, ``UR`` or ``LR`` as a whole identifier (not ``FOOR"`` or
``éR"``) opens a raw string: a delimiter of at most 16 characters, ``(``,
and all up to ``)``, the delimiter and ``"``. A ``#`` with only whitespace
and comments before it on its line opens a directive, which runs through
the line break, backslash continuations included; any other ``#`` is
punctuation.

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
from enum import Enum
from operator import itemgetter
from typing import NamedTuple

from .diagnostics import Diagnostic, warning


class LexKind(Enum):
    WORD = "word"
    NUM = "num"
    PUNCT = "punct"
    LIT = "lit"


class Lexeme(NamedTuple):
    text: str
    offset: int
    kind: LexKind | None  # None for a '//$' marker


# An identifier is a run of Unicode word characters (\w) that does not start
# with a digit; a raw-string prefix must not follow a word character.
IDENT = r"[^\W\d]\w*"

_DIRECTIVE = re.compile(r"#(?:[^\n]*\\\r?\n)*[^\n]*\n?")  # through its line break
# The grammar: per kind (None for a comment or a directive), a pattern and,
# for a kind that can be left unterminated, the warning for it and a first
# group that is then unmatched. _TABLE tries them in order after whitespace,
# so a '/' is punctuation when it opens no comment; of a directive it matches
# only the '#', which scan makes punctuation or skips the directive from.
# _RULES maps the outer group of each kind to that kind, that group and that
# warning, _PLAIN that of a word, a number or punctuation to its kind.
_GRAMMAR = (
    (LexKind.WORD, IDENT, None),
    (LexKind.NUM, r"(?<![\w.])\.?[0-9][\w.]*(?:(?<=[0-9A-Fa-f])'(?=[0-9A-Fa-f])[\w.]*)*"
                  r"|\.[0-9][\w.]*", None),
    (LexKind.PUNCT, r"::|->|[^\s\"'/#]", None),
    (None, r"//[^\r\n]*(?:\r(?!\n|\Z)[^\r\n]*)*", None),
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
    (None, _DIRECTIVE.pattern, None),
    (LexKind.PUNCT, r"/", None),
)
_TABLE = re.compile(r"\s*(?:%s|\Z)" % "|".join(
    f"(?P<k{n}>{'#' if p == _DIRECTIVE.pattern else p})" for n, (_, p, _) in enumerate(_GRAMMAR)))
_RULES = {_TABLE.groupindex[f"k{n}"]: (kind, _TABLE.groupindex[f"k{n}"] + 1, warn)
          for n, (kind, _, warn) in enumerate(_GRAMMAR)}
_OFFSET = itemgetter(1)  # of a Lexeme
_PLAIN = {k: kind for k, (kind, _, warn) in _RULES.items() if kind and not warn}


def scan(text: str, file: str, diags: list[Diagnostic]) -> tuple[list[Lexeme], list[Lexeme]]:
    """The lexemes of source text and its ``//$`` comments, in source order.
    An unterminated token is reported as a warning and scanning goes on."""
    lexemes, markers = [], []
    add, new = lexemes.append, tuple.__new__  # new skips NamedTuple's __new__
    plain, finditer = _PLAIN.get, _TABLE.finditer
    line, counted, pos = 1, 0, 0  # line: that of offset counted, the last reported
    while pos is not None:  # restarted past each directive
        for m in finditer(text, pos):
            k = m.lastindex
            if (kind := plain(k)) is not None:
                add(new(Lexeme, (m[k], m.start(k), kind)))
                continue
            if k is None:  # the end of the text
                continue
            kind, inner, warn = _RULES[k]
            i = m.start(k)
            if text[i] == "#":  # after a lexeme on its line, punctuation
                if lexemes and text.find("\n", lexemes[-1].offset + len(lexemes[-1].text), i) < 0:
                    add(new(Lexeme, ("#", i, LexKind.PUNCT)))
                    continue
                pos = _DIRECTIVE.match(text, i).end()
                break
            if warn and m.group(inner) is None:
                line, counted = line + text.count("\n", counted, i), i
                diags.append(warning(warn[0], warn[1], file, line))
            if kind is not None:
                add(new(Lexeme, (m[k], i, kind)))
            elif text.startswith("//$", i):
                markers.append(new(Lexeme, (m[k], i, None)))
        else:
            pos = None
    return lexemes, markers


def line_code_map(lexemes: list[Lexeme], line_starts: list[int]) -> set[int]:
    """The 1-based lines on which a lexeme starts, given the offset at which
    each line starts, with one bisect per line. Its one use is to tell a
    postfix ``//$`` comment (code precedes it on its line) from a standalone
    one."""
    ends = [bisect.bisect_left(lexemes, end, key=_OFFSET) for end in line_starts[1:]]
    ends.append(len(lexemes))  # the index past the last lexeme of each line
    return {ln for ln, (a, b) in enumerate(zip([0] + ends, ends), 1) if b > a}
