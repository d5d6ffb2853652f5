"""Position-preserving tokenizer and lexer for C++ source text.

One pass splits a file into code, comment, literal, and preprocessor tokens
and the code into lexemes, without interpreting the code itself. Two
guarantees matter to every later phase:

* lossless: concatenating the token texts reproduces the input byte for byte,
* comment tokens are never produced from inside string/character literals,
  raw strings, or block comments, so ``//$`` markers found in LineComment
  tokens are real annotation candidates.

One table of patterns is matched after any whitespace: an identifier, a
pp-number, punctuation (``::``, ``->`` or one character), a comment, a
literal or a directive. The first three and each literal are the lexemes;
what lies between the tokens that are not lexemes is Code. A line comment
runs up to the line break (a ``\r`` before it stays out), a block comment up
to the first ``*/``. A string or character literal runs up to the same
unescaped quote, a backslash escaping the next character or ``\r\n``; an
encoding prefix (``u8'a'``, ``L"x"``) is an identifier. A ``"`` right after
``R``, ``u8R``, ``uR``, ``UR`` or ``LR`` as a whole identifier (not ``FOOR"``
or ``éR"``) opens a raw string: a delimiter of at most 16 characters, ``(``,
and all up to ``)``, the delimiter and ``"``. A ``#`` with only whitespace
and comments before it on its line opens a directive, which runs through
the line break, backslash continuations included; any other ``#`` is
punctuation.

A pp-number is a digit, or ``.`` and a digit, then word characters and dots.
A ``'`` in it between two hex digits is a digit separator (``1'000'000``,
``0xFF'AA``), except in a number that starts with ``.`` right after a word
character or a dot (``x.5'a'``); any other ``'`` opens a character literal.
An unterminated literal ends before its line break, a block comment or raw
string (bad delimiter included) at the end of input, with a warning. Lines
are 1-based; ``\r\n`` counts as one line break but stays in the token text.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .diagnostics import Diagnostic, warning


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


class LexKind(Enum):
    WORD = "word"
    NUM = "num"
    PUNCT = "punct"
    LIT = "lit"


class Lexeme(NamedTuple):
    text: str
    offset: int
    kind: LexKind


# An identifier is a run of Unicode word characters (\w) that does not start
# with a digit; a raw-string prefix must not follow a word character.
IDENT = r"[^\W\d]\w*"

# The grammar: per kind, a pattern and, for a kind that can be left
# unterminated, the warning for it and a first group that is then unmatched.
# _TABLE tries them in order after whitespace, so a '/' is punctuation when it
# opens no comment (scan makes a '#' that opens no directive punctuation);
# _RULES maps the outer group of each kind to that kind, that group and that warning.
_GRAMMAR = (
    (LexKind.WORD, IDENT, None),
    (LexKind.NUM, r"(?<![\w.])\.?[0-9][\w.]*(?:(?<=[0-9A-Fa-f])'(?=[0-9A-Fa-f])[\w.]*)*"
                  r"|\.[0-9][\w.]*", None),
    (LexKind.PUNCT, r"::|->|[^\s\"'/#]", None),
    (TokenKind.LINE_COMMENT, r"//[^\r\n]*(?:\r(?!\n|\Z)[^\r\n]*)*", None),
    (TokenKind.BLOCK_COMMENT, r"/\*(?s:.*?)(?:(\*/)|\Z)",
     ("unterminated-block-comment", "unterminated block comment")),
    (TokenKind.STRING_LIT,
     r'"(?:(?<=(?<!\w)R")|(?<=(?<!\w)[uUL]R")|(?<=(?<!\w)u8R"))'
     r'(?:((?P<delim>[^ ()\\\t\n"]{0,16})\((?s:.*?)\)(?P=delim)")|(?s:.*))',
     ("unterminated-raw-string", "unterminated raw string literal")),
    (TokenKind.STRING_LIT, r'"[^"\\\n]*(?:\\(?:\r\n|[\s\S]|\Z)[^"\\\n]*)*(")?',
     ("unterminated-string", "unterminated string literal")),
    (TokenKind.CHAR_LIT, r"'[^'\\\n]*(?:\\(?:\r\n|[\s\S]|\Z)[^'\\\n]*)*(')?",
     ("unterminated-char", "unterminated character literal")),
    (TokenKind.PREPROCESSOR, r"#(?:[^\n]*\\\r?\n)*[^\n]*\n?", None),
    (LexKind.PUNCT, r"/", None),
)
_TABLE = re.compile(r"\s*(?:%s|\Z)" % "|".join(
    f"(?P<k{n}>{rule[1]})" for n, rule in enumerate(_GRAMMAR)))
_RULES = {_TABLE.groupindex[f"k{n}"]: (kind, _TABLE.groupindex[f"k{n}"] + 1, warn)
          for n, (kind, _, warn) in enumerate(_GRAMMAR)}
_LEXEMES = {k: kind for k, (kind, _, _) in _RULES.items() if isinstance(kind, LexKind)}
_CODE = TokenKind.CODE


def scan(text: str, file: str, diags: list[Diagnostic]) -> tuple[list[Token], list[Lexeme]]:
    """Tokenize source text into an ordered, gap-free list of tokens, and
    list its lexemes. An unterminated token is reported as a warning and
    scanning goes on."""
    tokens: list[Token] = []
    lexemes: list[Lexeme] = []
    append, add, new = tokens.append, lexemes.append, tuple.__new__
    lexeme_kind, finditer = _LEXEMES.get, _TABLE.finditer  # new skips NamedTuple's __new__
    line = 1
    pos = run_start = 0  # run_start: start of the pending Code run
    while pos is not None:  # restarted after a '#' that opens no directive
        for m in finditer(text, pos):
            k = m.lastindex
            if (lex := lexeme_kind(k)) is not None:
                add(new(Lexeme, (m[k], m.start(k), lex)))
                continue
            if k is None:  # the end of the text
                continue
            kind, inner, warn = _RULES[k]
            i = m.start(k)
            c = text[i]
            # a '#' after a lexeme on its line is punctuation, not a directive
            if c == "#" and lexemes and text.find(
                    "\n", lexemes[-1].offset + len(lexemes[-1].text), i) < 0:
                add(new(Lexeme, ("#", i, LexKind.PUNCT)))
                pos = i + 1
                break
            if run_start < i:
                chunk = text[run_start:i]
                append(new(Token, (_CODE, chunk, line, run_start)))
                line += chunk.count("\n")
            if warn and m.group(inner) is None:
                diags.append(warning(warn[0], warn[1], file, line))
            chunk = m[k]
            append(new(Token, (kind, chunk, line, i)))
            if c in "\"'":
                add(new(Lexeme, (chunk, i, LexKind.LIT)))
            line += chunk.count("\n")
            run_start = m.end()
        else:
            pos = None
    if run_start < len(text):
        append(new(Token, (_CODE, text[run_start:], line, run_start)))
    return tokens, lexemes


def line_code_map(tokens: list[Token]) -> dict[int, str]:
    """Per-line code text, with literals collapsed to quote pairs.

    Its one use is to decide whether a ``//$`` comment is postfix (code
    precedes it on the line); call sites are found on the lexemes.
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
