import re
import string
from typing import NamedTuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowdoc import scanner
from flowdoc.cxx_structure import CodeStream
from flowdoc.diagnostics import Severity, warning
from flowdoc.scanner import IDENT, LexKind, Lexeme, line_code_map, scan

from conftest import in_place_and_apart

WORD, NUM, PUNCT, LIT = LexKind.WORD, LexKind.NUM, LexKind.PUNCT, LexKind.LIT


def lexed(text, file="<input>", diags=None):
    return scan(text, file, diags if diags is not None else [])


def texts(text, diags=None):
    return [lex.text for lex in lexed(text, diags=diags)[0]]


def lits(text):
    return [lex.text for lex in lexed(text)[0] if lex.kind is LIT]


def marker_texts(text):
    return [m.text for m in lexed(text)[1]]


def line_starts(text):
    return [0] + [m.end() for m in re.finditer("\n", text)]


def code_lines(text):
    return line_code_map(lexed(text)[0], line_starts(text))


class TestBasics:
    def test_empty_input(self):
        assert lexed("") == ([], [])

    def test_plain_code_single_token(self):
        assert lexed("int x = 1;\n") == ([
            ("int", 0, WORD), ("x", 4, WORD), ("=", 6, PUNCT), ("1", 8, NUM),
            (";", 9, PUNCT)], [])

    def test_comments_and_directives_hold_no_lexeme(self):
        src = 'int a; // c\n"str" /* b */ x\n#define X 1\n'
        assert lexed(src) == ([("int", 0, WORD), ("a", 4, WORD), (";", 5, PUNCT),
                               ('"str"', 12, LIT), ("x", 26, WORD)], [])

    def test_line_and_offset_tracking(self):
        src = "ab\ncd //$ x\n"
        assert lexed(src)[1] == [Lexeme("//$ x", 6, None)]
        assert CodeStream(src, "<input>", []).line(6) == 2


class TestLineComments:
    def test_comment_excludes_newline(self):
        assert marker_texts("x; //$ note\ny;\n") == ["//$ note"]
        assert texts("x; //$ note\ny;\n") == ["x", ";", "y", ";"]

    def test_comment_at_eof_without_newline(self):
        assert lexed("//$ tail") == ([], [Lexeme("//$ tail", 0, None)])

    def test_crlf_stays_out_of_comment(self):
        assert marker_texts("x; //$ note\r\ny;\n") == ["//$ note"]

    def test_a_backslash_continues_a_comment_onto_the_next_line(self):
        # C++ splices lines before it removes comments
        src = "void f() {\n//$ start\n// a note \\\ng();  //$\n}"
        assert texts(src) == ["void", "f", "(", ")", "{", "}"]
        assert marker_texts(src) == ["//$ start"]
        assert texts("x; // a \\\r\ny;\r\nz;\r\n") == ["x", ";", "z", ";"]
        assert texts("// a \\\n\\\r\nb\nc") == ["c"]

    def test_a_backslash_before_blanks_continues_no_comment(self):
        # GCC and C++23 (P2223) splice these lines too; flowdoc reads the
        # line break as the comment's end (README "Limitations")
        src = "void f() {\n//$ start\n// a note \\ \ng();  //$\n}"
        assert texts(src) == ["void", "f", "(", ")", "{", "g", "(", ")", ";", "}"]
        assert marker_texts(src) == ["//$ start", "//$"]
        assert texts("x; // a \\\t\r\ny;\r\n") == ["x", ";", "y", ";"]

    def test_a_marker_that_ends_in_a_backslash_runs_on(self):
        assert lexed("//$ step \\\nmore\ny;\n") == (
            [("y", 16, WORD), (";", 17, PUNCT)], [Lexeme("//$ step \\\nmore", 0, None)])
        assert marker_texts("//$ a \\\r\nb\r\n") == ["//$ a \\\r\nb"]

    def test_annotation_marker_preserved(self):
        assert marker_texts("//$2 step one\n") == ["//$2 step one"]

    def test_only_a_comment_that_opens_with_the_marker_is_one(self):
        assert lexed("// plain //$ inside\n/*$ block */ //$\n") == (
            [], [Lexeme("//$", 33, None)])

    def test_comment_inside_string_is_not_a_comment(self):
        src = 's = "//$ not a comment";\n'
        assert marker_texts(src) == []
        assert lits(src) == ['"//$ not a comment"']


class TestBlockComments:
    def test_single_line(self):
        assert lexed("a /* //$ b */ c\n") == ([("a", 0, WORD), ("c", 14, WORD)], [])

    def test_multi_line(self):
        assert lexed("a /* one\ntwo */ b\n") == ([("a", 0, WORD), ("b", 16, WORD)], [])

    def test_unterminated_reports_error(self):
        diags = []
        assert lexed("a /* never ends", "f.cpp", diags) == ([("a", 0, WORD)], [])
        assert diags == [warning("unterminated-block-comment",
                                 "unterminated block comment", "f.cpp", 1)]
        assert diags[0].severity is Severity.WARNING

    def test_star_slash_inside_string(self):
        assert texts('"*/" /* real */ x\n') == ['"*/"', "x"]


class TestStringsAndChars:
    def test_escaped_quote(self):
        assert lits(r'"a\"b";') == [r'"a\"b"']

    def test_escaped_backslash_then_quote_ends(self):
        assert texts(r'"a\\" + x;') == [r'"a\\"', "+", "x", ";"]

    def test_char_literal(self):
        assert lits(r"c = '\n';") == [r"'\n'"]

    def test_multichar_literal(self):
        assert texts("c<<'Hello World';") == ["c", "<", "<", "'Hello World'", ";"]

    def test_unescaped_newline_terminates_with_diagnostic(self):
        diags = []
        assert lexed('"open\nnext;\n', "f.cpp", diags) == (
            [('"open', 0, LIT), ("next", 6, WORD), (";", 10, PUNCT)], [])
        assert diags == [warning("unterminated-string",
                                 "unterminated string literal", "f.cpp", 1)]

    def test_each_unterminated_literal_warns_on_its_own_line(self):
        diags = []
        lexed('a;\n"x\nb;\r\n\n\'y\n/* z\n', "f.cpp", diags)
        assert [(d.code, d.line) for d in diags] == [
            ("unterminated-string", 2), ("unterminated-char", 5),
            ("unterminated-block-comment", 6)]

    def test_digit_separator_is_not_a_char_literal(self):
        assert lexed("auto n = 1'000'000;\n")[0][3] == ("1'000'000", 9, NUM)
        assert lits("auto n = 1'000'000;\n") == []

    def test_hex_digit_separator(self):
        assert texts("auto n = 0xFF'AA;\n") == ["auto", "n", "=", "0xFF'AA", ";"]

    def test_long_digit_separated_number_is_one_code_token(self):
        # each quote looks back only to the previous one, so this is linear
        number = "1'" * 50000 + "1"
        assert texts("x = " + number + ";\n") == ["x", "=", number, ";"]

    def test_encoding_prefixed_char_literal(self):
        for prefix in ("u8", "u", "U", "L"):
            diags = []
            lexemes = lexed(f"char c = {prefix}'a'; g();\n", "f.cpp", diags)[0]
            assert lexemes[3:5] == [(prefix, 9, WORD), ("'a'", 9 + len(prefix), LIT)]
            assert diags == [], prefix


class TestRawStrings:
    def test_plain_raw(self):
        src = 'auto s = R"(no \\ escapes " here)";\n'
        assert lits(src) == ['"(no \\ escapes " here)"']

    def test_delimited_raw(self):
        assert lits('R"xy(contains )" inside)xy";\n') == ['"xy(contains )" inside)xy"']

    def test_prefixed_raw(self):
        for prefix in ("u8", "u", "U", "L"):
            assert texts(f'{prefix}R"(x)";\n') == [prefix + "R", '"(x)"', ";"], prefix

    def test_identifier_ending_in_r_is_not_raw(self):
        # plain string: ends at the first unescaped quote
        assert lits('VAR"(text)";\n') == ['"(text)"']

    def test_non_ascii_identifier_ending_in_r_is_not_raw(self):
        assert lits('éR"(a "b" )";\n') == ['"(a "', '" )"']

    def test_raw_spanning_lines_round_trips(self):
        src = 'R"(line1\nline2 //$ not real\n)";\n'
        assert lexed(src) == ([("R", 0, WORD), (src[1:-2], 1, LIT),
                               (";", len(src) - 2, PUNCT)], [])

    def test_unterminated_raw(self):
        diags = []
        assert lexed('R"(never', "f.cpp", diags) == ([("R", 0, WORD), ('"(never', 1, LIT)], [])
        assert diags == [warning("unterminated-raw-string",
                                 "unterminated raw string literal", "f.cpp", 1)]


class TestPreprocessor:
    def test_directive_consumes_line(self):
        assert texts("#define X 1\nint x;\n") == ["int", "x", ";"]
        assert lexed("int x;\n#endif // X") == (
            [("int", 0, WORD), ("x", 4, WORD), (";", 5, PUNCT)], [])

    def test_continuation(self):
        assert texts("#define M(a) \\\n    (a)\nint y;\n") == ["int", "y", ";"]
        assert texts("#define M(a) \\\r\n    (a)\r\nint y;\r\n") == ["int", "y", ";"]

    def test_indented_directive(self):
        assert lexed("    #pragma once\n") == ([], [])

    def test_hash_after_code_is_not_a_directive(self):
        assert lexed("x = a # b;\n")[0] == [
            ("x", 0, WORD), ("=", 2, PUNCT), ("a", 4, WORD), ("#", 6, PUNCT),
            ("b", 8, WORD), (";", 9, PUNCT)]

    def test_a_line_of_hashes_is_matched_a_bounded_number_of_times(self, monkeypatch):
        table = _CountingTable(scanner._TABLE)
        monkeypatch.setattr(scanner, "_TABLE", table)

        def drawn(n):  # characters matched in scanning x # # ... n times
            table.drawn = 0
            scan("x " + "# " * n + "\n", "t.cpp", [])
            return table.drawn
        assert drawn(20000) <= 12 * drawn(2000)

    def test_directive_after_block_comment_on_same_line(self):
        assert lexed("/* c */ #define Y 2\n") == ([], [])

    def test_a_hash_on_the_logical_line_of_a_lexeme_is_punctuation(self):
        # a comment is one space and a backslash splices the line break after
        # it: neither line break starts a line, so g++ -E keeps both as code
        assert texts("int x; /* a\n */ #define Y 1\nint z;") == [
            "int", "x", ";", "#", "define", "Y", "1", "int", "z", ";"]
        assert texts("int x \\\n#define Y 1\n;") == [
            "int", "x", "\\", "#", "define", "Y", "1", ";"]
        assert texts("x;\n/* a\n*/ #define Y\nz;") == ["x", ";", "z", ";"]
        # a backslash that splices its line break away is no code before it
        assert texts("x;\n\\\n#define Y\nz;") == ["x", ";", "\\", "z", ";"]

    def test_a_comment_in_a_directive_is_no_marker(self):
        diags = []
        assert lexed("#if X //$ no\n//$ yes\n", "f.cpp", diags) == (
            [], [Lexeme("//$ yes", 13, None)])
        assert diags == [warning("unplaced-marker", "'//$' on a preprocessor line; not drawn",
                                 "f.cpp", 1)]

    def test_a_literal_or_a_comment_on_a_directive_is_read_whole(self):
        diags = []
        assert texts('#define S "a /* b" // c /*\nx;\n#error don\'t\ny;\n', diags=diags) == [
            "x", ";", "y", ";"]
        assert diags == [warning("unterminated-char", "unterminated character literal",
                                 "<input>", 3)]
        diags = []
        assert texts('#if A /* b\nc */ d\ne;\n#error "open\nf;\n', diags=diags) == [
            "e", ";", "f", ";"]
        assert diags == [warning("unterminated-string", "unterminated string literal",
                                 "<input>", 4)]


class _CountingTable:
    """Stands in for a compiled pattern, summing the length of the matches
    its ``finditer`` gives."""

    def __init__(self, table):
        self.table, self.drawn = table, 0

    def finditer(self, text, *bounds):
        for m in self.table.finditer(text, *bounds):
            self.drawn += m.end() - m.start()
            yield m


class TestLineCodeMap:
    def test_code_and_comment_split(self):
        assert code_lines("foo();  //$ note\n") == {1}

    def test_string_replaced_by_placeholder(self):
        # a literal is code, and the comment inside it no marker
        assert code_lines('"//$ fake"\n//$\n') == {1}

    def test_standalone_comment_line_has_no_code(self):
        assert code_lines("a;\n//$ note\nb;\n") == {1, 3}

    def test_a_literal_is_code_on_its_first_line_only(self):
        assert code_lines('s = R"(a\nb)"\n;') == {1, 3}


@settings(max_examples=300)
@given(st.one_of(st.text(alphabet=string.printable, max_size=200),
                 st.text(alphabet=st.sampled_from('/"\'\\{}$#\n a1'), max_size=120)))
def test_round_trip_on_hostile_alphabet(src):
    assert in_place_and_apart(src, *lexed(src, "fuzz.cpp", []))


# Pieces of known kind for the grammar property below. Code pieces end in a
# space, so no piece runs into the next; a prefix before a literal is Code,
# and one that is not a raw-string prefix leaves a "(...)" string plain.
_CODE_WORDS = ["x", "foo_1", "étape", "u8", "R", "::", "->", "(", ")", "{", "}",
               ";", "+", "*", "<", " / ", "a # b", "1'000'000", "0xFF'AA",
               "0b1010'1010", "3.14'15", ".5'0", "\t", "\n", "\r\n"]
_ESCAPES = ["\\n", '\\"', "\\'", "\\\\", "\\\n", "\\\r\n"]
# what a directive may hold: a line break only in a block comment, a
# literal or a backslash continuation
_IN_DIRECTIVE = ["a", " ", "é", "#", "$", "(", "\\\n", "\\\r\n", '"x /* y"', "'}'",
                 '"a\\\nb"', "/* // \n */", "/**/", "/* \\ */"]
_INSIDE = ["a", "F", "0", " ", "(", ")", "/", "*", "$", "#", "//$", "/*", "é"]


class Tok(NamedTuple):  # a token of the reference: kind, text, line, offset
    kind: str
    text: str
    line: int
    offset: int


# the reference token kinds, each named by how its tokens start
_CODE, _LINE, _BLOCK, _STRING, _CHAR, _DIRECTIVE = "code", "//", "/*", '"', "'", "#"


def _literal(quote, kind):
    parts = st.sampled_from(_INSIDE + _ESCAPES + ["'" if quote == '"' else '"'])
    return st.tuples(st.sampled_from(["", "u8", "u", "U", "L", "éR", "xR", "x1"]),
                     st.lists(parts, min_size=1, max_size=6)).map(
        lambda t: [(_CODE, t[0]), (kind, quote + "".join(t[1]) + quote)])


def _raw(t):
    prefix, delim, body = t
    return [(_CODE, prefix), (_STRING, f'"{delim}({body}){delim}"')]


def _closes_at_its_end(t):
    _, delim, body = t
    return (body + f'){delim}"').find(f'){delim}"') == len(body)


_PIECES = st.one_of(
    st.lists(st.sampled_from(_CODE_WORDS), min_size=1, max_size=6).map(
        lambda ws: [(_CODE, " ".join(ws) + " ")]),
    # lines a backslash splices, the last not ending in one
    st.tuples(st.sampled_from(["//", "//$", "//$2 "]),
              st.lists(st.text(st.sampled_from("ab $/*\"'#\\"), max_size=8),
                       min_size=1, max_size=3).filter(lambda t: not t[-1].endswith("\\")),
              st.sampled_from(["\\\n", "\\\r\n"]),
              st.sampled_from(["\n", "\r\n"])).map(
        lambda t: [(_LINE, t[0] + t[2].join(t[1])), (_CODE, t[3])]),
    st.text(st.sampled_from("ab /*\n\"'#$"), max_size=10).filter(
        lambda b: "*/" not in b).map(lambda b: [(_BLOCK, f"/*{b}*/")]),
    _literal('"', _STRING),
    _literal("'", _CHAR),
    st.tuples(st.sampled_from(["R", "u8R", "uR", "UR", "LR"]),
              st.text(st.sampled_from("ab_{}+*9é"), max_size=16),
              st.lists(st.sampled_from(['a', ')', ')"', '"', "'", "//$", "\n", "("]),
                       max_size=6).map("".join)).filter(_closes_at_its_end).map(_raw),
    st.tuples(st.lists(st.sampled_from(_IN_DIRECTIVE), max_size=8).map("".join),
              st.sampled_from(["", "// a /* b", "//$ x", "// c \\\n d", "// e \\\r\n"]),
              st.sampled_from(["\n", "\r\n"])).map(
        lambda t: [(_DIRECTIVE, "#" + "".join(t))]),
)


@settings(max_examples=400)
@given(st.lists(_PIECES, max_size=12))
def test_pieces_of_known_kind_scan_back_to_themselves(groups):
    pieces, code_on_line = [], False
    for kind, text in (piece for group in groups for piece in group):
        if kind == _DIRECTIVE and code_on_line:
            pieces.append((_CODE, "\n"))  # only comments may precede a directive
        if text:
            pieces.append((kind, text))
        if kind in (_STRING, _CHAR):
            code_on_line = True
        elif kind == _CODE:
            code_on_line = bool(text.rsplit("\n", 1)[-1].strip()) or (
                code_on_line and "\n" not in text)
        elif kind == _DIRECTIVE:  # it runs through a line break
            code_on_line = False
        # a comment leaves it as it is: across lines or not, it is one space
    expected, src = [], ""
    for kind, text in pieces:
        if kind == _CODE and expected and expected[-1][0] == _CODE:
            expected[-1] = (_CODE, expected[-1][1] + text, *expected[-1][2:])
        else:
            expected.append((kind, text, src.count("\n") + 1, len(src)))
        src += text
    diags, expected_diags = [], []
    assert lexed(src, "p.cpp", diags) == derived([Tok(*t) for t in expected])
    for kind, text, line, _ in expected:
        if kind == _DIRECTIVE and "//$" in text:
            at = line + text.count("\n", 0, text.index("//$"))
            expected_diags.append(warning("unplaced-marker", "'//$' on a preprocessor line; "
                                          "not drawn", "p.cpp", at))
    assert diags == expected_diags


# The two-pass reference the one-pass scanner replaced: tokens first, a quote
# being a digit separator when the word characters and dots before it start a
# number or follow another separator; then each Code token lexed on its own.
# A directive is one token: from its '#', the tokens after it are read by the
# same rules, through the first line break in the code between them that no
# backslash continues. A line comment ends at such a line break too, found
# by _comment_end, not by the scanner's pattern. Its tokens are lossless:
# their texts concatenate to the source.
_REF_RULES = [(None, "//", None) if rule[1].startswith("//") else rule
              for rule in scanner._GRAMMAR if rule[0] in (None, LIT)]
_REF_TABLE = re.compile("|".join(f"(?P<k{n}>{rule[1]})" for n, rule in enumerate(_REF_RULES)))
_SPECIAL = re.compile(r'["\'/#]')
_NUMBER_START = re.compile(r"\.?[0-9]")
_HEX = frozenset("0123456789abcdefABCDEF")
_LEXEME_RE = re.compile(rf"\s*(?:({IDENT})|(\.?[0-9](?:[\w.']|[eEpP][+-])*)|(::|->|\S))")
_LEX_KIND = (None, WORD, NUM, PUNCT)


def _line_end(text, lo, hi):
    """The offset past the first line break in text[lo:hi] that comes after
    no backslash (or backslash and carriage return), else None."""
    for k in range(lo, hi):
        if text[k] == "\n" and not text.endswith(("\\", "\\\r"), 0, k):
            return k + 1
    return None


def _comment_end(text, i):
    """The end of the line comment at i: at the first line break that no
    backslash continues, or at the end of the text, less a carriage return
    right before it."""
    end = _line_end(text, i, len(text))
    end = len(text) if end is None else end - 1
    return end - 1 if text[end - 1] == "\r" else end


def two_pass(text, file, diags):
    tokens, pos, run_start, line_has_code, n = [], 0, 0, False, len(text)
    directive = None  # the offset of the '#' of the directive being read

    def line(i):
        return text.count("\n", 0, i) + 1

    while True:
        special = _SPECIAL.search(text, pos)
        i = n if special is None else special.start()
        if directive is not None:
            end = _line_end(text, run_start, i) or (n if special is None else None)
            if end is not None:
                tokens.append(Tok(_DIRECTIVE, text[directive:end], line(directive), directive))
                directive, pos, run_start, line_has_code = None, end, end, False
                continue
        if special is None:
            break
        pos = i + 1
        c = text[i]
        if c == "'" and 0 < i < n - 1 and text[i - 1] in _HEX and text[i + 1] in _HEX:
            j = i
            while j > run_start and (text[j - 1].isalnum() or text[j - 1] in "_."):
                j -= 1
            if (j > run_start and text[j - 1] == "'") or _NUMBER_START.match(text, j):
                continue
        m = _REF_TABLE.match(text, i)
        if m is None:
            continue
        end = _comment_end(text, i) if m.group() == _LINE else m.end()
        piece = text[i:end]
        _, _, warn = _REF_RULES[int(m.lastgroup[1:])]
        kind = piece[:2] if piece[:2] in (_LINE, _BLOCK) else c
        if directive is None and (c == "#" or kind == _BLOCK):
            # code after the last line break of the run that no backslash continues
            nl = max((k for k in range(run_start, i) if text[k] == "\n"
                      and not text.endswith(("\\", "\\\r"), 0, k)), default=-1)
            code = re.sub(r"\\\r?\n", "", text[max(nl + 1, run_start):i])  # less splices
            line_has_code = bool(code.strip()) or (nl < 0 and line_has_code)
            if c == "#" and line_has_code:
                continue
        if warn and m.group(m.lastindex + 1) is None:
            diags.append(warning(warn[0], warn[1], file, line(i)))
        if directive is not None:
            if piece.startswith("//$"):
                diags.append(warning("unplaced-marker", "'//$' on a preprocessor line; "
                                     "not drawn", file, line(i)))
            pos = run_start = end
            continue
        if run_start < i:
            tokens.append(Tok(_CODE, text[run_start:i], line(run_start), run_start))
        if c == "#":
            directive = i
            pos = run_start = i + 1
            continue
        tokens.append(Tok(kind, piece, line(i), i))
        pos = run_start = end
        if kind != _BLOCK:  # a block comment, across lines or not, is one space
            line_has_code = c in "\"'"
    if run_start < n:
        tokens.append(Tok(_CODE, text[run_start:], line(run_start), run_start))
    return tokens


def derived(tokens):
    """The lexemes and ``//$`` markers of a reference token list."""
    lexemes, markers = [], []
    for tok in tokens:
        if tok.kind == _CODE:
            lexemes += [Lexeme(m[k := m.lastindex], tok.offset + m.start(k), _LEX_KIND[k])
                        for m in _LEXEME_RE.finditer(tok.text.rstrip())]
        elif tok.kind in (_STRING, _CHAR):
            lexemes.append(Lexeme(tok.text, tok.offset, LIT))
        elif tok.text.startswith("//$"):
            markers.append(Lexeme(tok.text, tok.offset, None))
    return lexemes, markers


def ref_line_code_map(tokens):
    """Per-line code text, with literals collapsed to quote pairs: the
    token-based answer to "does a line hold code?"."""
    per_line = {}
    for tok in tokens:
        if tok.kind == _CODE:
            ln = tok.line
            for part in tok.text.split("\n"):
                if part:
                    per_line.setdefault(ln, []).append(part)
                ln += 1
        elif tok.kind in (_STRING, _CHAR):
            per_line.setdefault(tok.line, []).append(tok.kind * 2)
    return {ln: "".join(parts) for ln, parts in per_line.items()}


_FRAGMENTS = ['"', "'", '"s"', "'c'", 'R"x(', ')x"', 'R"(', ')"', "u8'", "u8", "L",
              "1'000", "0xFF'AA", "x.5'a'", "x..5'0", ".5'0", "9'", "1e+a'b'", "x", "a",
              "1", ".", "+", "#", "a # b", "#define X \\", "/*", "*/", "//", "//$",
              "//$ [c]", "\r\n", "\n", " ", "\\", "f(x);", "{", "}", "::", "->"]


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map("".join))
@example("int x; /* a\n */ #define Y 1\nint z;")  # a '#' after a comment across lines
@example("int x \\\n#define Y 1\n;")  # and after a spliced line break
@example("x;\n\\\n#define Y 1\n;")  # but not after a lone splice
def test_one_pass_equals_the_two_pass_reference(src):
    diags, expected_diags = [], []
    tokens = two_pass(src, "p.cpp", expected_diags)
    assert "".join(tok.text for tok in tokens) == src
    lexemes, markers = scan(src, "p.cpp", diags)
    assert (lexemes, markers) == derived(tokens)
    assert diags == expected_diags
    assert line_code_map(lexemes, line_starts(src)) == {
        ln for ln, code in ref_line_code_map(tokens).items() if code.strip()}
