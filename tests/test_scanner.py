import re
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from flowdoc import scanner
from flowdoc.diagnostics import Severity, warning
from flowdoc.scanner import IDENT, LexKind, Lexeme, Token, TokenKind, line_code_map, scan


def tokens_of(text, file="<input>", diags=None):
    return scan(text, file, diags if diags is not None else [])[0]


def source_of(tokens):
    return "".join(t.text for t in tokens)


def kinds(tokens):
    return [t.kind for t in tokens]


def texts(tokens, kind):
    return [t.text for t in tokens if t.kind is kind]


class TestBasics:
    def test_empty_input(self):
        assert tokens_of("") == []

    def test_plain_code_single_token(self):
        toks = tokens_of("int x = 1;\n")
        assert kinds(toks) == [TokenKind.CODE]
        assert toks[0].text == "int x = 1;\n"
        assert (toks[0].line, toks[0].offset) == (1, 0)

    def test_concatenation_reproduces_input(self):
        src = 'int a; // c\n"str" /* b */ #define X 1\n'
        assert source_of(tokens_of(src)) == src

    def test_line_and_offset_tracking(self):
        toks = tokens_of("ab\ncd // x\n")
        comment = [t for t in toks if t.kind is TokenKind.LINE_COMMENT][0]
        assert (comment.line, comment.offset) == (2, 6)


class TestLineComments:
    def test_comment_excludes_newline(self):
        toks = tokens_of("x; // note\ny;\n")
        assert texts(toks, TokenKind.LINE_COMMENT) == ["// note"]

    def test_comment_at_eof_without_newline(self):
        toks = tokens_of("// tail")
        assert kinds(toks) == [TokenKind.LINE_COMMENT]

    def test_crlf_stays_out_of_comment(self):
        toks = tokens_of("x; // note\r\ny;\n")
        assert texts(toks, TokenKind.LINE_COMMENT) == ["// note"]

    def test_annotation_marker_preserved(self):
        toks = tokens_of("//$2 step one\n")
        assert texts(toks, TokenKind.LINE_COMMENT) == ["//$2 step one"]

    def test_comment_inside_string_is_not_a_comment(self):
        toks = tokens_of('s = "// not a comment";\n')
        assert texts(toks, TokenKind.LINE_COMMENT) == []
        assert len(texts(toks, TokenKind.STRING_LIT)) == 1


class TestBlockComments:
    def test_single_line(self):
        toks = tokens_of("a /* b */ c\n")
        assert texts(toks, TokenKind.BLOCK_COMMENT) == ["/* b */"]

    def test_multi_line(self):
        src = "a /* one\ntwo */ b\n"
        toks = tokens_of(src)
        assert texts(toks, TokenKind.BLOCK_COMMENT) == ["/* one\ntwo */"]
        assert source_of(toks) == src

    def test_unterminated_reports_error(self):
        diags = []
        toks = tokens_of("a /* never ends", "f.cpp", diags)
        assert toks[-1].kind is TokenKind.BLOCK_COMMENT
        assert any(d.code == "unterminated-block-comment"
                   and d.severity is Severity.WARNING for d in diags)

    def test_star_slash_inside_string(self):
        toks = tokens_of('"*/" /* real */\n')
        assert len(texts(toks, TokenKind.BLOCK_COMMENT)) == 1


class TestStringsAndChars:
    def test_escaped_quote(self):
        toks = tokens_of(r'"a\"b";')
        assert texts(toks, TokenKind.STRING_LIT) == [r'"a\"b"']

    def test_escaped_backslash_then_quote_ends(self):
        toks = tokens_of(r'"a\\" + x;')
        assert texts(toks, TokenKind.STRING_LIT) == [r'"a\\"']

    def test_char_literal(self):
        toks = tokens_of(r"c = '\n';")
        assert texts(toks, TokenKind.CHAR_LIT) == [r"'\n'"]

    def test_multichar_literal(self):
        toks = tokens_of("c<<'Hello World';")
        assert texts(toks, TokenKind.CHAR_LIT) == ["'Hello World'"]

    def test_unescaped_newline_terminates_with_diagnostic(self):
        diags = []
        toks = tokens_of('"open\nnext;\n', "f.cpp", diags)
        assert texts(toks, TokenKind.STRING_LIT) == ['"open']
        assert any(d.code == "unterminated-string" for d in diags)
        assert source_of(toks) == '"open\nnext;\n'

    def test_digit_separator_is_not_a_char_literal(self):
        toks = tokens_of("auto n = 1'000'000;\n")
        assert texts(toks, TokenKind.CHAR_LIT) == []
        assert kinds(toks) == [TokenKind.CODE]

    def test_hex_digit_separator(self):
        toks = tokens_of("auto n = 0xFF'AA;\n")
        assert texts(toks, TokenKind.CHAR_LIT) == []

    def test_long_digit_separated_number_is_one_code_token(self):
        # each quote looks back only to the previous one, so this is linear
        toks = tokens_of("x = " + "1'" * 50000 + "1;\n")
        assert kinds(toks) == [TokenKind.CODE]

    def test_encoding_prefixed_char_literal(self):
        for prefix in ("u8", "u", "U", "L"):
            diags = []
            toks = tokens_of(f"char c = {prefix}'a'; g();\n", "f.cpp", diags)
            assert texts(toks, TokenKind.CHAR_LIT) == ["'a'"], prefix
            assert diags == [], prefix


class TestRawStrings:
    def test_plain_raw(self):
        src = 'auto s = R"(no \\ escapes " here)";\n'
        toks = tokens_of(src)
        lits = texts(toks, TokenKind.STRING_LIT)
        assert lits == ['"(no \\ escapes " here)"']

    def test_delimited_raw(self):
        src = 'R"xy(contains )" inside)xy";\n'
        toks = tokens_of(src)
        assert texts(toks, TokenKind.STRING_LIT) == ['"xy(contains )" inside)xy"']

    def test_prefixed_raw(self):
        for prefix in ("u8", "u", "U", "L"):
            src = f'{prefix}R"(x)";\n'
            toks = tokens_of(src)
            assert texts(toks, TokenKind.STRING_LIT) == ['"(x)"'], prefix

    def test_identifier_ending_in_r_is_not_raw(self):
        src = 'VAR"(text)";\n'
        toks = tokens_of(src)
        # plain string: ends at the first unescaped quote
        assert texts(toks, TokenKind.STRING_LIT) == ['"(text)"']

    def test_non_ascii_identifier_ending_in_r_is_not_raw(self):
        toks = tokens_of('éR"(a "b" )";\n')
        assert texts(toks, TokenKind.STRING_LIT) == ['"(a "', '" )"']

    def test_raw_spanning_lines_round_trips(self):
        src = 'R"(line1\nline2 //$ not real\n)";\n'
        toks = tokens_of(src)
        assert source_of(toks) == src
        assert all(t.kind is not TokenKind.LINE_COMMENT for t in toks)

    def test_unterminated_raw(self):
        diags = []
        toks = tokens_of('R"(never', "f.cpp", diags)
        assert any(d.code == "unterminated-raw-string" for d in diags)
        assert source_of(toks) == 'R"(never'


class TestPreprocessor:
    def test_directive_consumes_line(self):
        toks = tokens_of("#define X 1\nint x;\n")
        assert texts(toks, TokenKind.PREPROCESSOR) == ["#define X 1\n"]

    def test_continuation(self):
        src = "#define M(a) \\\n    (a)\nint y;\n"
        toks = tokens_of(src)
        assert texts(toks, TokenKind.PREPROCESSOR) == ["#define M(a) \\\n    (a)\n"]

    def test_indented_directive(self):
        toks = tokens_of("    #pragma once\n")
        assert texts(toks, TokenKind.PREPROCESSOR) == ["#pragma once\n"]

    def test_hash_after_code_is_not_a_directive(self):
        toks = tokens_of("x = a # b;\n")
        assert texts(toks, TokenKind.PREPROCESSOR) == []

    def test_directive_after_block_comment_on_same_line(self):
        toks = tokens_of("/* c */ #define Y 2\n")
        assert texts(toks, TokenKind.PREPROCESSOR) == ["#define Y 2\n"]


class TestLineCodeMap:
    def test_code_and_comment_split(self):
        m = line_code_map(tokens_of("foo();  //$ note\n"))
        assert m[1] == "foo();  "

    def test_string_replaced_by_placeholder(self):
        m = line_code_map(tokens_of('log("//$ fake");\n'))
        assert m[1] == 'log("");'

    def test_standalone_comment_line_has_no_code(self):
        m = line_code_map(tokens_of("a;\n//$ note\nb;\n"))
        assert m.get(2, "").strip() == ""


@settings(max_examples=300)
@given(st.text(alphabet=string.printable, max_size=200))
def test_round_trip_is_lossless_on_arbitrary_text(src):
    tokens = tokens_of(src, "fuzz.cpp", [])
    assert source_of(tokens) == src


@settings(max_examples=300)
@given(st.text(alphabet=st.sampled_from('/"\'\\{}$#\n a1'), max_size=120))
def test_round_trip_on_hostile_alphabet(src):
    tokens = tokens_of(src, "fuzz.cpp", [])
    assert source_of(tokens) == src
    for tok in tokens:
        assert src[tok.offset:tok.offset + len(tok.text)] == tok.text


# Pieces of known kind for the grammar property below. Code pieces end in a
# space, so no piece runs into the next; a prefix before a literal is Code,
# and one that is not a raw-string prefix leaves a "(...)" string plain.
_CODE_WORDS = ["x", "foo_1", "étape", "u8", "R", "::", "->", "(", ")", "{", "}",
               ";", "+", "*", "<", " / ", "a # b", "1'000'000", "0xFF'AA",
               "0b1010'1010", "3.14'15", ".5'0", "\t", "\n", "\r\n"]
_ESCAPES = ["\\n", '\\"', "\\'", "\\\\", "\\\n", "\\\r\n"]
_INSIDE = ["a", "F", "0", " ", "(", ")", "/", "*", "$", "#", "//$", "/*", "é"]
_CODE = TokenKind.CODE


def _literal(quote, kind):
    parts = st.sampled_from(_INSIDE + _ESCAPES + ["'" if quote == '"' else '"'])
    return st.tuples(st.sampled_from(["", "u8", "u", "U", "L", "éR", "xR", "x1"]),
                     st.lists(parts, min_size=1, max_size=6)).map(
        lambda t: [(_CODE, t[0]), (kind, quote + "".join(t[1]) + quote)])


def _raw(t):
    prefix, delim, body = t
    return [(_CODE, prefix), (TokenKind.STRING_LIT, f'"{delim}({body}){delim}"')]


def _closes_at_its_end(t):
    _, delim, body = t
    return (body + f'){delim}"').find(f'){delim}"') == len(body)


_PIECES = st.one_of(
    st.lists(st.sampled_from(_CODE_WORDS), min_size=1, max_size=6).map(
        lambda ws: [(_CODE, " ".join(ws) + " ")]),
    st.tuples(st.sampled_from(["//", "//$", "//$2 "]),
              st.text(st.sampled_from("ab $/*\"'#\\"), max_size=8),
              st.sampled_from(["\n", "\r\n"])).map(
        lambda t: [(TokenKind.LINE_COMMENT, t[0] + t[1]), (_CODE, t[2])]),
    st.text(st.sampled_from("ab /*\n\"'#$"), max_size=10).filter(
        lambda b: "*/" not in b).map(lambda b: [(TokenKind.BLOCK_COMMENT, f"/*{b}*/")]),
    _literal('"', TokenKind.STRING_LIT),
    _literal("'", TokenKind.CHAR_LIT),
    st.tuples(st.sampled_from(["R", "u8R", "uR", "UR", "LR"]),
              st.text(st.sampled_from("ab_{}+*9é"), max_size=16),
              st.lists(st.sampled_from(['a', ')', ')"', '"', "'", "//$", "\n", "("]),
                       max_size=6).map("".join)).filter(_closes_at_its_end).map(_raw),
    st.tuples(st.lists(st.text(st.sampled_from('ab "/*$\'#é'), max_size=8),
                       min_size=1, max_size=3),
              st.sampled_from(["\\\n", "\\\r\n"]),
              st.sampled_from(["\n", "\r\n"])).map(
        lambda t: [(TokenKind.PREPROCESSOR, "#" + t[1].join(t[0]) + t[2])]),
)


@settings(max_examples=400)
@given(st.lists(_PIECES, max_size=12))
def test_pieces_of_known_kind_scan_back_to_themselves(groups):
    pieces, code_on_line = [], False
    for kind, text in (piece for group in groups for piece in group):
        if kind is TokenKind.PREPROCESSOR and code_on_line:
            pieces.append((_CODE, "\n"))  # only comments may precede a directive
        if text:
            pieces.append((kind, text))
        if kind in (TokenKind.STRING_LIT, TokenKind.CHAR_LIT):
            code_on_line = True
        elif kind is _CODE:
            code_on_line = bool(text.rsplit("\n", 1)[-1].strip()) or (
                code_on_line and "\n" not in text)
        elif "\n" in text:
            code_on_line = False  # after a directive or a comment across lines
    expected, src = [], ""
    for kind, text in pieces:
        if kind is _CODE and expected and expected[-1][0] is _CODE:
            expected[-1] = (_CODE, expected[-1][1] + text, *expected[-1][2:])
        else:
            expected.append((kind, text, src.count("\n") + 1, len(src)))
        src += text
    diags = []
    assert [tuple(t) for t in tokens_of(src, "p.cpp", diags)] == expected
    assert diags == []


# The two-pass reference the one-pass scanner replaced: tokens first, a quote
# being a digit separator when the word characters and dots before it start a
# number or follow another separator; then each Code token lexed on its own.
_REF_RULES = [rule for rule in scanner._GRAMMAR if isinstance(rule[0], TokenKind)]
_REF_TABLE = re.compile("|".join(f"(?P<k{n}>{rule[1]})" for n, rule in enumerate(_REF_RULES)))
_SPECIAL = re.compile(r'["\'/#]')
_NUMBER_START = re.compile(r"\.?[0-9]")
_HEX = frozenset("0123456789abcdefABCDEF")
_LEXEME_RE = re.compile(rf"\s*(?:({IDENT})|(\.?[0-9](?:[\w.']|[eEpP][+-])*)|(::|->|\S))")
_LEX_KIND = (None, LexKind.WORD, LexKind.NUM, LexKind.PUNCT)


def two_pass(text, file, diags):
    tokens, line, pos, run_start, line_has_code, n = [], 1, 0, 0, False, len(text)
    while (special := _SPECIAL.search(text, pos)) is not None:
        i = special.start()
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
        kind, _, warn = _REF_RULES[int(m.lastgroup[1:])]
        if c == "#" or kind is TokenKind.BLOCK_COMMENT:
            nl = text.rfind("\n", run_start, i)
            line_has_code = (bool(text[max(nl + 1, run_start):i].strip())
                             or (nl < 0 and line_has_code))
            if c == "#" and line_has_code:
                continue
        if run_start < i:
            tokens.append(Token(_CODE, text[run_start:i], line, run_start))
            line += text[run_start:i].count("\n")
        if warn and m.group(m.lastindex + 1) is None:
            diags.append(warning(warn[0], warn[1], file, line))
        tokens.append(Token(kind, m.group(), line, i))
        line += m.group().count("\n")
        pos = run_start = m.end()
        if kind is not TokenKind.BLOCK_COMMENT or "\n" in m.group():
            line_has_code = c in "\"'"
    if run_start < n:
        tokens.append(Token(_CODE, text[run_start:], line, run_start))
    lexemes = []
    for tok in tokens:
        if tok.kind is _CODE:
            lexemes += [Lexeme(m[k := m.lastindex], tok.offset + m.start(k), _LEX_KIND[k])
                        for m in _LEXEME_RE.finditer(tok.text.rstrip())]
        elif tok.kind in (TokenKind.STRING_LIT, TokenKind.CHAR_LIT):
            lexemes.append(Lexeme(tok.text, tok.offset, LexKind.LIT))
    return tokens, lexemes


_FRAGMENTS = ['"', "'", '"s"', "'c'", 'R"x(', ')x"', 'R"(', ')"', "u8'", "u8", "L",
              "1'000", "0xFF'AA", "x.5'a'", "x..5'0", ".5'0", "9'", "1e+a'b'", "x", "a",
              "1", ".", "+", "#", "a # b", "#define X \\", "/*", "*/", "//", "//$",
              "//$ [c]", "\r\n", "\n", " ", "\\", "f(x);", "{", "}", "::", "->"]


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map("".join))
def test_one_pass_equals_the_two_pass_reference(src):
    diags, expected_diags = [], []
    assert scan(src, "p.cpp", diags) == two_pass(src, "p.cpp", expected_diags)
    assert diags == expected_diags
