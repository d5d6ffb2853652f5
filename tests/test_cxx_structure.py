import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowdoc.activity_ir import StopNode, build_activity
from flowdoc.annotations import collect
from flowdoc.cxx_structure import (MAX_NESTING, CallSite, CodeStream, StmtKind,
                                   detect_calls, find_definitions, parse_body)
from flowdoc.diagnostics import Severity
from flowdoc.flowdb import AnnotatedFunction, FlowDb, annotated_functions


def defs_of(src, diags=None):
    return find_definitions(CodeStream(src, "t.cpp",
                                       diags if diags is not None else []))


def body_lines(src):
    """The lines of the braces of each definition's body."""
    view = CodeStream(src, "t.cpp", [])
    return [(view.line(d.body_start), view.line(d.body_end))
            for d in find_definitions(view)]


def names(src):
    return [d.qualified_name for d in defs_of(src)]


class TestDefinitionRecognition:
    def test_free_function(self):
        assert names("int main() {\nreturn 0;\n}\n") == ["main"]

    def test_declaration_is_not_a_definition(self):
        assert names("int f();\nvoid g(int);\n") == []

    def test_out_of_line_member(self):
        assert names("void VINCIA::shower(){\n}\n") == ["VINCIA::shower"]

    def test_namespace_qualification(self):
        src = "namespace outer {\nnamespace inner {\nint f() {\n}\n}\n}\n"
        assert names(src) == ["outer::inner::f"]

    def test_compact_namespace_qualification(self):
        assert names("namespace a::b {\nint f() {\n}\n}\n") == ["a::b::f"]

    def test_anonymous_namespace_adds_no_qualifier(self):
        assert names("namespace {\nint f() {\n}\n}\n") == ["f"]

    def test_method_inside_class(self):
        src = "class Widget {\npublic:\n  int size() const {\nreturn 0;\n}\n};\n"
        assert names(src) == ["Widget::size"]

    def test_struct_and_union(self):
        src = "struct P {\nint get() {\nreturn 1;\n}\n};\nunion U {\nint id() {\nreturn 2;\n}\n};\n"
        assert names(src) == ["P::get", "U::id"]

    def test_constructor_and_destructor(self):
        src = "Foo::Foo() {\n}\nFoo::~Foo() {\n}\n"
        assert names(src) == ["Foo::Foo", "Foo::~Foo"]

    def test_constructor_with_initializer_list(self):
        src = "Foo::Foo(int n) : m_(n), k_(0) {\nuse(m_);\n}\n"
        assert names(src) == ["Foo::Foo"]

    def test_constructor_with_brace_initializers(self):
        src = "Foo::Foo() : m_(0), v_{1, 2} {\nrun();\n}\n"
        ds = defs_of(src)
        assert [d.qualified_name for d in ds] == ["Foo::Foo"]
        # the body is the final brace pair, not the member initializer
        assert body_lines(src) == [(1, 3)]

    def test_template_function(self):
        src = "template <typename T>\nT biggest(T a, T b) {\nreturn a;\n}\n"
        ds = defs_of(src)
        assert [d.qualified_name for d in ds] == ["biggest"]
        assert ds[0].signature_text.startswith("template <typename T>")

    def test_class_with_several_bases(self):
        src = ("class VinciaShower : public TimeShower, private Other {\npublic:\n"
               "void shower() {\n}\n};\n")
        assert names(src) == ["VinciaShower::shower"]

    def test_template_struct_with_a_templated_base(self):
        src = "template <typename T> struct S : Base<T> {\nvoid m() {\n}\n};\n"
        assert names(src) == ["S::m"]

    def test_attribute_before_the_return_type(self):
        assert names("[[nodiscard]] int f(int x) {\nreturn x;\n}\n") == ["f"]

    def test_templated_class_qualifier(self):
        src = "void Box<int>::open() {\n}\n"
        assert names(src) == ["Box<int>::open"]

    def test_trailing_specifiers(self):
        src = ("struct S {\n"
               "int a() const noexcept {\nreturn 0;\n}\n"
               "int b() && {\nreturn 0;\n}\n"
               "auto c() -> int {\nreturn 0;\n}\n"
               "void d() noexcept(false) {\n}\n"
               "};\n")
        assert names(src) == ["S::a", "S::b", "S::c", "S::d"]

    @pytest.mark.parametrize("src,expected", [("void ::f() {\n}\n", "f"),
                                              ("int ::ns::g() {\n}\n", "ns::g")])
    def test_a_return_type_is_never_a_qualifier(self, src, expected):
        assert names(src) == [expected]

    @pytest.mark.parametrize("src,expected", [
        ("template <class T void f() {\n}\n", []),  # an unclosed template header
        ("A::A() : m{ ( } {\n}\n", []),  # a group left open before the '{'
        ("A::A() : m{ ) } {\n}\n", []),  # a stray ')' in a member initializer
        ("A::A() : m{f(1)}, n(g()) {\n}\n", ["A::A"]),  # groups in and after one
        ("A::A() : base<int>{x}, m(a.b()) {\n}\n", ["A::A"]),
        ('int f() [[deprecated("x")]] {\n}\n', ["f"]),  # a group in a trailing attribute
        ("struct alignas(8) S {\nvoid m() {\n}\n};\n", ["S::m"]),  # a group in a class head
        ("std::function<void(int)> make() {\n}\n", ["make"]),  # one in the return type
        ("template <int N = (1> 2)> void f() {\n}\n", ["f"]),  # a '>' inside (...)
        ("int (f)() {\n}\n", []),  # a parenthesized declarator
        ("int f() [[nodiscard]] {\n}\n", ["f"]),  # a trailing attribute
        ("<a>::f() {\n}\n", ["f"]),  # template arguments with no name
        ("void *::f() {\n}\n", ["f"]),  # no name before the '::'
        # a conversion operator is named after its type, not as a function
        ("struct S {\noperator bool() const {\n}\nvoid m() {\n}\n};\n", ["S::m"]),
        ("S::operator std::string() const {\n}\n", []),
        # a literal operator, with its literal between 'operator' and the suffix
        ('long double operator"" _km(long double x) {\n}\n', []),
    ])
    def test_declarations_at_the_edge_of_the_pattern(self, src, expected):
        diags = []
        assert [d.qualified_name for d in defs_of(src, diags)] == expected
        assert diags == []

    def test_control_keywords_never_match(self):
        src = ("void f() {\n"
               "if (x) { y(); }\n"
               "while (x) { y(); }\n"
               "for (;;) { break; }\n"
               "switch (x) { default: break; }\n"
               "}\n")
        assert names(src) == ["f"]

    def test_function_body_contents_are_skipped(self):
        src = "void f() {\nauto l = [](int v) { return v; };\nstruct Local { int m() { return 1; } };\n}\n"
        assert names(src) == ["f"]

    def test_extern_c_is_transparent(self):
        src = 'extern "C" {\nint f() {\nreturn 0;\n}\n}\n'
        assert names(src) == ["f"]

    def test_enum_body_is_opaque(self):
        src = "enum class Color {\nRED,\nGREEN\n};\nint f() {\n}\n"
        assert names(src) == ["f"]

    def test_braced_initializer_is_not_a_function(self):
        src = "int table[] = {1, 2, 3};\nstd::map<int, int> m = {{1, 2}};\nint f() {\n}\n"
        assert names(src) == ["f"]

    def test_function_try_block(self):
        src = "void f() try {\nwork();\n}\ncatch (...) {\n}\n"
        ds = defs_of(src)
        assert [d.qualified_name for d in ds] == ["f"]

    def test_signature_text_verbatim(self):
        src = "static int  helper(int a,\n                   int b) {\nreturn a;\n}\n"
        ds = defs_of(src)
        assert ds[0].signature_text == "static int  helper(int a,\n                   int b)"

    def test_body_span_positions(self):
        src = "int f()\n{\nreturn 0;\n}\n"
        assert body_lines(src) == [(2, 4)]

    def test_unbalanced_brace_reports_error(self):
        diags = []
        defs_of("void f() {\nint x = 1;\n", diags)
        assert any(d.code == "unbalanced-braces" and d.severity is Severity.WARNING
                   for d in diags)

    def test_stray_close_brace_reports_error(self):
        diags = []
        defs_of("}\nvoid f() {\n}\n", diags)
        assert any(d.code == "unbalanced-braces" for d in diags)

    @pytest.mark.parametrize("src,line", [
        ("}\nvoid f() {\nint x;\n", 1),
        ("void f() {\n{\n}\n}\n}\nvoid g() {\n", 5),
        ("namespace a {\nnamespace b {\nvoid f() {\n}\n", 1),
        ("int v[] = {\n1, 2;\nvoid f() {\n}\n", 1),
    ], ids=["stray-then-unclosed", "unclosed-after-stray", "open-scopes",
            "unclosed-initializer"])
    def test_unbalanced_braces_are_reported_once_at_the_first(self, src, line):
        diags = []
        defs_of(src, diags)
        assert [(d.code, d.line) for d in diags] == [("unbalanced-braces", line)]

    @pytest.mark.parametrize("stray", ["int x) {", "int x) y() {"])
    def test_a_stray_closing_parenthesis_makes_no_definition(self, stray):
        # its '//$' is reported, and the next function is still documented
        diags = []
        view = CodeStream(f"{stray} //$ a\n}}\nvoid g() {{\n//$ b\ny();\n}}\n",
                          "t.cpp", diags)
        defs = find_definitions(view)
        functions = annotated_functions(view, defs, collect(view, defs), {})
        assert [af.fn.qualified_name for af in functions] == ["g"]
        assert [a.text for a in functions[0].annotations] == ["b"]
        assert [(d.code, d.line) for d in diags] == [("unplaced-marker", 1)]

    def test_operator_overload_stays_opaque(self):
        src = "bool operator==(const A& x, const A& y) {\nreturn true;\n}\nint f() {\n}\n"
        assert names(src) == ["f"]

    def test_preprocessor_lines_are_invisible(self):
        src = "#define OPEN {\n#include <map>\nint f() {\n}\n"
        assert names(src) == ["f"]


class TestStatementTrees:
    def parse(self, body, diags=None):
        src = f"void f() {{\n{body}\n}}\n"
        view = CodeStream(src, "t.cpp", diags if diags is not None else [])
        fn = find_definitions(view)[0]
        return parse_body(fn, view)

    def test_plain_statements_and_return(self):
        root = self.parse("int a = 1;\ncall(a);\nreturn a;")
        assert [c.kind for c in root.children] == [
            StmtKind.PLAIN, StmtKind.PLAIN, StmtKind.RETURN]

    def test_unbraced_arms_are_wrapped(self):
        node = self.parse("if (a)\nx();\nelse\ny();").children[0]
        assert [c.kind for c in node.children] == [StmtKind.BLOCK, StmtKind.BLOCK]
        assert [len(c.children) for c in node.children] == [1, 1]

    def test_condition_text_verbatim_interior(self):
        node = self.parse("if (a > 0 &&\n    b < 2) {\nx();\n}").children[0]
        assert node.children[0].condition_text == "a > 0 &&\n    b < 2"

    def test_switch_is_opaque(self):
        root = self.parse("switch (k) {\ncase 1: x(); break;\ndefault: break;\n}")
        assert [c.kind for c in root.children] == [StmtKind.PLAIN]

    def test_try_catch_is_opaque(self):
        root = self.parse("try {\nx();\n} catch (const E& e) {\ny();\n}")
        assert [c.kind for c in root.children] == [StmtKind.PLAIN]

    @pytest.mark.parametrize("inside", [
        "if a > 0 {\nx();\n}",
        "{" * (MAX_NESTING + 2) + "\nx();\n" + "}" * (MAX_NESTING + 2)],
        ids=["malformed-header", "deep-braces"])
    @pytest.mark.parametrize("wrap", ["switch (k) {\n%s\n}",
                                      "try {\n%s\n} catch (const E& e) {\n}",
                                      "try {\n} catch (...) {\n%s\n} catch (F) {}"],
                             ids=["switch", "try", "catch"])
    def test_switch_and_try_bodies_are_never_read(self, wrap, inside):
        diags = []
        root = self.parse(wrap % inside + "\ny();", diags)
        assert diags == []
        assert [c.kind for c in root.children] == [StmtKind.PLAIN, StmtKind.PLAIN]

    def test_nested_if_spans(self):
        root = self.parse("if (a) {\nif (b) {\nx();\n}\n}")
        outer = root.children[0]
        inner = outer.children[0].children[0]
        assert inner.kind is StmtKind.IF
        assert outer.span[0] <= inner.span[0] <= inner.span[1] <= outer.span[1]

    def test_malformed_header_degrades_with_warning(self):
        diags = []
        root = self.parse("if a > 0 {\nx();\n}", diags)
        assert any(d.code == "malformed-control-header" for d in diags)
        assert all(c.kind is not StmtKind.IF for c in root.children)

    @pytest.mark.parametrize("body,line", [
        ("if (a) {\nx();\n} else if b {\ny();\n}", 4),
        ("while x {\ny();\n}", 2),
        ("do {\nx();\n} until (y);", 2),
        ("do {\nx();\n} while y;", 2),
    ], ids=["else-if", "while", "do-until", "do-while"])
    def test_each_malformed_header_warns_once(self, body, line):
        diags = []
        self.parse(body, diags)
        assert [(d.code, d.line) for d in diags] == [("malformed-control-header", line)]

    def test_an_inner_block_the_body_brace_closes(self):
        diags = []
        root = self.parse("a();\n{\nb();", diags)
        assert [c.kind for c in root.children] == [StmtKind.PLAIN, StmtKind.BLOCK]
        assert [c.kind for c in root.children[1].children] == [StmtKind.PLAIN]
        assert [(d.code, d.line) for d in diags] == [("unbalanced-braces", 1)]

    def test_an_unclosed_condition_is_a_plain_statement(self):
        diags = []
        root = self.parse("if (x { y(); }", diags)
        assert [c.kind for c in root.children] == [StmtKind.PLAIN]
        assert [(d.code, d.line) for d in diags] == [("malformed-control-header", 2)]

    def test_an_if_at_the_end_of_the_body_has_an_empty_arm(self):
        diags = []
        node = self.parse("if (x)", diags).children[0]
        assert node.kind is StmtKind.IF
        assert [(arm.condition_text, arm.children) for arm in node.children] == [("x", ())]
        assert diags == []

    def test_an_unbraced_switch_ends_at_its_semicolon(self):
        src = "void f() {\nswitch (x) y();\nz();\n}\n"
        view = CodeStream(src, "t.cpp", [])
        root = parse_body(find_definitions(view)[0], view)
        assert [src[a:b + 1] for a, b in (c.span for c in root.children)] == [
            "switch (x) y();", "z();"]
        assert view.diags == []

    def test_lambda_body_is_not_statement_structure(self):
        root = self.parse("auto fn = [](int v) { if (v) { w(); } return v; };\nx();")
        assert [c.kind for c in root.children] == [StmtKind.PLAIN, StmtKind.PLAIN]

    def test_header_positions_recorded(self):
        src = "void f() {\nif (a) {\nx();\n}\nelse {\ny();\n}\n}\n"
        view = CodeStream(src, "t.cpp", [])
        root = parse_body(find_definitions(view)[0], view)
        node = root.children[0]
        assert [src[arm.keywords[0]:][:4] for arm in node.children] == [
            "if (", "else"]

    @pytest.mark.parametrize("opener,closer", [("if (a) {\n", "}\n"),
                                                ("if (a)\n", "")])
    def test_nesting_past_the_bound_stays_opaque(self, opener, closer):
        depth = MAX_NESTING + 20
        diags = []
        root = self.parse(opener * depth + "x();\n" + closer * depth, diags)
        assert [d.code for d in diags] == ["nesting-too-deep"]
        node, levels = root, 0
        while node.children:
            node, levels = node.children[0], levels + 1
        # an If and its arm per level; the arm past the bound holds one
        # opaque statement
        assert node.kind is StmtKind.PLAIN
        assert levels == 2 * (MAX_NESTING + 1) + 1

    def test_spans_tile_the_block(self):
        root = self.parse("a();\nif (b) {\nc();\n}\nd();")
        lines = [c.span for c in root.children]
        assert lines == sorted(lines)
        for (a_lo, a_hi), (b_lo, b_hi) in zip(lines, lines[1:]):
            assert a_hi < b_lo

    def test_spans_are_lexeme_offsets(self):
        # statements sharing a line each get their own span; the root's is
        # the braces', and an arm starts right after its header
        src = "void f() { a(); if (b) { c(); } else d(); do e(); while (g); }"
        view = CodeStream(src, "t.cpp", [])
        fn = find_definitions(view)[0]
        root = parse_body(fn, view)
        assert root.span == (fn.body_start, fn.body_end)
        assert [src[lo:hi + 1] for lo, hi in (c.span for c in root.children)] == [
            "a();", "if (b) { c(); } else d();", "do e(); while (g);"]
        arms = root.children[1].children
        assert [src[lo:hi + 1] for lo, hi in (a.span for a in arms)] == [
            " { c(); }", " d();"]


def calls_on(code):
    view = CodeStream(code, "t.cpp", [])
    return detect_calls(view, 0, len(view.lexemes))


def highlighted_calls(src):
    view = CodeStream(src, "t.cpp", [])
    defs = find_definitions(view)
    return [(c.callee_text, c.normalized_name, c.line)
            for annos in collect(view, defs).values() for c in annos
            if isinstance(c, CallSite)]


def activity_of(src):
    """The activity tree of the first definition."""
    view = CodeStream(src, "t.cpp", [])
    fn = find_definitions(view)[0]
    af = AnnotatedFunction(fn, "f", tuple(collect(view, [fn]).get(0, ())), 0,
                           parse_body(fn, view))
    return build_activity(af, FlowDb({}), [])


class TestCallDetection:
    def test_simple_call(self):
        calls = calls_on("b_init();  ")
        assert [(c.callee_text, c.normalized_name) for c in calls] == [
            ("b_init", "b_init")]

    def test_member_call_normalizes_to_member(self):
        calls = calls_on("vinciaOBJ->shower();  ")
        assert [(c.callee_text, c.normalized_name) for c in calls] == [
            ("vinciaOBJ->shower", "shower")]

    def test_dot_call(self):
        calls = calls_on("box.prepare(42);")
        assert calls[0].normalized_name == "prepare"

    def test_scoped_call_keeps_scope(self):
        calls = calls_on("B::prepare(0);")
        assert calls[0].normalized_name == "B::prepare"

    def test_keywords_and_casts_excluded(self):
        assert calls_on("if (x) while (y) return int(z);") == []

    def test_multiple_calls_in_order(self):
        calls = calls_on("log(get(), fetch());")
        assert [c.normalized_name for c in calls] == ["log", "get", "fetch"]

    def test_a_call_is_at_its_chain_start(self):
        calls = calls_on("x = obj.run(f(1));")
        assert [(c.callee_text, c.offset) for c in calls] == [
            ("obj.run", 4), ("f", 12)]

    @pytest.mark.parametrize("code,expected", [
        ("::helper();", [("helper", "helper")]),
        ("return ::helper(x);", [("helper", "helper")]),
        ("items[0].helper();", [("helper", "helper")]),
        ("make().helper();", [("make", "make"), ("helper", "helper")]),
        ("a . b :: c (1);", [("a . b :: c", "b::c")]),
        ("ns::a<int>::helper(1);", [("ns::a<int>::helper", "ns::a::helper")]),
        ("obj.a<std::pair<int, int>>::b<T>::f();",
         [("obj.a<std::pair<int, int>>::b<T>::f", "a::b::f")]),
        ("x = <int>::f();", [("f", "f")]),
        ("obj /* why */ . run();", [("obj . run", "run")]),
        ("A<(1 > 2)>::g(x);", [("A<(1 > 2)>::g", "A::g")]),
    ])
    def test_chain_starts_after_a_bracket_or_keyword(self, code, expected):
        assert [(c.callee_text, c.normalized_name)
                for c in calls_on(code)] == expected

    def test_chain_continued_from_the_previous_line(self):
        assert highlighted_calls("void f() {\nobj\n.z();  //$\n}\n") == [
            ("z", "z", 3)]

    def test_declarator_brace_lookalikes_before_the_body(self):
        src = ('void f(const char* s = "{", char c = \'{\') /* { */ {'
               ' g(s);  //$\n}\n')
        assert highlighted_calls(src) == [("g", "g", 1)]

    def test_call_attachment_to_innermost_statement(self):
        src = ("void f() {\n"
               "if (flag) {\n"
               "helper();  //$\n"
               "}\n"
               "}\n")
        branch, stop = activity_of(src)
        [arm] = branch.arms
        [box] = arm.body
        assert [display for display, _ in box.calls] == ["helper()"]
        assert isinstance(stop, StopNode)

    def test_lines_without_marker_attach_nothing(self):
        src = "void f() {\nhelper();\n}\n"
        assert [type(n) for n in activity_of(src)] == [StopNode]

    def test_a_tilde_joins_a_call_after_a_separator(self):
        # an explicit destructor call names the destructor; a '~' that
        # starts an expression is a complement
        calls = calls_on("p->~T(); q.~T(); T::~T(); x = ~g();")
        assert [(c.callee_text, c.normalized_name) for c in calls] == [
            ("p->~T", "~T"), ("q.~T", "~T"), ("T::~T", "T::~T"), ("g", "g")]

    def test_template_scope_reading_before_a_call(self):
        # a '>' right before '::' closes a balanced '<' on the line: the
        # scope x<y>, not a comparison with a call of the global f
        src = "void g() {\n  //$ act\n  x < y > ::f();  //$\n}\n"
        assert highlighted_calls(src) == [("x < y > ::f", "x::f", 3)]
        # but never a '<' outside the unclosed '(' that holds the '>'
        src = "void g() {\n  //$ act\n  b < x.y( >::k(  //$\n}\n"
        assert highlighted_calls(src) == [("x.y", "y", 3), ("k", "k", 3)]

    def test_reading_a_highlighted_line_reads_each_lexeme_a_bounded_number_of_times(self):
        def reads(n):  # of the lexemes, by detect_calls on x > ::f() ... n times
            view = CodeStream("void g() {\n  x " + "> ::f() " * n + " //$\n}\n", "t.cpp", [])
            view.lexemes = _CountingList(view.lexemes)
            detect_calls(view, 0, len(view.lexemes))
            return view.lexemes.reads
        assert reads(2000) <= 12 * reads(200)


class _CountingList(list):
    """A list that counts the items read from it by index or slice."""
    reads = 0

    def __getitem__(self, k):
        item = super().__getitem__(k)
        self.reads += len(item) if isinstance(k, slice) else 1
        return item


_BRACKET_SOUP = ["(", ")", "[", "]", "{", "}", "x", " ", "\n", "'('", '")"',
                 "/* { */", "// }\n", "#define X (\n", 'R"([)")"']


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_BRACKET_SOUP), max_size=60))
def test_bracket_partners_match_a_forward_depth_scan(pieces):
    view = CodeStream("".join(pieces), "t.cpp", [])
    texts = [lex.text for lex in view.lexemes]
    closer = {"(": ")", "[": "]", "{": "}"}
    for i, t in enumerate(texts):
        if t not in closer:
            assert i not in view.partner
            continue
        depth, found = 0, None
        for k in range(i, len(texts)):
            if texts[k] == t:
                depth += 1
            elif texts[k] == closer[t]:
                depth -= 1
                if depth == 0:
                    found = k
                    break
        assert view.partner.get(i) == found


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_BRACKET_SOUP) | st.sampled_from(["<", ">", "<<", ">>"]),
                max_size=60))
@example(["(", "<", "[", ")", ">", "]"])  # groups that cross
def test_angle_pairs_nest_within_one_bracket_group(pieces):
    view = CodeStream("".join(pieces), "t.cpp", [])
    texts = [lex.text for lex in view.lexemes]

    def group(k):  # the opener of the innermost paired group holding lexeme k
        return max((o for o, c in view.partner.items() if o < k < c), default=None)
    pairs = []
    for a, b in view.angle.items():
        assert view.angle[b] == a
        if texts[a] == "<":
            assert texts[b] == ">" and a < b
            pairs.append((a, b))
    assert len(view.angle) == 2 * len(pairs)
    closers = set(view.partner.values())
    for a, b in pairs:
        assert group(a) == group(b)
        assert all(t not in ")]}" or k in closers for k, t in enumerate(texts[a:b], a))
    for (a, b), (c, d) in itertools.combinations(sorted(pairs), 2):
        assert b < c or d < b


_CALL_PIECES = ["f(", "a.b(", "x->y(", "::g(", ")"]
# literal and comment pieces, each with what stands in for it on the
# plain line
_HIDING_PIECES = {'"f("': "0", "'('": "0", "/* g( */": " "}


@given(st.lists(st.sampled_from(_CALL_PIECES + list(_HIDING_PIECES)),
                max_size=12))
def test_literals_and_comments_never_hold_a_call(pieces):
    def lookup_names(line):
        src = "void t() {\n" + line + "  //$\n}\n"
        return [name for _, name, _ in highlighted_calls(src)]
    plain = [_HIDING_PIECES.get(p, p) for p in pieces]
    assert lookup_names(" ".join(pieces)) == lookup_names(" ".join(plain))


# A small declaration grammar, in the spirit of flowbench/corpus.py: each
# shape draws a definition head (up to its '{') and the name it is
# documented under, None for a shape README "Limitations" lists as not
# recognized. Scopes keep their template arguments, without blanks.
_SCOPES = ["", "A::", "A<int>::", "ns::A<T, 2>::", "::ns::"]
_RETURNS = ["void ", "int ", "std::vector<int> ", "const T& ", "unsigned long ",
            "static inline int "]
_PARAMS = ["()", "(int x)", "(const A& a, int n = (1 > 2))"]
_TRAILERS = ["const", "&", "noexcept", "noexcept(sizeof(T) > 2)", "override",
             "final"]
_INITS = ["", " : m(1)", " : m{1}, n(f(2))", " : base<int>{x}, m(a.b())"]
_UNRECOGNIZED = [
    "A::operator bool() const", "A::operator std::string()",
    'long double operator"" _km(long double x)',
    'unsigned operator""_u(unsigned long long v)',
    "bool operator==(const A& o) const", "A& A::operator=(const A&)",
    "template <> void f<int>()", "int (f)()",
    "template <class T> void f(T t) requires C<T>",
]


@st.composite
def _definitions(draw):
    params = draw(st.sampled_from(_PARAMS))
    trailers = "".join(" " + t for t in _TRAILERS if draw(st.booleans()))
    shape = draw(st.sampled_from(["function", "constructor", "destructor", "other"]))
    if shape == "other":
        return draw(st.sampled_from(_UNRECOGNIZED)), None
    if shape == "constructor":
        scope = draw(st.sampled_from(["", "ns::"]))
        init = draw(st.sampled_from(_INITS))
        return f"{scope}A::A{params}{init}", scope + "A::A"
    if shape == "destructor":
        scope = draw(st.sampled_from(["", "ns::"]))
        return f"{scope}A::~A(){draw(st.sampled_from(['', ' noexcept']))}", scope + "A::~A"
    scope = draw(st.sampled_from(_SCOPES))
    returns = draw(st.sampled_from(_RETURNS + ["auto "]))
    if scope.startswith("::") and returns.endswith("> "):
        returns = "int "  # 'vector<int> ::ns::f' is one qualified name in C++ too
    if returns == "auto ":
        trailers += " -> int"
    header = draw(st.sampled_from(["", "template <class T> ", "template <int N = (1> 2)> "]
                                  + (["template <> "] if "<" in scope else [])))
    attribute = draw(st.sampled_from(["", "[[nodiscard]] ", "[[gnu::cold, deprecated]] "]))
    name = "".join(scope.split()).lstrip(":") + "f"
    return f"{header}{attribute}{returns}{scope}f{params}{trailers}", name


@settings(max_examples=150)
@given(st.lists(_definitions(), min_size=1, max_size=4), st.booleans(),
       st.lists(st.booleans(), min_size=4, max_size=4))
def test_each_marker_of_a_generated_definition_is_drawn_or_reported(
        definitions, in_namespace, highlight):
    """A marker in a recognized body goes to that definition, under its
    qualified name; one in a body the recognizer skips is reported once,
    as unplaced-marker, at its line."""
    lines, expected, calls = ["namespace N {"] if in_namespace else [], {}, {}
    for k, (head, name) in enumerate(definitions):
        qualified = None if name is None else ("N::" if in_namespace else "") + name
        if highlight[k]:  # on the declarator's line: the declarator is no call
            lines.append(f"{head} {{ g{k}();  //$")
            expected[len(lines)] = qualified
            if name is not None:
                calls[len(lines)] = [f"g{k}"]
        else:
            lines.append(head + " {")
        lines.append(f"//$ act{k}")
        expected[len(lines)] = qualified
        lines.append("}")
    lines += ["}"] if in_namespace else []
    diags = []
    view = CodeStream("\n".join(lines) + "\n", "t.cpp", diags)
    defs = find_definitions(view)
    functions = annotated_functions(view, defs, collect(view, defs), {})
    drawn = {a.line: af.fn.qualified_name for af in functions for a in af.annotations}
    reported = [d.line for d in diags if d.code == "unplaced-marker"]
    assert drawn == {line: name for line, name in expected.items() if name}
    assert reported == [line for line, name in expected.items() if name is None]
    assert [d.code for d in diags] == ["unplaced-marker"] * len(reported)
    highlighted = {}
    for af in functions:
        for c in af.annotations:
            if isinstance(c, CallSite):
                highlighted.setdefault(c.line, []).append(c.callee_text)
    assert calls == highlighted
