"""find_definitions against the C++ compiler's own list of definitions.

``g++ -c -fdump-tree-original=FILE`` writes one ``;; Function <signature>``
line for each function definition it compiles. The test compiles generated
definitions of the shapes of ``test_cxx_structure._definitions`` as one
translation unit, each in a namespace ``n<k>`` of its own with the
declarations g++ needs, and compares the names g++ lists there with the
qualified names ``find_definitions`` gives. g++ lists a primary template
only once it is instantiated, so only non-template definitions are
compared. The translation unit includes no header, so g++ lists nothing but
what it defines.
"""

import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from flowdoc.cxx_structure import CodeStream, find_definitions

from test_cxx_structure import _INITS, _PARAMS, _RETURNS, _SCOPES, _TRAILERS, _UNRECOGNIZED

GXX = shutil.which("g++")

README = Path(__file__).parent.parent / "README.md"

# The shapes g++ defines and find_definitions does not recognize: per head,
# the README "Limitations" entry that says so, what its namespace declares
# first, and where it is defined (see _compiled). A shape that comes to be
# recognized fails the test until it leaves this table.
_OPERATOR, _UNRECOGNIZED_ENTRY = ("An operator overload is not documented",
                                  "Some valid definitions are not recognized")
_KNOWN_DIFFERENCES = {
    "A::operator bool() const": (_OPERATOR, "struct A { operator bool() const; };", "namespace"),
    "A::operator std::string()": (_OPERATOR, "struct A { operator std::string(); };", "namespace"),
    'long double operator"" _km(long double x)': (_OPERATOR, "", "namespace"),
    'unsigned operator""_u(unsigned long long v)': (_OPERATOR, "", "namespace"),
    "bool operator==(const A& o) const": (_OPERATOR, "struct A {}; struct V {};", "class"),
    "A& A::operator=(const A&)": (_OPERATOR, "struct A { A& operator=(const A&); };", "namespace"),
    "template <> void f<int>()": (_UNRECOGNIZED_ENTRY, "template <class> void f();", "namespace"),
    "int (f)()": (_UNRECOGNIZED_ENTRY, "", "namespace"),
}

# Declared once for every namespace: what the shapes name besides A and f.
_PRELUDE = """\
namespace std { template <class> struct vector {}; struct string {}; }
using T = int;
template <class> concept C = true;
template <class> struct base { base(); base(int); };
struct Q { int b() const; };
extern Q a;
extern int x;
int f(int);
"""
_MEMBER_ONLY = ("const", "&", "override", "final")
_TEMPLATE = re.compile(r"template\s*<\s*[^\s>]")  # a header with parameters
_FUNCTION = re.compile(r"^;; Function (.*) \([^()]*\)$", re.M)


def _declared(params):
    """The parameter list without its default arguments."""
    return re.sub(r" = \(.*\)\)$", ")", params)


@st.composite
def _compiled(draw):
    """A definition of one of the recognized shapes of ``_definitions()``,
    made valid C++: its declarations, its head, and where it goes: in the
    namespace, in the body of a struct S, or at global scope after it."""
    params = draw(st.sampled_from(_PARAMS))
    shape = draw(st.sampled_from(["function", "constructor", "destructor"]))
    if shape in ("constructor", "destructor"):
        scope = draw(st.sampled_from(["", "ns::"]))
        if shape == "constructor":
            struct = (f"struct A : base<int> {{ A{_declared(params)}; int m, n; "
                      f"int b() const; }};")
            head = f"{scope}A::A{params}{draw(st.sampled_from(_INITS))}"
        else:
            struct = "struct A { ~A(); };"
            head = f"{scope}A::~A(){draw(st.sampled_from(['', ' noexcept']))}"
        return (f"namespace ns {{ {struct} }}" if scope else struct), head, "namespace"
    scope = draw(st.sampled_from(_SCOPES))
    returns = draw(st.sampled_from(_RETURNS + ["auto "]))
    trailers = [t for t in _TRAILERS if draw(st.booleans())]
    if "noexcept" in trailers and "noexcept(sizeof(T) > 2)" in trailers:
        trailers.remove("noexcept")  # one exception specification
    where, header = "namespace", ""
    if scope == "" and returns != "static inline int " and set(trailers) & set(_MEMBER_ONLY):
        where = "class"  # a member function, defined in its class
    elif scope in ("", "::ns::"):  # a function of a namespace
        trailers = [t for t in trailers if t not in _MEMBER_ONLY]
        if scope:
            where = "global"
            if returns.endswith("> "):
                returns = "int "  # 'vector<int> ::ns::f' is one qualified name in C++
        else:
            header = draw(st.sampled_from(["", "template <class T> ",
                                           "template <int N = (1> 2)> "]))
    else:  # a member function defined outside its class, which is not static
        trailers = [t for t in trailers if t not in ("override", "final")]
        returns = "int " if returns == "static inline int " else returns
        if "<" in scope:  # of a class template, which takes no default argument there
            params = _declared(params)
            header = ("template <class T> " if "T" in scope
                      else draw(st.sampled_from(["", "template <> "])))
    specifiers = [t for t in trailers if t not in ("override", "final")]
    virt = [t for t in trailers if t in ("override", "final")]
    if returns == "auto ":
        specifiers.append("-> int")
    attribute = draw(st.sampled_from(["", "[[nodiscard]] ", "[[gnu::cold, deprecated]] "]))
    member = f"{returns}f{_declared(params)}{''.join(' ' + t for t in specifiers)};"
    declarations = {
        "": "struct A {};" + (f" struct V {{ virtual {member} }};" if virt else " struct V {};"),
        "A::": f"struct A {{ {member} }};",
        "A<int>::": (f"template <class U> struct A {{ {member} }};" if header else
                     f"template <class> struct A; template <> struct A<int> {{ {member} }};"),
        "ns::A<T, 2>::": (f"namespace ns {{ template <class, int> struct A; "
                          f"template <class T> struct A<T, 2> {{ {member} }}; }}"),
        "::ns::": f"namespace ns {{ struct A {{}}; {member} }}",
    }[scope]
    head = (f"{header}{attribute}{returns}{scope}f{params}"
            f"{''.join(' ' + t for t in specifiers + virt)}")
    return declarations, head, where


def _unrecognized(head):
    """A shape of ``_UNRECOGNIZED`` as ``_compiled`` gives a definition."""
    _, declarations, where = _KNOWN_DIFFERENCES.get(head, (None, "", "namespace"))
    return declarations, head, where


def _translation_unit(definitions):
    """The source of the definitions, the k-th in namespace n<k>."""
    out = [_PRELUDE]
    for k, (declarations, head, where) in enumerate(definitions):
        out.append(f"namespace n{k} {{\n{declarations}")
        if where == "global":
            out += ["}", head.replace("::ns::", f"::n{k}::ns::", 1) + " {\n}"]
        elif where == "class":
            out += [f"struct S : V {{\n{head} {{\n}}\n}};", "}"]
        else:
            out += [f"{head} {{\n}}", "}"]
    return "\n".join(out) + "\n"


def _gxx_name(signature):
    """The qualified name in a signature of g++'s dump: the part before the
    parameter list, less the return type, with no blank after a comma."""
    signature, _, bindings = signature.partition(" [with ")
    depth, blank = 0, -1
    for k, c in enumerate(signature):
        if c == "(" and depth == 0:
            break
        depth += (c == "<") - (c == ">")
        if c == " " and depth == 0:
            blank = k
    before = signature[:k]
    if "operator" in before:  # 'operator bool' holds a blank
        blank = before.rfind(" ", 0, before.index("operator"))
    name = before[blank + 1:]
    for binding in filter(None, bindings.rstrip("]").split("; ")):
        parameter, value = binding.split(" = ", 1)  # 'T = int', 'int N = 2'
        name = re.sub(rf"\b{parameter.split()[-1]}\b", value, name)
    return name.replace(", ", ",")


def _by_namespace(names):
    out = {}
    for name in names:
        out.setdefault(name.split("::")[0], set()).add(name)
    return out


def test_every_known_difference_names_a_readme_limitation():
    limitations = README.read_text(encoding="utf-8").split("## Limitations", 1)[1]
    for entry, _, _ in _KNOWN_DIFFERENCES.values():
        assert f"\n- {entry}" in limitations
    assert set(_KNOWN_DIFFERENCES) <= set(_UNRECOGNIZED)


@pytest.mark.skipif(GXX is None, reason="no g++ found to list the definitions")
# no shrinking: each step would run g++ again, and the message names the head
@settings(max_examples=5, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.lists(_compiled(), min_size=60, max_size=60))
def test_find_definitions_lists_what_gxx_compiles(tmp_path_factory, drawn):
    definitions = [_unrecognized(head) for head in _UNRECOGNIZED] + drawn
    source = _translation_unit(definitions)
    dump = tmp_path_factory.mktemp("gxx") / "tu.original"
    done = subprocess.run([GXX, "-std=c++20", "-w", "-c", "-x", "c++", "-", "-o", os.devnull,
                           f"-fdump-tree-original={dump}"],
                          input=source, capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr + source
    theirs = _by_namespace(_gxx_name(s) for s in
                           _FUNCTION.findall(dump.read_text(encoding="utf-8")))
    defs = find_definitions(CodeStream(source, "tu.cpp", []))
    ours = _by_namespace(d.qualified_name for d in defs if not _TEMPLATE.match(d.signature_text))
    for k, (_, head, _) in enumerate(definitions):
        mine, gxx = ours.get(f"n{k}", set()), theirs.get(f"n{k}", set())
        if head in _KNOWN_DIFFERENCES:
            assert not mine and gxx, head
        else:
            assert mine == gxx, head
