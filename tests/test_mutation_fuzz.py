"""``flowdoc all`` on mutated fixtures never fails inside flowdoc.

Each example copies one fixture directory and applies a few mutations
drawn by Hypothesis: stray braces and quotes, deleted characters, ``//$``
forms (long zoom digit runs among them), ``#if`` lines, ``<``/``>`` around
``::``, and constructs nested up to 1000 deep. Then:

- the run returns, and no ``internal-error`` is reported;
- a second run into another directory gives byte-identical files, and the
  same stderr but for the output directory's name;
- no function gets more than ``MAX_ZOOM + 1`` zoom levels, and each
  level's diagram is a subsequence of the next level's, so its actions are
  among the next level's;
- each inserted deep construct, which later mutations keep out of, gives
  at most one ``nesting-too-deep`` warning;
- every ``//$`` of the mutated file is drawn or reported, no two outputs
  differ only in case, and no link or image in the tree is broken.

A second property mutates one ``.flowdb`` that build-db wrote for a
fixture: a deleted tab, a ``#`` in the page field, a zoom field of 1 to
5000 digits, or a byte that is not UTF-8. makeflows and makehtml then
report no ``internal-error``, a second run gives byte-identical files and
stderr, no link or image in the tree is broken, and each broken line is a
``malformed-db-line`` (an ``io-error`` for the file when it is not UTF-8).
"""

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from flowdoc import cli
from flowdoc.annotations import MAX_ZOOM

from conftest import FIXTURES, case_clashes, check_links
from test_marker_accounting import unaccounted

LINES = ["//$", "//$ step", "//$ [why]", "//$ <parallel> side", "//$3 detail",
         "x();  //$", "x();  //$ note", "x();  //$2", "#if 0", "#else", "#endif", "#if X",
         "a < b > ::f();  //$", "ns::a<int>::g(1);  //$", "x < y > ::z(2);", "return 0;",
         "else {"]
CHARS = ["{", "}", "(", ")", '"', "'", ";", "<", ">", "::", "\\\n"]
# one construct nested n deep; each can put at most one statement past the
# nesting bound
DEEP = [lambda n: "{" * n + "\nx();  //$\n" + "}" * n,
        lambda n: "if (a)\n" * n + "x();",
        lambda n: "while (a)\n" * n + "x();",
        lambda n: "f" + "(" * n + ")" * n + ";  //$",
        lambda n: "if (a) {}\n" + "else if (b) {}\n" * n,
        lambda n: "do " * (n // 3) + "x();" + " while (a);" * (n // 3),
        lambda n: "{" * n]

zoom = st.sampled_from(["", "1", "0", "9", "٣"]).flatmap(
    lambda d: st.integers(1, 5000).map(lambda k: d * k))
line = st.builds("//${}{}".format, zoom,
                 st.sampled_from(["", " deep", " [d]"])) | st.sampled_from(LINES)
mutation = st.one_of(
    st.tuples(st.just("line"), line),
    st.tuples(st.just("char"), st.sampled_from(CHARS)),
    st.tuples(st.just("delete"), st.just("")),
    st.tuples(st.just("deep"), st.builds(lambda f, n: f(n), st.sampled_from(DEEP),
                                         st.integers(1, 1000))))


def mutate(text, mutations):
    """text with each mutation applied at its share of the length. A later
    mutation never goes inside an inserted deep construct: an insertion is
    moved to just before it, a deletion to just after it. So each construct
    stays whole and can put at most one statement past the nesting bound."""
    deep = []  # the [start, end) of each deep construct inserted
    for (kind, piece), at in mutations:
        k = int(at * len(text))
        if kind == "line":
            piece += "\n"
        while True:
            if kind == "line":
                k = text.rfind("\n", 0, k) + 1
            inside = [(a, b) for a, b in deep if a < k < b or kind == "delete" and a == k < b]
            if not inside:
                break
            k = inside[0][1] if kind == "delete" else inside[0][0]
        grow = -(k < len(text)) if kind == "delete" else len(piece)
        deep = [(a + grow * (a >= k), b + grow * (a >= k)) for a, b in deep]
        if kind == "deep":
            deep.append((k, k + len(piece)))
        text = text[:k] + piece + text[k + (kind == "delete"):]
    return text


def run(src, out, *phases):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = [cli.main([phase, str(src), "--out-dir", str(out)])
                for phase in phases or ["all"]]
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return code, err.getvalue(), files


def is_subsequence(short, long):
    it = iter(long)
    return all(line in it for line in short)


@settings(max_examples=30)
@given(st.sampled_from(["demo", "lang", "xlink"]), st.data(),
       st.lists(st.tuples(mutation, st.floats(0, 1)), min_size=1, max_size=4))
def test_mutated_fixtures_build_deterministically(fixture, data, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(FIXTURES / fixture, src)
        victim = data.draw(st.sampled_from(sorted(src.rglob("*.*"))))
        text = mutate(victim.read_text(), mutations)
        victim.write_text(text)
        a, b = Path(tmp) / "a", Path(tmp) / "b"
        first = run(src, a)
        assert "[internal-error]" not in first[1]
        # a diagnostic may name a database in the output directory
        assert run(src, b) == (first[0], first[1].replace(str(a), str(b)), first[2])
        assert [ref for ref in check_links(a) if not ref.ok] == []
        levels = {}
        for name, body in first[2].items():
            m = re.fullmatch(r"aux_files/(.+)__zoom(\d+)\.txt", name)
            if m:
                levels[m[1], int(m[2])] = body.decode().splitlines()
        for (fn, k), lines in levels.items():
            assert k <= MAX_ZOOM
            if (fn, k + 1) in levels:
                assert is_subsequence(lines, levels[fn, k + 1])
        deep = sum(kind == "deep" for (kind, _), _ in mutations)
        assert first[1].count("[nesting-too-deep]") <= deep
        assert unaccounted(text, victim.name) == []
        assert case_clashes(first[2]) == []


@st.composite
def db_mutation(draw, row):
    """A database row with one mutation drawn, as bytes, and whether the
    mutation breaks it."""
    name, page, rest = row.split("\t")
    kind = draw(st.sampled_from(["tab", "hash", "zoom", "byte"]))
    if kind == "tab":
        tab = draw(st.sampled_from([len(name), len(name) + 1 + len(page)]))
        return (row[:tab] + row[tab + 1:]).encode(), True
    if kind == "hash":
        k = draw(st.integers(0, page.index("#")))
        return "\t".join([name, page[:k] + "#" + page[k:], rest]).encode(), True
    if kind == "zoom":
        digits = draw(zoom)
        broken = re.fullmatch("[0-9]{1,2}", digits) is None
        return "\t".join([name, page, digits]).encode(), broken
    data = row.encode()
    k = draw(st.integers(0, len(data)))
    return data[:k] + b"\xff" + data[k:], True


@settings(max_examples=30)
@given(st.sampled_from(["demo", "lang", "xlink"]), st.data())
def test_mutated_databases_are_read_deterministically(fixture, data):
    with tempfile.TemporaryDirectory() as tmp:
        src, a, b = FIXTURES / fixture, Path(tmp) / "a", Path(tmp) / "b"
        assert run(src, a, "build-db")[:2] == ([0], "")
        victim = data.draw(st.sampled_from(
            sorted(p for p in a.glob("*.flowdb") if p.stat().st_size)))
        rows = victim.read_text().splitlines()
        at = data.draw(st.integers(0, len(rows) - 1))
        piece, broken = data.draw(db_mutation(rows[at]))
        victim.write_bytes(b"".join(piece + b"\n" if n == at else f"{row}\n".encode()
                                    for n, row in enumerate(rows)))
        shutil.copytree(a, b)
        first = run(src, a, "makeflows", "makehtml")
        assert "[internal-error]" not in first[1]
        assert run(src, b, "makeflows", "makehtml") == (
            first[0], first[1].replace(str(a), str(b)), first[2])
        if b"\xff" in piece:
            expected = f"{victim}: error: cannot read database: "
        else:
            expected = f"{victim}:{at + 1}: warning: malformed database line: "
        # makeflows and makehtml each read the database
        assert first[1].count(expected) == (2 if broken else 0)
        # a diagnostic quotes a bounded excerpt of a broken row
        messages = [re.split(r": (?:warning|error): ", line, maxsplit=1)[-1]
                    for line in first[1].splitlines()]
        assert max(map(len, messages), default=0) <= 200
        assert [ref for ref in check_links(a) if not ref.ok] == []
