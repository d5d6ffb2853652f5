import re
from html import unescape
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import settings

from flowdoc.flowdb import url_unquote

# Property tests draw the same examples on every run, with no time limit per
# example and no example database. The "seeded" profile draws from the seed
# given with --hypothesis-seed instead:
#   pytest --hypothesis-profile=seeded --hypothesis-seed=3
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.register_profile("seeded", settings.get_profile("tier1"), derandomize=False)
settings.load_profile("tier1")

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN


def read_golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def in_place_and_apart(src: str, lexemes: list, markers: list) -> bool:
    """Each lexeme and ``//$`` marker of a scan is the source text at its
    offset, each list is in source order, and no two of them overlap."""
    for run in (lexemes, markers, sorted(lexemes + markers, key=lambda p: p.offset)):
        if any(a.offset + len(a.text) > b.offset for a, b in zip(run, run[1:])):
            return False
    return all(src.startswith(p.text, p.offset) for p in lexemes + markers)


def case_clashes(names) -> list[list[str]]:
    """The groups of output names (paths relative to the output directory)
    that differ only in case: on a case-insensitive filesystem, such as the
    default on macOS and Windows, each later write would replace the first."""
    groups: dict[str, list[str]] = {}
    for name in names:
        groups.setdefault(str(name).casefold(), []).append(str(name))
    return [group for group in groups.values() if len(group) > 1]


class LinkRef(NamedTuple):
    source: str
    target: str
    ok: bool


_ID_RE = re.compile(r'id="([^"]+)"')
_PAGE_LINK_RE = re.compile(r'\b(href|data)="([^"]+)"')
_DIAGRAM_LINK_RE = re.compile(r"\[\[(\S+)")
_SCHEME_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:")


def check_links(out_dir, rendered: bool = False) -> list[LinkRef]:
    """Every internal link and image in an output tree, each marked whether
    a browser opening the tree finds it.

    Reads the hrefs and ``<object data>`` images of the HTML pages and the
    ``[[target ...]]`` hyperlinks of the diagram texts under aux_files/,
    each as a browser does: entities are unescaped, a ``\\`` is a ``/``, and
    a link in any scheme but http, https or mailto is broken. An image is
    found when it names ``aux_files/<name>.svg`` and ``<name>.txt`` is a
    diagram in the tree; in a ``rendered`` tree the ``.svg`` must exist too.
    """
    out = Path(out_dir)
    ids = {page.name: set(_ID_RE.findall(page.read_text(encoding="utf-8")))
           for page in out.glob("*.html")}
    refs: list[LinkRef] = []

    def as_read(target: str) -> str:
        return unescape(target).replace("\\", "/")

    def link(source: str, target: str) -> None:
        href = as_read(target)
        if href.startswith(("http:", "https:", "mailto:")):
            return
        page, _, anchor = href.partition("#")
        page = url_unquote(page.removeprefix("../"))
        foreign = _SCHEME_RE.match(href) is not None
        if foreign or page.endswith(".html"):
            ok = not foreign and page in ids and (not anchor or anchor in ids[page])
            refs.append(LinkRef(source, target, ok))

    def image(source: str, target: str) -> None:
        # the file a browser loads: the path before any query or fragment
        folder, _, name = re.split("[?#]", as_read(target))[0].partition("/")
        svg = out / "aux_files" / url_unquote(name)
        ok = (folder == "aux_files" and "/" not in name and svg.suffix == ".svg"
              and svg.with_suffix(".txt").is_file() and (not rendered or svg.is_file()))
        refs.append(LinkRef(source, target, ok))

    for page in sorted(out.glob("*.html")):
        for attr, target in _PAGE_LINK_RE.findall(page.read_text(encoding="utf-8")):
            (image if attr == "data" else link)(page.name, target)
    for txt in sorted(out.glob("aux_files/*.txt")):
        for target in _DIAGRAM_LINK_RE.findall(txt.read_text(encoding="utf-8")):
            link(f"aux_files/{txt.name}", target)
    return refs
