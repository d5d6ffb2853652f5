"""Static HTML pages around the rendered diagrams, plus the index.

One page per source file that has annotated functions. Every function gets a
section with one subsection per zoom level: the SVG (object tag, so links
inside the diagram stay clickable) with the PlantUML text as fallback and as
a collapsible block. Each page, image and the index goes to the path
``cli.run`` names. Pages and the index are regenerated from scratch on
every run; nothing in the output directory is treated as input except the
``.flowdb`` files.
"""

from __future__ import annotations

import os

from .activity_ir import collapse_ws
from .flowdb import AnnotatedFunction, FlowDb, url_quote, url_unquote
from .ioutil import atomic_write_text

_PAGE_CSS = """\
body { font-family: sans-serif; margin: 2em auto; max-width: 60em; padding: 0 1em; }
h1 { border-bottom: 2px solid #888; padding-bottom: 0.2em; }
h2 { margin-top: 2em; border-bottom: 1px solid #bbb; }
code, pre { background: #f4f4f4; }
pre { padding: 0.8em; overflow-x: auto; }
nav { margin-bottom: 1.5em; }
details { margin: 0.5em 0 1.5em; }
.zoom { margin: 1em 0 2em; }
"""


def _escape(s: str) -> str:
    """``html.escape(s)``, without importing ``html`` and its entity table."""
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;").replace("'", "&#x27;"))


def _head(title: str) -> str:
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        f"<title>{_escape(title)}</title>\n"
        f"<style>\n{_PAGE_CSS}</style>\n</head>\n<body>\n"
    )


def emit_page(page: str | os.PathLike, stem: str, funcs: list[tuple[AnnotatedFunction, list]]):
    """Write one stem's page, titled by the stem, and return page as given.

    Each function comes with its diagrams, level 0 first, as (path, text,
    owned), each path a ``.txt`` under the page's directory, spelled as the
    page is. A diagram not ``owned`` is another stem's: its text stands in for its ``.svg``.
    """
    skip = os.fspath(page).rfind("/") + 1  # the page's directory and its '/'
    parts = [_head(stem)]
    parts.append('<nav><a href="index.html">index</a></nav>\n')
    parts.append(f"<h1>{_escape(stem)}</h1>\n")
    for af, diagrams in funcs:
        parts.append(f'<h2 id="{af.anchor}">{_escape(af.fn.qualified_name)}</h2>\n')
        sig = collapse_ws(af.fn.signature_text)
        parts.append(f"<p><code>{_escape(sig)}</code></p>\n")
        for zoom, (path, text, owned) in enumerate(diagrams):
            pre = f"<pre>{_escape(text)}</pre>\n"  # embedded twice
            svg = url_quote(os.fspath(path)[skip:].rpartition(".")[0] + ".svg")
            image = (f'<object type="image/svg+xml" data="{_escape(svg)}">\n'
                     f"{pre}</object>\n") if owned else pre
            parts.append(
                f'<div class="zoom" id="{af.anchor}__zoom{zoom}">\n'
                f"<h3>zoom level {zoom}</h3>\n{image}"
                f"<details><summary>PlantUML source</summary>\n"
                f"{pre}</details>\n</div>\n")
    parts.append("</body>\n</html>\n")
    return atomic_write_text(page, "".join(parts))


def emit_index(db: FlowDb, path: str | os.PathLike):
    """Write the index at path: every documented function, grouped by page."""
    parts = [_head("flow documentation")]
    parts.append("<h1>flow documentation</h1>\n")
    by_page: dict[str, list] = {}
    for entry in db.entries.values():
        by_page.setdefault(entry.html_path, []).append(entry)
    if not by_page:
        parts.append("<p>No annotated functions were found.</p>\n")
    for page in sorted(by_page):
        parts.append(f'<h2><a href="{_escape(page)}">'
                     f"{_escape(url_unquote(page))}</a></h2>\n<ul>\n")
        for entry in sorted(by_page[page], key=lambda e: (e.qualified_name, e.anchor)):
            zooms = "zoom 0" if entry.max_zoom == 0 else f"zoom 0&ndash;{entry.max_zoom}"
            parts.append(f'<li><a href="{_escape(page)}#{entry.anchor}">'
                         f"{_escape(entry.qualified_name)}</a> ({zooms})</li>\n")
        parts.append("</ul>\n")
    parts.append("</body>\n</html>\n")
    return atomic_write_text(path, "".join(parts))

