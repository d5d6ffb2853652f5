"""The flow database: one ``.flowdb`` file per source, merged for linking.

Format, one entry per line, sorted, LF-terminated, the page written as the
URL the links use (``url_quote``d, so no tab or newline splits a line):

    qualified_name<TAB>page.html#anchor<TAB>max_zoom

The database is the only channel between the build-db phase and the later
phases, which is what lets every phase run as a separate process: whoever
holds the ``.flowdb`` files can resolve cross-diagram links without
re-reading the other sources.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple

from . import annotations as _annotations
from . import cxx_structure as _cxx
from .cxx_structure import CallSite, FunctionDef
from .diagnostics import Diagnostic, error, warning
from .ioutil import atomic_write_text, dir_prefix, plain_path

SOURCE_SUFFIXES = (".cpp", ".cc", ".cxx", ".C", ".h", ".hpp", ".hh")


def mangle_anchor(qualified_name: str) -> str:
    """HTML anchor for a qualified name: '::' becomes '__', any other
    non-word character becomes '_'."""
    return re.sub(r"[^0-9A-Za-z_]", "_", qualified_name.replace("::", "__"))


_URL_UNSAFE = re.compile(r"[%#?\[\]\s:\\]")


def url_quote(name: str) -> str:
    """A file name in a URL: ``%#?[]`` and whitespace, which would end or
    split the URL, ``:``, which could start a scheme, and ``\\``, which a
    browser reads as ``/``, percent-encoded as UTF-8; any other is kept."""
    return _URL_UNSAFE.sub(lambda m: "".join(f"%{b:02X}" for b in m[0].encode()), name)


def url_unquote(url: str) -> str:
    """The name a URL spells: each run of ``%XX`` escapes decoded as UTF-8."""
    return re.sub(r"(?:%[0-9A-Fa-f]{2})+", lambda m: bytes.fromhex(
        m[0].replace("%", "")).decode(errors="replace"), url)


# html_path: the page as a URL, url_quote'd
FlowDbEntry = namedtuple("FlowDbEntry", "qualified_name html_path anchor max_zoom")
# fn: a FunctionDef; annotations: its Annotations and CallSites, from
# annotations.collect; body: its Stmt tree, from parse_body
AnnotatedFunction = namedtuple("AnnotatedFunction", "fn anchor annotations max_zoom body")


def annotated_functions(view: _cxx.CodeStream, defs: list[FunctionDef],
                        held: dict[int, list[_annotations.Annotation | CallSite]],
                        taken: dict[str, int]) -> list[AnnotatedFunction]:
    """The definitions ``annotations.collect`` placed annotations in, in the
    order of ``held``, each named, given its ``max_zoom`` and its body parsed.

    The anchor is the first of the mangled name and it + '__2', '__3', ...
    that is not yet ``taken`` (each anchor, case-folded, to the last suffix
    given to it as a name): anchors name diagram files, so no two may differ
    only in case. Share that map when several sources feed one page.
    """
    out: list[AnnotatedFunction] = []
    for d, inside in held.items():
        fn = defs[d]
        anchor = base = mangle_anchor(fn.qualified_name)
        key = base.casefold()
        while anchor.casefold() in taken:
            taken[key] += 1
            anchor = f"{base}__{taken[key]}"
        taken.setdefault(anchor.casefold(), 1)
        # a description's zoom is 0, and a call site has none
        max_zoom = max((a.zoom for a in inside
                        if isinstance(a, _annotations.Annotation)), default=0)
        out.append(AnnotatedFunction(fn, anchor, tuple(inside), max_zoom,
                                     _cxx.parse_body(fn, view)))
    return out


def analyze_source(source_path: str | os.PathLike, diags: list[Diagnostic],
                   taken: dict[str, int]) -> list[AnnotatedFunction] | None:
    """Read, scan and lex one file once, then recognize its definitions,
    collect its annotations and parse each annotated body.

    Returns the annotated functions; the lexed view is dropped on return.
    Returns None (with an error diagnostic) when the file cannot be read.
    """
    path = plain_path(source_path)  # diagnostics name it so
    try:
        with open(path, encoding="utf-8-sig") as file:  # a leading BOM is no code
            text = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        diags.append(error("io-error", f"cannot read source: {exc}", path))
        return None
    view = _cxx.CodeStream(text, path, diags)
    defs = _cxx.find_definitions(view)
    return annotated_functions(view, defs, _annotations.collect(view, defs), taken)


def analyze_stem(source_paths: list[str | os.PathLike],
                 diags: list[Diagnostic]) -> list[AnnotatedFunction] | None:
    """The annotated functions of the sources sharing one stem (typically a
    header and its .cpp), which share one anchor namespace; None when none
    of them is readable."""
    taken: dict[str, int] = {}
    results = [analyze_source(path, diags, taken) for path in source_paths]
    readable = [functions for functions in results if functions is not None]
    return [af for functions in readable for af in functions] if readable else None


def write_db(db_path: str | os.PathLike, page: str | os.PathLike,
             annotated: list[AnnotatedFunction], texts: dict[str, str]):
    """Write db_path for one stem's functions, documented on page, its text
    first put in ``texts`` by path, for ``load_merge`` even if the write fails."""
    url = url_quote(os.path.basename(page))
    text = texts[os.fspath(db_path)] = "".join(sorted(
        f"{af.fn.qualified_name}\t{url}#{af.anchor}\t{af.max_zoom}\n"
        for af in annotated))
    return atomic_write_text(db_path, text)


class FlowDb:
    """Merged view over the ``.flowdb`` databases of a run.

    ``entries`` is kept, not copied, and must not change after construction.
    ``_suffix`` maps the text after each ``::`` in every name to that name's
    entry, or to None when several names end in ``'::' + text``.
    """

    def __init__(self, entries: dict[str, FlowDbEntry]):
        self.entries = entries
        self._suffix: dict[str, FlowDbEntry | None] = {}
        for name, entry in entries.items():
            i = name.find("::")
            while i >= 0:
                key = name[i + 2:]
                self._suffix[key] = None if key in self._suffix else entry
                i = name.find("::", i + 1)

    def resolve(self, call: CallSite, file: str,
                diags: list[Diagnostic]) -> FlowDbEntry | None:
        """The entry a call site links to: exact qualified match first, then
        a unique ``*::name`` suffix match. Ambiguity breaks the link."""
        entry = self.entries.get(call.normalized_name)
        if entry is None:
            entry = self._suffix.get(call.normalized_name, ())  # None: ambiguous
            if entry is None:
                diags.append(warning(
                    "ambiguous-callee",
                    f"call '{call.callee_text}' matches multiple documented "
                    f"functions; not linked",
                    file, call.line))
        return entry or None


# the page, url_quote'd, holds no '#'; a zoom is at most MAX_ZOOM (99)
_DB_LINE_RE = re.compile(r"^(\S[^\t]*)\t([^\t#]+\.html)#(\w+)\t([0-9]{1,2})$")


def load_merge(db_dir: str | os.PathLike, diags: list[Diagnostic],
               texts: dict[str, str]) -> FlowDb:
    """Merge the databases ``texts`` holds by path and every other entry
    of db_dir, if it can be listed, whose name ends in ``.flowdb``, in the
    order of their paths, spelled as ``Path(db_dir) / name``.

    Malformed lines are skipped with a diagnostic. When one qualified name
    has several entries (overloads on one page, or definitions on several
    pages), the first entry read on the lexicographically first html path
    wins and the collision is reported.
    """
    merged: dict[str, FlowDbEntry] = {}
    pre = dir_prefix(db_dir)
    try:
        found = {pre + name for name in os.listdir(pre or ".") if name.endswith(".flowdb")}
    except (OSError, ValueError):  # missing, not a directory, unreadable
        found = set()
    for db_file in sorted(texts.keys() | found):
        try:
            if (content := texts.get(db_file)) is None:
                with open(db_file, encoding="utf-8") as file:
                    content = file.read()
        except (OSError, UnicodeDecodeError) as exc:
            diags.append(error("io-error", f"cannot read database: {exc}", db_file))
            continue
        for lineno, raw in enumerate(content.split("\n"), start=1):
            if not raw:
                continue
            m = _DB_LINE_RE.match(raw)
            if m is None:
                cut = f"... ({len(raw)} characters)" if len(raw) > 60 else ""
                diags.append(warning("malformed-db-line",
                                     f"malformed database line: {raw[:60]!r}{cut}",
                                     db_file, lineno))
                continue
            entry = FlowDbEntry(*m.group(1, 2, 3), int(m[4]))
            current = merged.setdefault(entry.qualified_name, entry)
            if (entry.html_path, entry.anchor) != (current.html_path, current.anchor):
                keep = current if current.html_path <= entry.html_path else entry
                merged[entry.qualified_name] = keep
                where = (f"more than once on {keep.html_path}; links go to "
                         f"{keep.html_path}#{keep.anchor}"
                         if entry.html_path == current.html_path else
                         f"on more than one page; links go to {keep.html_path}")
                diags.append(warning(
                    "duplicate-definition",
                    f"'{entry.qualified_name}' is documented {where}",
                    db_file, lineno))
    return FlowDb(merged)
