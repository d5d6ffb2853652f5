"""The flow database: one ``.flowdb`` file per source, merged for linking.

Format, one entry per line, sorted, LF-terminated:

    qualified_name<TAB>page.html#anchor<TAB>max_zoom

The database is the only channel between the build-db phase and the later
phases, which is what lets every phase run as a separate process: whoever
holds the ``.flowdb`` files can resolve cross-diagram links without
re-reading the other sources.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from pathlib import Path

from . import annotations as _annotations
from . import cxx_structure as _cxx
from . import scanner as _scanner
from .cxx_structure import CallSite, FunctionDef, Stmt
from .diagnostics import Diagnostic, error, sink, warning
from .ioutil import atomic_write_text

SOURCE_SUFFIXES = (".cpp", ".cc", ".cxx", ".C", ".h", ".hpp", ".hh")


def mangle_anchor(qualified_name: str) -> str:
    """HTML anchor for a qualified name: '::' becomes '__', any other
    non-word character becomes '_'."""
    return re.sub(r"[^0-9A-Za-z_]", "_", qualified_name.replace("::", "__"))


@dataclass(frozen=True)
class FlowDbEntry:
    qualified_name: str
    html_path: str
    anchor: str
    max_zoom: int


@dataclass
class AnnotatedFunction:
    fn: FunctionDef
    anchor: str
    annotations: list[_annotations.Annotation]
    max_zoom: int
    body: Stmt | None = None  # statement tree, set by analyze_source


def annotated_functions(defs: list[FunctionDef],
                        annos: list[_annotations.Annotation],
                        taken: dict[str, int] | None = None) -> list[AnnotatedFunction]:
    """Pair definitions with the annotations inside their bodies.

    This is the one place that decides which annotations belong to a
    function, and its ``max_zoom``: those whose ``//$`` marker lies between
    the body's braces, so a line two bodies share goes to one of them.
    Functions without annotations are skipped. Anchors are deduplicated
    ('__2', '__3', ...) so overloads get distinct targets; pass a shared
    ``taken`` map when several sources feed one page.
    """
    taken = {} if taken is None else taken
    annos = sorted(annos, key=lambda a: a.offset)
    offsets = [a.offset for a in annos]
    out: list[AnnotatedFunction] = []
    for fn in defs:
        inside = annos[bisect.bisect_right(offsets, fn.body_start.offset):
                       bisect.bisect_left(offsets, fn.body_end.offset)]
        if not inside:
            continue
        base = mangle_anchor(fn.qualified_name)
        count = taken.get(base, 0) + 1
        taken[base] = count
        anchor = base if count == 1 else f"{base}__{count}"
        max_zoom = max((a.zoom for a in inside
                        if a.kind is _annotations.AnnotationKind.ACTION), default=0)
        out.append(AnnotatedFunction(fn, anchor, inside, max_zoom))
    return out


def analyze_source(source_path: str | Path,
                   diags: list[Diagnostic] | None = None,
                   taken: dict[str, int] | None = None
                   ) -> list[AnnotatedFunction] | None:
    """Read, scan and lex one file once, then recognize its definitions,
    collect its annotations and parse each annotated body.

    Returns the annotated functions; the tokens and the lexed view are
    dropped on return. Returns None (with an error diagnostic) when the file
    cannot be read.
    """
    diags = sink(diags)
    path = Path(source_path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        diags.append(error("io-error", f"cannot read source: {exc}", str(path)))
        return None
    view = _cxx.CodeStream(_scanner.scan(text, str(path), diags))
    defs = _cxx.find_definitions(view, str(path), diags)
    annos = _annotations.collect(view, str(path), diags, defs)
    annotated = annotated_functions(defs, annos, taken)
    for af in annotated:
        af.body = _cxx.parse_body(af.fn, view, diags,
                                  [c for a in af.annotations for c in a.calls])
    return annotated


def analyze_stem(source_paths: list[str | Path],
                 diags: list[Diagnostic] | None = None
                 ) -> list[AnnotatedFunction] | None:
    """The annotated functions of the sources sharing one stem (typically a
    header and its .cpp), which share one anchor namespace; None when none
    of them is readable."""
    taken: dict[str, int] = {}
    annotated: list[AnnotatedFunction] = []
    readable = False
    for source_path in source_paths:
        functions = analyze_source(source_path, diags, taken)
        if functions is not None:
            readable = True
            annotated.extend(functions)
    return annotated if readable else None


def write_db(stem: str, annotated: list[AnnotatedFunction],
             out_dir: str | Path) -> Path:
    """Write <stem>.flowdb for the annotated functions of one stem."""
    html_path = stem + ".html"
    lines = sorted(
        f"{af.fn.qualified_name}\t{html_path}#{af.anchor}\t{af.max_zoom}\n"
        for af in annotated)
    db_path = Path(out_dir) / (stem + ".flowdb")
    atomic_write_text(db_path, "".join(lines))
    return db_path


class FlowDb:
    """Merged view over every ``.flowdb`` in the output directory.

    ``entries`` must not change after construction: the suffix index is
    built from it once.
    """

    def __init__(self, entries: dict[str, FlowDbEntry] | None = None):
        self.entries: dict[str, FlowDbEntry] = dict(entries or {})
        # entries by the text after their last '::'; every name ending in
        # '::' + N shares that key with '::' + N
        self._by_last: dict[str, list[tuple[str, FlowDbEntry]]] = {}
        for name, entry in self.entries.items():
            self._by_last.setdefault(_last_part(name), []).append((name, entry))

    def resolve(self, call: CallSite, file: str | None = None,
                diags: list[Diagnostic] | None = None) -> FlowDbEntry | None:
        """The entry a call site links to: exact qualified match first, then
        a unique ``*::name`` suffix match. Ambiguity breaks the link."""
        diags = sink(diags)
        entry = self.entries.get(call.normalized_name)
        if entry is None:
            suffix = "::" + call.normalized_name
            hits = [e for name, e in self._by_last.get(_last_part(suffix), ())
                    if name.endswith(suffix)]
            if len(hits) > 1:
                diags.append(warning(
                    "ambiguous-callee",
                    f"call '{call.callee_text}' matches multiple documented "
                    f"functions; not linked",
                    file, call.line))
            entry = hits[0] if len(hits) == 1 else None
        return entry


def _last_part(name: str) -> str:
    return name.rpartition("::")[2]


_DB_LINE_RE = re.compile(r"^(\S[^\t]*)\t([^\t#]+\.html)#(\w+)\t(\d+)$")


def load_merge(db_dir: str | Path,
               diags: list[Diagnostic] | None = None) -> FlowDb:
    """Merge every ``*.flowdb`` under db_dir.

    Malformed lines are skipped with a diagnostic. When the same qualified
    name appears in several databases the entry with the lexicographically
    first html path wins and the collision is reported.
    """
    diags = sink(diags)
    merged: dict[str, FlowDbEntry] = {}
    for db_file in sorted(Path(db_dir).glob("*.flowdb")):
        try:
            content = db_file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            diags.append(error("io-error", f"cannot read database: {exc}",
                               str(db_file)))
            continue
        for lineno, raw in enumerate(content.split("\n"), start=1):
            if not raw:
                continue
            m = _DB_LINE_RE.match(raw)
            if m is None:
                diags.append(warning("malformed-db-line",
                                     f"malformed database line: {raw!r}",
                                     str(db_file), lineno))
                continue
            entry = FlowDbEntry(m.group(1), m.group(2), m.group(3),
                                int(m.group(4)))
            current = merged.get(entry.qualified_name)
            if current is None:
                merged[entry.qualified_name] = entry
            elif (entry.html_path, entry.anchor) != (current.html_path, current.anchor):
                keep = current if current.html_path <= entry.html_path else entry
                merged[entry.qualified_name] = keep
                diags.append(warning(
                    "duplicate-definition",
                    f"'{entry.qualified_name}' is documented on more than one "
                    f"page; links go to {keep.html_path}",
                    str(db_file), lineno))
    return FlowDb(merged)
