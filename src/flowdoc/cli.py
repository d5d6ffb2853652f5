"""Command-line front end.

Three phases, runnable separately or in one shot:

    flowdoc build-db SOURCE...    write one .flowdb per source stem
    flowdoc makeflows SOURCE...   write PlantUML texts under aux_files/
    flowdoc makehtml [SOURCE...]  write the HTML pages and the index
    flowdoc all SOURCE...         the three phases in order

Phases communicate only through the output directory, so running them as
separate processes gives byte-identical results to ``all``. ``all`` reads,
scans and analyzes each source once, and builds and renders each diagram
once for both the diagram files and the pages; a phase run on its own
analyzes its own sources.

Diagnostics go to stderr as ``file:line: severity: message [code]``; exit
status is 0 for success, 1 when errors (or warnings under --werror)
occurred, 2 for usage problems.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from . import activity_ir, flowdb, html_emit, plantuml_emit
from .diagnostics import Diagnostic, Severity, error, warning
from .flowdb import SOURCE_SUFFIXES
from .ioutil import atomic_write_text

_PHASES = (
    ("build-db", "analyze sources and write flow databases"),
    ("makeflows", "write PlantUML activity diagrams for annotated functions"),
    ("makehtml", "write HTML pages and the index"),
    ("all", "run build-db, makeflows and makehtml in order"),
)


@dataclass
class Config:
    command: str
    sources: list[str] = field(default_factory=list)
    out_dir: Path = Path("flowdoc")
    render_cmd: str | None = None
    warnings_as_errors: bool = False
    quiet: bool = False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowdoc",
        description="Generate interlinked activity diagrams and HTML pages "
                    "from //$ annotations in C++ sources.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{build-db,makeflows,makehtml,all}")
    for name, help_text in _PHASES:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("sources", nargs="*", metavar="SOURCE",
                        help="C++ source file, directory (searched "
                             "recursively) or glob pattern")
        sp.add_argument("--out-dir", default=None,
                        help="output directory (default: $FLOWDOC_OUT "
                             "or ./flowdoc)")
        sp.add_argument("--render-cmd", default=None,
                        help="command template that renders a diagram text "
                             "to SVG; '{input}' is replaced by the .txt "
                             "path, e.g. 'plantuml -tsvg {input}'. Up to "
                             "one render per CPU runs at a time, so the "
                             "command must not write to a fixed shared "
                             "path; failures are reported in diagram order")
        sp.add_argument("--werror", action="store_true",
                        help="treat warnings as errors (exit status 1)")
        sp.add_argument("--quiet", action="store_true",
                        help="do not print warnings")
    return parser


def _expand_sources(patterns: list[str],
                    diags: list[Diagnostic]) -> list[str]:
    import glob as _glob
    out: list[str] = []
    for pattern in patterns:
        p = Path(pattern)
        if p.is_file():
            out.append(str(p))
        elif p.is_dir():
            out.extend(sorted(
                str(q) for q in p.rglob("*")
                if q.is_file() and q.suffix in SOURCE_SUFFIXES))
        else:
            hits = sorted(h for h in _glob.glob(pattern, recursive=True)
                          if Path(h).is_file())
            if hits:
                out.extend(hits)
            else:
                diags.append(error("io-error",
                                   f"no source matches '{pattern}'", pattern))
    seen = set()
    unique = []
    for s in out:
        if s not in seen:
            seen.add(s)
            unique.append(s)
    return unique


# ---------------------------------------------------------------------------
# phases

def _stem_groups(sources: list[str]) -> list[tuple[str, list[str]]]:
    """Sources bundled by stem, in first-appearance order.

    A header and its .cpp share one database, one page and one anchor
    namespace, so every phase must see them as a unit.
    """
    groups: dict[str, list[str]] = {}
    for src in sources:
        groups.setdefault(Path(src).stem, []).append(src)
    return list(groups.items())


# each annotated function of a stem with its diagram texts, level 0 first
Funcs = list[tuple[flowdb.AnnotatedFunction, list[str]]]
# per stem, its first source and its functions
Pages = list[tuple[str, str, Funcs]]


def _isolated(file: str, diags: list[Diagnostic], work, *args):
    """``work(*args)``, or None when it raises.

    One stem's unexpected failure becomes an ``internal-error`` for its
    file, and the run goes on with the other stems.
    """
    try:
        return work(*args)
    except Exception as exc:  # the boundary that keeps the other stems going
        import traceback
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        diags.append(error(
            "internal-error",
            f"internal error ({type(exc).__name__} at "
            f"{Path(frame.filename).name}:{frame.lineno}: {exc}); "
            f"this stem's output is incomplete", file))
        return None


def _analyze(stem: str, group: list[str], cfg: Config,
             diags: list[Diagnostic]) -> list[flowdb.AnnotatedFunction] | None:
    annotated = flowdb.analyze_stem(group, diags)
    if annotated is not None and cfg.command in ("build-db", "all"):
        flowdb.write_db(stem, annotated, cfg.out_dir)
    return annotated


def _build(annotated: list[flowdb.AnnotatedFunction], db: flowdb.FlowDb,
           diags: list[Diagnostic]) -> Funcs:
    return [(af, plantuml_emit.render_function(
                activity_ir.build_activity(af, db, diags)))
            for af in annotated]


def _write_diagrams(stem: str, funcs: Funcs, aux: Path) -> list[Path]:
    return [atomic_write_text(
                aux / plantuml_emit.diagram_filename(stem, af.anchor, zoom),
                text)
            for af, texts in funcs for zoom, text in enumerate(texts)]


def _phase_makeflows(pages: Pages, cfg: Config,
                     diags: list[Diagnostic]) -> None:
    aux = cfg.out_dir / "aux_files"
    paths = []
    for stem, file, funcs in pages:
        paths.extend(_isolated(file, diags, _write_diagrams, stem, funcs, aux)
                     or ())
    if not paths:
        diags.append(warning("no-annotated-functions",
                             "no annotated functions found; "
                             "no diagrams were emitted"))
    _phase_render(paths, cfg, diags)


def _render_workers() -> int:
    """Renders kept in flight: one per CPU this process may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _phase_render(paths: list[Path], cfg: Config,
                  diags: list[Diagnostic]) -> None:
    """Run the render command once per diagram, up to one per CPU at a time.

    Results are read in the order of ``paths``, so the warnings come in
    diagram order whichever render finishes first. A command that fails to
    start is reported once, and nothing after it.
    """
    if not cfg.render_cmd:
        return
    # imported here: it would slow down the start of every run without renders
    from concurrent.futures import ThreadPoolExecutor
    args_template = shlex.split(cfg.render_cmd)
    has_placeholder = any("{input}" in a for a in args_template)

    def render(path: Path) -> subprocess.CompletedProcess | OSError:
        argv = [a.replace("{input}", str(path)) for a in args_template]
        if not has_placeholder:
            argv.append(str(path))
        try:
            return subprocess.run(argv, capture_output=True, text=True)
        except OSError as exc:
            return exc

    pool = ThreadPoolExecutor(max_workers=_render_workers())
    try:
        for path, proc in zip(paths, pool.map(render, paths)):
            if isinstance(proc, OSError):
                failed = f"render command failed to start: {proc}"
                diags.append(warning("render-failed", failed))
                return
            if proc.returncode != 0:
                out = proc.stderr or proc.stdout or ""
                detail = out.strip().splitlines()
                suffix = f": {detail[0]}" if detail else ""
                diags.append(warning(
                    "render-failed",
                    f"render command exited with status {proc.returncode} "
                    f"for {path.name}{suffix}"))
    finally:
        pool.shutdown(cancel_futures=True)


def _phase_makehtml(pages: Pages, db: flowdb.FlowDb, cfg: Config,
                    diags: list[Diagnostic]) -> None:
    for stem, file, funcs in pages:
        if funcs:
            _isolated(file, diags, html_emit.emit_page, stem, funcs,
                      cfg.out_dir)
    html_emit.emit_index(db, cfg.out_dir)


# ---------------------------------------------------------------------------

def run(cfg: Config, diags: list[Diagnostic]) -> None:
    """Run the configured phase, or all three, analyzing each source once.

    Every stem is analyzed, then its database is written (build-db). The
    later phases merge the databases once, and build and render each
    function's activity tree once; makeflows writes those diagram texts and
    makehtml embeds the same texts in the pages. An unexpected failure in
    one stem's analysis, build or output spares the other stems.
    """
    stems = [(stem, group[0],
              _isolated(group[0], diags, _analyze, stem, group, cfg, diags))
             for stem, group in _stem_groups(cfg.sources)]
    if cfg.command == "build-db":
        return
    db = flowdb.load_merge(cfg.out_dir, diags)
    pages = [(stem, file,
              _isolated(file, diags, _build, annotated or [], db, diags) or [])
             for stem, file, annotated in stems]
    if cfg.command in ("makeflows", "all"):
        _phase_makeflows(pages, cfg, diags)
    if cfg.command in ("makehtml", "all"):
        _phase_makehtml(pages, db, cfg, diags)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    diags: list[Diagnostic] = []
    sources = _expand_sources(args.sources, diags)
    if not args.sources and args.command != "makehtml":
        print(f"flowdoc {args.command}: at least one SOURCE is required",
              file=sys.stderr)
        return 2

    out_dir = args.out_dir or os.environ.get("FLOWDOC_OUT") or "flowdoc"
    cfg = Config(command=args.command, sources=sources,
                 out_dir=Path(out_dir), render_cmd=args.render_cmd,
                 warnings_as_errors=args.werror, quiet=args.quiet)
    run(cfg, diags)

    has_error = False
    has_warning = False
    for d in diags:
        if d.severity is Severity.ERROR:
            has_error = True
        else:
            has_warning = True
            if cfg.quiet:
                continue
        print(d.format(), file=sys.stderr)
    if has_error or (cfg.warnings_as_errors and has_warning):
        return 1
    return 0
