"""Command-line front end.

Three phases, runnable separately or in one shot:

    flowdoc build-db SOURCE...    write one .flowdb per source stem
    flowdoc makeflows SOURCE...   write PlantUML texts under aux_files/
    flowdoc makehtml [SOURCE...]  write the HTML pages and the index
    flowdoc all SOURCE...         the three phases in order

``main`` hands the parsed command line to ``run``, the one pipeline: analyze
each stem and write its database, merge the databases, build each stem's
diagrams, then write and render the diagrams (makeflows) and write the
pages and the index (makehtml). Phases communicate only through the output
directory, so running them as separate processes gives byte-identical
results to ``all``; a phase run on its own analyzes its own sources.

Diagnostics go to stderr as ``file:line: severity: message [code]``; exit
status is 0 for success, 1 when errors (or warnings under --werror)
occurred, 2 for usage problems. The command line is ``entry``, which skips
interpreter teardown; in-process callers use ``main``.
"""

from __future__ import annotations

import os
import stat
import sys
from contextlib import contextmanager
from types import SimpleNamespace

from . import __version__
from . import activity_ir, flowdb, html_emit, plantuml_emit
from .diagnostics import Diagnostic, Severity, error, warning
from .flowdb import SOURCE_SUFFIXES
from .ioutil import TMP_SUFFIX_BYTES, atomic_write_text, dir_prefix, plain_path

# the subprocess module, imported by the first run that renders; a name of
# this module so that flowbench's tracer can patch it to count render processes
subprocess = None

_PHASES = (
    ("build-db", "analyze sources and write flow databases"),
    ("makeflows", "write PlantUML activity diagrams for annotated functions"),
    ("makehtml", "write HTML pages and the index"),
    ("all", "run build-db, makeflows and makehtml in order"),
)


def build_parser():
    """The argparse parser: the reference for ``_read_argv``, and the only
    writer of help, the version and usage errors."""
    import argparse  # a run's command line is read without it
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
                             "to SVG; '{input}' is replaced by the .txt path, e.g. "
                             "'plantuml -tsvg {input}'; without '{input}' the path "
                             "is appended as the last argument. Up to one render per "
                             "CPU runs at a time, so the command must not write to a "
                             "fixed shared path; failures are reported in diagram order")
        sp.add_argument("--werror", action="store_true",
                        help="treat warnings as errors (exit status 1)")
        sp.add_argument("--quiet", action="store_true",
                        help="do not print warnings")
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)``'s namespace when argv is COMMAND,
    then --werror, --quiet, --out-dir V and --render-cmd V (or OPTION=V)
    around one run of SOURCEs, no V or SOURCE starting with '-'; else None."""
    if not argv or argv[0] not in dict(_PHASES):
        return None
    args = SimpleNamespace(command=argv[0], sources=[], out_dir=None,
                           render_cmd=None, werror=False, quiet=False)
    rest, after = iter(argv[1:]), False  # after: an option followed SOURCEs
    for arg in rest:
        if not arg.startswith("-"):
            if after:  # a second run of SOURCEs, which argparse rejects
                return None
            args.sources.append(arg)
            continue
        after = bool(args.sources)
        name, eq, value = arg.partition("=")
        if name in ("--werror", "--quiet") and not eq:
            setattr(args, name[2:], True)
        elif name in ("--out-dir", "--render-cmd"):
            value = value if eq else next(rest, "-")  # "-": no V follows
            if value.startswith("-"):
                return None
            setattr(args, name[2:].replace("-", "_"), value)
        else:
            return None
    return args


def _file_id(path: str) -> tuple[int, int] | None:
    """(st_dev, st_ino) of a regular file, None for anything else."""
    try:
        st = os.stat(path)
    except (OSError, ValueError):
        return None
    return (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else None


def _expand_sources(patterns: list[str],
                    diags: list[Diagnostic]) -> list[str]:
    """The files the patterns name, in order, each once under its first
    spelling as plain_path gives it: a file reached by two paths is one
    source. A file whose name is not UTF-8 is reported and left out."""
    out: dict[tuple[int, int], str] = {}
    for pattern in patterns:
        p = plain_path(pattern)
        if (fid := _file_id(p)) is not None:
            out.setdefault(fid, p)
            continue
        if is_dir := pattern != "" and os.path.isdir(p):  # "" is spelled "."
            # Path(p).rglob("*")'s entries whose Path(name).suffix is a source's
            found = sorted(dir_prefix(top) + name for top, dirs, files in os.walk(p)
                           for name in dirs + files if name[1:].endswith(SOURCE_SUFFIXES))
        else:
            import glob as _glob  # only patterns need it
            found = [plain_path(h) for h in sorted(_glob.glob(pattern, recursive=True))]
        hits = [(fid, h) for h in found if (fid := _file_id(h)) is not None]
        for fid, h in hits:
            out.setdefault(fid, h)
        if not hits and not is_dir:  # an empty directory is no error
            diags.append(error("io-error", f"no source matches '{pattern}'", pattern))
    kept = []
    for src in out.values():
        try:
            os.path.basename(src).encode()  # undecodable bytes are read as surrogates
            kept.append(src)
        except UnicodeEncodeError:  # its outputs' names and links could not be written
            diags.append(error("io-error", "cannot read source: its file name is not UTF-8", src))
    return kept


# ---------------------------------------------------------------------------
# phases

def _stem_groups(sources: list[str], diags: list[Diagnostic]
                 ) -> list[tuple[str, list[str]]]:
    """Sources bundled by stem, in first-appearance order, each group
    under its first spelling.

    A header and its .cpp share one database, one page and one anchor
    namespace, so every phase must see them as a unit. Stems are compared
    by ``_name_key``, as a case- and normalization-insensitive filesystem
    compares names. Two headers, or two implementation files, of one stem
    are merged too, with a warning, and so is a source whose stem is
    spelled otherwise (in other case, or other Unicode normalization).
    """
    groups: dict[str, tuple[str, list[str]]] = {}
    first: dict[tuple[str, bool], str] = {}
    for src in sources:
        name = src[src.rfind("/") + 1:]
        i = name.rfind(".")  # where Path(src).stem and .suffix split name
        base, suffix = (name[:i], name[i:]) if 0 < i < len(name) - 1 else (name, "")
        key = _name_key(base)
        stem, group = groups.setdefault(key, (base, []))
        other = first.setdefault((key, suffix in (".h", ".hpp", ".hh")), src)
        if other == src and stem != base:
            other = group[0]
        group.append(src)
        if other != src:
            diags.append(warning("stem-collision", f"{other} and {src} share "
                                 f"one stem, database and page", src))
    return list(groups.values())


def _name_key(name: str) -> str:
    """name as a filesystem that ignores case and Unicode normalization
    compares it: its canonical caseless form, NFD(casefold(NFD(name)))."""
    if name.isascii():
        return name.casefold()
    import unicodedata  # only a non-ASCII name needs it
    return unicodedata.normalize("NFD", unicodedata.normalize("NFD", name).casefold())


@contextmanager
def _isolated(file: str, diags: list[Diagnostic]):
    """A block whose failed write becomes an ``io-error`` at that output,
    and whose other unexpected failure an ``internal-error`` for the stem's
    file; the run goes on with the other stems."""
    try:
        yield
    except OSError as exc:  # only writes raise it: analysis reports its reads
        diags.append(error("io-error", f"cannot write output: {exc.strerror}",
                           exc.filename))
    except Exception as exc:  # the boundary that keeps the other stems going
        import traceback
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        diags.append(error(
            "internal-error",
            f"internal error ({type(exc).__name__} at "
            f"{os.path.basename(frame.filename)}:{frame.lineno}: {exc}); "
            f"this stem's output is incomplete", file))


def _render_workers() -> int:
    """Renders kept in flight: one per CPU this process may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _phase_render(paths: list[str], args, diags: list[Diagnostic]) -> None:
    """Run the render command once per diagram, up to one per CPU at a time.

    Results are read in the order of ``paths``, so the warnings come in
    diagram order whichever render finishes first. A command that fails to
    start is reported once, and nothing after it. ``subprocess`` is imported
    here, into the module-level name ``render`` calls through, so a run that
    renders nothing never loads it.
    """
    if not args.render_cmd:
        return
    # imported here: they would slow down the start of every run without renders
    global subprocess
    if subprocess is None:
        import subprocess
    import shlex
    from concurrent.futures import ThreadPoolExecutor
    try:
        args_template = shlex.split(args.render_cmd)
    except ValueError as exc:  # an unbalanced quote
        diags.append(warning("render-failed", f"render command failed to start: {exc}"))
        return
    if not any("{input}" in a for a in args_template):
        args_template.append("{input}")

    def render(path: str) -> subprocess.CompletedProcess | OSError:
        argv = [a.replace("{input}", path) for a in args_template]
        try:
            return subprocess.run(argv, capture_output=True, encoding="utf-8",
                                  errors="replace")
        except OSError as exc:
            return exc

    pool = ThreadPoolExecutor(max_workers=_render_workers())
    try:
        for path, proc in zip(paths, pool.map(render, paths)):
            if isinstance(proc, OSError):
                diags.append(warning("render-failed", f"render command failed to start: {proc}"))
                return
            if proc.returncode != 0:
                detail = (proc.stderr or proc.stdout or "").strip().splitlines()
                suffix = f": {detail[0]}" if detail else ""
                diags.append(warning("render-failed", f"render command exited with status "
                                     f"{proc.returncode} for {os.path.basename(path)}{suffix}"))
    finally:
        pool.shutdown(cancel_futures=True)


# a file name's bytes on most filesystems, less atomic_write_text's suffix
_NAME_BYTES = 255 - TMP_SUFFIX_BYTES


def _bounded(name: str, longest: str) -> str:
    """name, or, when name + longest would pass _NAME_BYTES, a prefix of
    name, '~' and a digest of all of name, short enough for longest to fit."""
    data, room = os.fsencode(name), _NAME_BYTES - len(longest)
    if len(data) <= room:
        return name
    import hashlib  # only a name over the cap needs it
    digest = hashlib.sha256(data).hexdigest()[:12]
    return data[:room - 13].decode(errors="ignore") + "~" + digest


# ---------------------------------------------------------------------------

def run(args, diags: list[Diagnostic]) -> None:
    """The pipeline: the phase ``args.command`` names, or all three in order.

    ``args`` is ``main``'s namespace with ``sources`` expanded to files
    (None when makehtml was given no SOURCE) and ``out_dir`` a str. Each
    source is analyzed once, and each function's activity tree is built and
    rendered once: makeflows writes those diagram texts and makehtml embeds
    the same texts in the pages. An unexpected failure in one stem spares
    the other stems, and a run that read no source writes nothing. Each
    output is named here once, in ``owner``: the index, and each stem's
    database, page and diagrams, mapped to the first source to name it. A
    path another source owns is skipped: a stem whose page is taken (one
    named ``index``) gets no database rows, one whose database is taken
    writes none, and a diagram two stems name shows only its text on the
    second one's page. Each skip is reported once, by the phase that skips
    a write. A name too long for a file keeps a prefix and ends in a digest
    (``_bounded``); a stem's database and page share one, and so do a
    function's diagrams. Paths are owned by ``_name_key``, so no two
    outputs differ only in case or Unicode normalization.
    """
    pre = dir_prefix(args.out_dir)  # every output's path is pre + its name
    index = pre + "index.html"
    owner = {_name_key(index): "the index"}  # by output path's _name_key

    def claim(path: str, file: str) -> str:
        """The first source to name path, file if none did."""
        return owner.setdefault(_name_key(path), file)

    stems, texts = [], {}  # texts: the databases this run writes, by path
    for stem, group in _stem_groups(args.sources or [], diags):
        base = _bounded(stem, ".flowdb")
        file, db_path, page = group[0], f"{pre}{base}.flowdb", f"{pre}{base}.html"
        db_owned = claim(db_path, file) == file
        owned = claim(page, file) == file
        annotated = None
        with _isolated(file, diags):
            annotated = flowdb.analyze_stem(group, diags)
            if annotated is not None and args.command in ("build-db", "all"):
                if annotated and not owned:
                    diags.append(warning("output-collision", f"'{base}.html' is already an output "
                                         f"of {claim(page, file)}; this stem gets no page and its "
                                         "functions are neither indexed nor linked", file))
                if db_owned:
                    flowdb.write_db(db_path, page, annotated if owned else [], texts)
        stems.append((stem, file, page, annotated))
    if args.command == "build-db":
        return
    db = flowdb.load_merge(args.out_dir, diags, texts)
    pages = []  # per stem: its functions, each with its diagrams as (path, text, owned)
    for stem, file, page, annotated in stems:
        funcs = []
        with _isolated(file, diags):  # the stem's list in full, or none of it
            funcs = [(af, [(f"{pre}aux_files/{base}__zoom{zoom}.txt", text)
                           for zoom, text in enumerate(plantuml_emit.render_function(
                               activity_ir.build_activity(af, db, diags), af.max_zoom))])
                     for af in annotated or ()
                     for base in [_bounded(f"{stem}__{af.anchor}", f"__zoom{af.max_zoom}.txt")]]
        pages.append((stem, file, page, [(af, [(path, text, claim(path, file) == file)
                                         for path, text in named]) for af, named in funcs]))
    if args.command in ("makeflows", "all"):
        paths = []
        for _, file, page, funcs in pages:
            with _isolated(file, diags):
                for path, text, owned in (d for _, diagrams in funcs for d in diagrams):
                    if owned:
                        paths.append(atomic_write_text(path, text))
                    else:
                        diags.append(warning(
                            "output-collision", f"'{path[len(pre):]}' is "
                            f"already an output of {claim(path, file)}; not written again", file))
        if not any(annotated for *_, annotated in stems):
            diags.append(warning("no-annotated-functions",
                                 "no annotated functions found; "
                                 "no diagrams were emitted"))
        _phase_render(paths, args, diags)
    if args.command in ("makehtml", "all"):
        for stem, file, page, funcs in pages:
            if funcs and claim(page, file) == file:
                with _isolated(file, diags):
                    html_emit.emit_page(page, stem, funcs)
        if args.sources is None or any(a is not None for *_, a in stems):
            with _isolated(index, diags):
                html_emit.emit_index(db, index)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if (args := _read_argv(argv)) is None:  # help, version, usage errors
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code else 0
    problem = ("at least one SOURCE is required"
               if not args.sources and args.command != "makehtml" else
               "--out-dir must not be empty" if args.out_dir == "" else None)
    if problem:
        print(f"flowdoc {args.command}: {problem}", file=sys.stderr)
        return 2

    diags: list[Diagnostic] = []
    args.sources = (_expand_sources(args.sources, diags)
                    if args.sources else None)  # makehtml indexes out_dir
    args.out_dir = args.out_dir or os.environ.get("FLOWDOC_OUT") or "flowdoc"
    run(args, diags)

    sys.stderr.write("".join(
        d.format() + "\n" for d in diags
        if d.severity is Severity.ERROR or not args.quiet))
    # every diagnostic that is not an error is a warning
    return int(any(d.severity is Severity.ERROR or args.werror
                   for d in diags))


def entry() -> None:
    """``main``, then ``os._exit`` once stdout and stderr are flushed: no
    interpreter teardown, unless a profiler or tracer needs a normal exit."""
    status = main()
    monitoring = getattr(sys, "monitoring", None)  # cProfile's hook from 3.12
    if not (sys.getprofile() or sys.gettrace() or monitoring and any(
            monitoring.get_tool(tool) for tool in range(6))):
        try:
            for stream in (sys.stdout, sys.stderr):  # None when fd is closed
                if stream is not None:
                    stream.flush()
            os._exit(status)
        except (OSError, ValueError):  # let the normal exit report it
            pass
    sys.exit(status)
