"""In-process spans around flowdoc's layers, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
flowdoc module that binds it, because callers look names up in their own
module (``line_code_map`` is bound in ``scanner``, ``cxx_structure`` and
``annotations``, for example). Methods are patched once on their class.
Render processes are counted by giving ``cli`` a ``subprocess`` proxy, so
the benchmark's own child processes stay uncounted.

Each span holds a name, start, end, parent span index, run id and work
counts. Spans stay in memory; ``Tracer.dump`` writes them out at the end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable

_MARK = "__flowbench_original__"


@dataclass
class Span:
    name: str
    start: float
    parent: int
    run: int
    end: float = 0.0
    work: dict[str, int] = field(default_factory=dict)


def _lexemes(args, kwargs, result):
    return {"lexemes": len(args[0].lexemes)}


def _text_bytes(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _diagrams(args, kwargs, result):
    return {"diagrams": len(result)}


def _linked(args, kwargs, result):
    return {"linked" if result is not None else "unlinked": 1}


def _diagnostics(args, kwargs, result):
    diags = args[1] if len(args) > 1 else kwargs["diags"]
    distinct = {(d.file, d.line, d.severity, d.code, d.message) for d in diags}
    return {"emitted": len(diags), "distinct": len(distinct)}


# (module, attribute or Class.method, span name, work counter)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("scanner", "scan", "scanner.scan", None),
    ("scanner", "line_code_map", "scanner.line_code_map", None),
    ("cxx_structure", "CodeStream.__init__", "cxx_structure.CodeStream", _lexemes),
    ("cxx_structure", "find_definitions", "cxx_structure.find_definitions", None),
    ("cxx_structure", "parse_body", "cxx_structure.parse_body", None),
    ("annotations", "collect", "annotations.collect", None),
    ("flowdb", "analyze_source", "flowdb.analyze_source", None),
    ("flowdb", "annotated_functions", "flowdb.annotated_functions", None),
    ("flowdb", "load_merge", "flowdb.load_merge", None),
    ("flowdb", "FlowDb.resolve", "flowdb.FlowDb.resolve", _linked),
    ("activity_ir", "build_activity", "activity_ir.build_activity", None),
    ("activity_ir", "project", "activity_ir.project", None),
    ("plantuml_emit", "render_function", "plantuml_emit.render_function", _diagrams),
    ("html_emit", "emit_page", "html_emit.emit_page", _file_bytes),
    ("html_emit", "emit_index", "html_emit.emit_index", None),
    ("ioutil", "atomic_write_text", "ioutil.atomic_write_text", _text_bytes),
    ("cli", "run", "cli.run", _diagnostics),
    # the render phase: one process per diagram when --render-cmd is given,
    # a few microseconds otherwise
    ("cli", "_phase_render", "cli.render", None),
)
RENDER_SPAN = "cli.render"


class _SubprocessProxy:
    """Stands in for the ``subprocess`` module inside ``flowdoc.cli``."""

    def __init__(self, run):
        self.run = run

    def __getattr__(self, name):
        return getattr(subprocess, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, tracer._stack[-1] if tracer._stack else -1,
                        tracer.run)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.work = counter(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, _MARK, fn)
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every binding of every target in the flowdoc package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = flowdoc_modules()
        for mod_name, attr, span_name, counter in TARGETS:
            mod = mods[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(span_name, original, counter))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(span_name, original, counter)
            for other in mods.values():
                for name, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, name, wrapper)
        self._patch(mods["cli"], "subprocess",
                    _SubprocessProxy(self._count_spawns(subprocess.run)))

    def _count_spawns(self, run):
        """subprocess.run that adds one to the open span's ``spawns``."""
        def counted(*args, **kwargs):
            if self._stack:
                work = self.spans[self._stack[-1]].work
                work["spawns"] = work.get("spawns", 0) + 1
            return run(*args, **kwargs)
        return counted

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def new_run(self) -> int:
        self.run += 1
        return self.run

    def summary(self, run: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and summed work counts of one run."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.run == run and span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for idx, span in enumerate(self.spans):
            if span.run != run:
                continue
            agg = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += span.end - span.start - child_time[idx]
            for key, value in span.work.items():
                agg[key] = agg.get(key, 0) + value
        return out

    def dump(self, path) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for idx, s in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": idx, "name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "run": s.run, "work": s.work}) + "\n")


def flowdoc_modules() -> dict[str, ModuleType]:
    import flowdoc.cli  # noqa: F401  (imports every layer)
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("flowdoc.") and mod is not None}


def leftover_wrappers() -> list[str]:
    """Bindings in the flowdoc package that still point at a wrapper."""
    found = []
    for mod_name, mod in flowdoc_modules().items():
        for name, value in vars(mod).items():
            if hasattr(value, _MARK) or isinstance(value, _SubprocessProxy):
                found.append(f"{mod_name}.{name}")
            if isinstance(value, type) and value.__module__.startswith("flowdoc"):
                for meth, fn in vars(value).items():
                    if hasattr(fn, _MARK):
                        found.append(f"{mod_name}.{name}.{meth}")
    return found
