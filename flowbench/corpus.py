"""Seeded synthetic C++ corpora and the oracle of what flowdoc must emit.

A corpus is a dict of relative source paths to text. The oracle is derived
from the same generator decisions, never from running flowdoc:

* ``flowdb``: the exact lines of every ``<stem>.flowdb``;
* ``diagrams``: every ``aux_files/<stem>__<anchor>__zoomK.txt`` with the
  lines that must appear in it and the texts that must not;
* ``anchors``: the ``id`` attributes every page must carry;
* ``index``: the ``href`` targets ``index.html`` must list;
* ``diagnostics``: the distinct diagnostic codes and their counts.

Only names, words and call targets depend on the seed. File, function,
statement and annotation counts depend on the workload alone, so the cost
of a workload does not drift from seed to seed.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field

WORKLOADS = ("monolith", "many-files", "zoom-fanout", "render")

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


def _word(rng: random.Random) -> str:
    """A five-letter pseudo-word; fixed length keeps cost seed-independent."""
    return "".join(rng.choice(_CONSONANTS if k % 2 == 0 else _VOWELS)
                   for k in range(5))


def _anchor(qualified_name: str) -> str:
    # generated names are word characters joined by '::'
    return qualified_name.replace("::", "__")


@dataclass
class _Action:
    text: str
    zoom: int


@dataclass
class _Link:
    target: str      # documented function key, resolved after generation
    zoom: int        # zoom of the action box the call attaches to


@dataclass
class _Label:
    text: str
    zoom: int        # lowest zoom of any action inside the construct


@dataclass
class _Function:
    qname: str
    stem: str
    actions: list[_Action] = field(default_factory=list)
    links: list[_Link] = field(default_factory=list)
    labels: list[_Label] = field(default_factory=list)

    @property
    def anchor(self) -> str:
        return _anchor(self.qname)

    @property
    def max_zoom(self) -> int:
        return max(a.zoom for a in self.actions)


class _Body:
    """Writes one function body and records what its diagrams must show."""

    def __init__(self, rng: random.Random, fn: _Function, tag: str,
                 indent: int):
        self.rng = rng
        self.fn = fn
        self.tag = tag
        self.indent = indent
        self.lines: list[str] = []
        self.n_actions = 0
        self.n_labels = 0

    def put(self, depth: int, text: str) -> None:
        self.lines.append("    " * (self.indent + depth) + text)

    def _words(self, n: int) -> str:
        return " ".join(_word(self.rng) for _ in range(n))

    def action(self, depth: int, zoom: int, parallel: bool = False) -> int:
        text = f"{self.tag}a{self.n_actions:03d} {self._words(3)}"
        self.n_actions += 1
        marker = f"//${zoom}" if zoom else "//$"
        tag = " <parallel>" if parallel else ""
        self.put(depth, f"{marker}{tag} {text}")
        self.put(depth, f"acc += {self.n_actions % 7 + 1};")
        self.fn.actions.append(_Action(text, zoom))
        return zoom

    def call(self, depth: int, callee: str, zoom: int,
             target: str | None) -> None:
        """A highlighted call right after an action, so it joins that box."""
        self.put(depth, f"{callee}(acc);  //$")
        if target is not None:
            self.fn.links.append(_Link(target, zoom))

    def label(self, depth: int) -> str:
        text = f"{self.tag}c{self.n_labels:03d} {self._words(2)}"
        self.n_labels += 1
        self.put(depth, f"//$ [{text}]")
        return text

    def nested(self, depth: int, max_depth: int, zooms: list[int],
               per_block: int, parallel_every: int) -> int:
        """A block of actions with one construct nested max_depth deep.

        Returns the lowest zoom used inside the block.
        """
        lowest = 99
        for _ in range(per_block):
            zoom = zooms[(self.n_actions * 7 + depth) % len(zooms)]
            lowest = min(lowest, self.action(depth, zoom))
        if parallel_every and depth % parallel_every == 0:
            zoom = zooms[(depth + 3) % len(zooms)]
            for _ in range(3):
                lowest = min(lowest, self.action(depth, zoom, parallel=True))
        if depth >= max_depth:
            return lowest
        kind = depth % 4
        text = self.label(depth)
        label_at = len(self.fn.labels)
        self.fn.labels.append(_Label(text, 0))
        var = f"v{depth}"
        if kind == 0:
            self.put(depth, f"if (acc > {depth}) {{")
            inner = self.nested(depth + 1, max_depth, zooms, per_block,
                                parallel_every)
            self.put(depth, "} else {")
            inner = min(inner, self.action(depth + 1, zooms[depth % len(zooms)]))
            self.put(depth, "}")
        elif kind == 1:
            self.put(depth, f"for (int {var} = 0; {var} < acc; ++{var}) {{")
            inner = self.nested(depth + 1, max_depth, zooms, per_block,
                                parallel_every)
            self.put(depth, "}")
        elif kind == 2:
            self.put(depth, f"while (acc > {depth + 1}) {{")
            inner = self.nested(depth + 1, max_depth, zooms, per_block,
                                parallel_every)
            self.put(depth, "acc /= 2;")
            self.put(depth, "}")
        else:
            self.put(depth, "do {")
            inner = self.nested(depth + 1, max_depth, zooms, per_block,
                                parallel_every)
            self.put(depth, f"}} while (acc-- > {depth});")
        self.fn.labels[label_at].zoom = inner
        return min(lowest, inner)


@dataclass
class Corpus:
    files: dict[str, str]
    oracle: dict

    @property
    def source_lines(self) -> int:
        return sum(text.count("\n") for text in self.files.values())

    def oracle_json(self) -> str:
        return json.dumps(self.oracle, sort_keys=True, indent=1) + "\n"


class _Draft:
    """The files and documented functions of a corpus being generated."""

    def __init__(self) -> None:
        self.files: dict[str, str] = {}
        self.functions: dict[str, _Function] = {}  # key -> documented fn
        self.diagnostics: Counter = Counter()

    def no_link(self, ambiguous: bool = False) -> None:
        self.diagnostics["no-link"] += 1
        if ambiguous:
            self.diagnostics["ambiguous-callee"] += 1

    def finish(self) -> Corpus:
        flowdb: dict[str, list[str]] = {}
        anchors: dict[str, list[str]] = {}
        diagrams: dict[str, dict[str, list[str]]] = {}
        for fn in self.functions.values():
            flowdb.setdefault(fn.stem, []).append(
                f"{fn.qname}\t{fn.stem}.html#{fn.anchor}\t{fn.max_zoom}")
            page = anchors.setdefault(f"{fn.stem}.html", [])
            page.append(fn.anchor)
            for level in range(fn.max_zoom + 1):
                page.append(f"{fn.anchor}__zoom{level}")
                must, must_not = [], []
                for a in fn.actions:
                    (must if a.zoom <= level else must_not).append(f":{a.text}")
                for lb in fn.labels:
                    (must if lb.zoom <= level else must_not).append(f"({lb.text})")
                for link in fn.links:
                    if link.zoom <= level:
                        dest = self.functions[link.target]
                        must.append(f"[[../{dest.stem}.html#{dest.anchor} "
                                    f"{dest.qname}()]]")
                name = f"{fn.stem}__{fn.anchor}__zoom{level}.txt"
                diagrams[name] = {"must": must, "must_not": must_not}
        oracle = {
            "flowdb": {stem: sorted(lines) for stem, lines in flowdb.items()},
            "anchors": {page: sorted(ids) for page, ids in anchors.items()},
            "index": sorted(f"{fn.stem}.html#{fn.anchor}"
                            for fn in self.functions.values()),
            "diagrams": diagrams,
            "diagnostics": dict(sorted(self.diagnostics.items())),
        }
        return Corpus(dict(sorted(self.files.items())), oracle)


# ---------------------------------------------------------------------------
# workloads

def _monolith(rng: random.Random, n_files: int = 2,
              n_funcs: int = 40) -> Corpus:
    """A few long translation units of in-class methods, zoom 0-2, each
    method with a highlighted call to the next one."""
    b = _Draft()
    keys = [(f, k) for f in range(n_files) for k in range(n_funcs)]
    method = {key: f"m{key[0]}{key[1]:03d}_{_word(rng)}" for key in keys}
    for f in range(n_files):
        outer, inner, cls = _word(rng), _word(rng), f"{_word(rng).title()}Evolver"
        stem = f"unit{f}_{_word(rng)}"
        lines = ["#include <vector>", "", f"namespace {outer} {{",
                 f"namespace {inner} {{", "", f"class {cls} {{", "public:"]
        for k in range(n_funcs):
            key = (f, k)
            fn = _Function(f"{outer}::{inner}::{cls}::{method[key]}", stem)
            b.functions[method[key]] = fn
            body = _Body(rng, fn, f"u{f}m{k:03d}", indent=2)
            lines.append(f"    int {method[key]}(int n) {{")
            body.put(0, "int acc = n;")
            zoom = body.action(0, 0)
            nxt = f * n_funcs + k + 1
            if nxt < len(keys):
                body.call(0, method[keys[nxt]], zoom, method[keys[nxt]])
            else:
                body.call(0, f"flush_{_word(rng)}", zoom, None)
                b.no_link()
            body.action(0, 1)
            body.put(0, f"if (acc > {k % 5}) {{")
            body.action(1, 2)
            body.put(0, "}")
            body.put(0, "return acc;")
            lines.extend(body.lines)
            lines.append("    }")
            lines.append("")
        lines += ["};", "", f"}}  // namespace {inner}",
                  f"}}  // namespace {outer}", ""]
        b.files[f"src/{stem}.cpp"] = "\n".join(lines)
    return b.finish()


def _many_files(rng: random.Random, n_stems: int = 100,
                zmax_cycle: tuple[int, ...] = (0, 1),
                headers: bool = True) -> Corpus:
    """Small .h/.cpp pairs with 2-4 documented functions each, whose
    highlighted calls cross files.

    Calls cycle through fixed categories: seven in ten resolve by a unique
    ``*::name`` suffix, one is fully qualified, one names a function
    documented on two pages (ambiguous) and one an undocumented function.
    """
    b = _Draft()
    stems = []
    for i in range(n_stems):
        n_funcs = 2 + i % 3
        ns, cls = f"ns{i:03d}{_word(rng)}", f"K{i:03d}{_word(rng).title()}"
        names = [f"f{i:03d}{k}_{_word(rng)}" for k in range(n_funcs)]
        if i % 10 in (3, 8):
            # documented on two pages: unqualified calls are ambiguous
            names[1] = f"sync_{i // 10:03d}_x"
        stem = f"s{i:03d}_{_word(rng)}"
        fns = [_Function(f"{ns}::{cls}::{name}", stem) for name in names]
        b.functions.update((fn.qname, fn) for fn in fns)
        stems.append((stem, ns, cls, names, fns, f"plain_{_word(rng)}",
                      f"helper_{_word(rng)}"))
    unique = [key for key in b.functions if "::sync_" not in key]
    shared = sorted({key.rsplit("::", 1)[-1] for key in b.functions
                     if "::sync_" in key})
    n_calls = 0
    for i, (stem, ns, cls, names, fns, plain, helper) in enumerate(stems):
        bodies = []
        for k, fn in enumerate(fns):
            body = _Body(rng, fn, f"s{i:03d}f{k}", indent=0)
            zmax = zmax_cycle[(i + k) % len(zmax_cycle)]
            body.put(1, "int acc = v;")
            for j in range(2):
                zoom = body.action(1, min(j, zmax))
                category = n_calls % 10
                n_calls += 1
                if category == 7:
                    target = rng.choice(unique)
                    body.call(1, target, zoom, target)
                elif category == 8:
                    body.call(1, rng.choice(shared), zoom, None)
                    b.no_link(ambiguous=True)
                elif category == 9:
                    body.call(1, rng.choice((plain, helper)), zoom, None)
                    b.no_link()
                else:
                    target = rng.choice(unique)
                    short = target.rsplit("::", 1)[-1]
                    body.call(1, short, zoom, target)
            body.put(1, "if (acc > 2) {")
            body.action(2, zmax)
            body.put(1, "}")
            body.put(1, "return acc;")
            bodies.append(body.lines)
        decls = [f"    int {name}(int v);" for name in names[1:]]
        inline = ([f"    int {names[0]}(int v) {{"] +
                  ["    " + ln for ln in bodies[0]] + ["    }"])
        out_of_line = []
        for name, lines in zip(names[1:], bodies[1:]):
            out_of_line += [f"int {cls}::{name}(int v) {{"] + lines + ["}", ""]
        plain_def = [f"int {plain}(int v) {{", "    return v + 1;", "}", ""]
        class_def = ([f"class {cls} {{", "public:"] + inline + decls + ["};"])
        if headers:
            b.files[f"src/{stem}.h"] = "\n".join(
                ["#pragma once", "", f"namespace {ns} {{", "",
                 f"int {helper}(int v);", ""] + class_def +
                ["", f"}}  // namespace {ns}", ""])
            cpp = [f'#include "{stem}.h"', "", f"namespace {ns} {{", ""]
        else:
            cpp = ["", f"namespace {ns} {{", "", f"int {helper}(int v);", ""]
            cpp += class_def + [""]
        cpp += plain_def + out_of_line + [f"}}  // namespace {ns}", ""]
        b.files[f"src/{stem}.cpp"] = "\n".join(cpp)
    return b.finish()


def _zoom_fanout(rng: random.Random, n_stems: int = 24) -> Corpus:
    """One or two functions per file, zoom 0-9, parallel runs and about a
    dozen levels of nested branches and loops."""
    b = _Draft()
    zooms = list(range(10))
    for i in range(n_stems):
        ns = f"fan{i:03d}{_word(rng)}"
        stem = f"flow{i:03d}_{_word(rng)}"
        lines = ["#include <cstdio>", "", f"namespace {ns} {{", ""]
        for k in range(1 + i % 2):
            name = f"step{k}_{_word(rng)}"
            fn = _Function(f"{ns}::{name}", stem)
            b.functions[fn.qname] = fn
            body = _Body(rng, fn, f"z{i:03d}f{k}", indent=1)
            lines.append(f"int {name}(int n) {{")
            body.put(0, "int acc = n;")
            zoom = body.action(0, 0)
            body.call(0, f"trace_{_word(rng)}", zoom, None)
            b.no_link()
            body.nested(0, 12, zooms, per_block=2, parallel_every=3)
            body.put(0, "return acc;")
            lines.extend(body.lines)
            lines += ["}", ""]
        lines += [f"}}  // namespace {ns}", ""]
        b.files[f"src/{stem}.cpp"] = "\n".join(lines)
    return b.finish()


def _render(rng: random.Random) -> Corpus:
    """A modest corpus of a few hundred diagrams for the render phase."""
    return _many_files(rng, n_stems=30, zmax_cycle=(2,), headers=False)


_GENERATORS = {
    "monolith": _monolith,
    "many-files": _many_files,
    "zoom-fanout": _zoom_fanout,
    "render": _render,
}


def generate(workload: str, seed: int) -> Corpus:
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
