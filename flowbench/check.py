"""Output checks against the corpus oracle.

Each check is one expected ``.flowdb`` line, diagram file, page anchor,
index entry, diagnostic count, rendered SVG or determinism comparison.
``fail_ratio`` is failed checks over attempted checks.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from pathlib import Path

_DIAG_CODE_RE = re.compile(r"\[([a-z][a-z-]*)\]$")
_ID_RE = re.compile(r'id="([^"]+)"')
_HREF_RE = re.compile(r'href="([^"]+)"')


class Checks:
    """Counts attempted checks and keeps the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 10:
                self.examples.append(what)

    def fail_all(self, n: int, what: str) -> None:
        """A run that raised or exited non-zero fails every check it owns."""
        for _ in range(max(n, 1)):
            self.expect(False, what)


def checks_per_tree(oracle: dict, render: bool) -> int:
    """How many checks check_tree makes, for failing a broken run in full."""
    n = sum(len(v) + 1 for v in oracle["flowdb"].values())
    n += len(oracle["diagrams"]) + 1
    n += sum(len(v) for v in oracle["anchors"].values())
    n += len(oracle["index"])
    if render:
        n += len(oracle["diagrams"])
    return n


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return None


def check_tree(out: Path, oracle: dict, checks: Checks,
               render: bool = False) -> None:
    """Compare one output tree with the oracle."""
    for stem, expected in oracle["flowdb"].items():
        text = _read(out / f"{stem}.flowdb")
        lines = text.split("\n")[:-1] if text else []
        got = set(lines)
        for line in expected:
            checks.expect(line in got, f"{stem}.flowdb lacks {line!r}")
        checks.expect(sorted(lines) == expected,
                      f"{stem}.flowdb has unexpected lines")

    aux = out / "aux_files"
    for name, spec in oracle["diagrams"].items():
        text = _read(aux / name)
        checks.expect(text is not None and _diagram_ok(text, spec),
                      f"aux_files/{name} missing or wrong")
    present = {p.name for p in aux.glob("*.txt")} if aux.is_dir() else set()
    checks.expect(present == set(oracle["diagrams"]),
                  "aux_files/ holds unexpected diagrams")

    for page, ids in oracle["anchors"].items():
        text = _read(out / page)
        got = set(_ID_RE.findall(text)) if text else set()
        for anchor in ids:
            checks.expect(anchor in got, f"{page} lacks id {anchor}")

    index = _read(out / "index.html")
    hrefs = set(_HREF_RE.findall(index)) if index else set()
    for href in oracle["index"]:
        checks.expect(href in hrefs, f"index.html lacks {href}")

    if render:
        for name in oracle["diagrams"]:
            svg = aux / (name[:-len(".txt")] + ".svg")
            checks.expect(svg.is_file(), f"aux_files/{svg.name} not rendered")


def _diagram_ok(text: str, spec: dict) -> bool:
    lines = set(text.split("\n"))
    for item in spec["must"]:
        if item.startswith(":"):
            if item not in lines and item + ";" not in lines:
                return False
        elif item not in text:
            return False
    # every must_not item carries a unique id, so a substring test is exact
    return not any(item[1:] in text if item.startswith(":") else item in text
                   for item in spec["must_not"])


def check_diagnostics(stderr: str, oracle: dict, checks: Checks) -> None:
    """Distinct diagnostic codes and their counts, as the CLI prints them."""
    got = Counter(m.group(1) for line in stderr.splitlines()
                  if (m := _DIAG_CODE_RE.search(line)))
    for code, count in oracle["diagnostics"].items():
        checks.expect(got.get(code, 0) == count,
                      f"{code}: {got.get(code, 0)} diagnostics, "
                      f"expected {count}")
    extra = sorted(set(got) - set(oracle["diagnostics"]))
    checks.expect(not extra, f"unexpected diagnostic codes {extra}")


def checks_per_diagnostics(oracle: dict) -> int:
    return len(oracle["diagnostics"]) + 1


def tree_digest(out: Path) -> str:
    """SHA-256 over every relative path and file content of a tree."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()
