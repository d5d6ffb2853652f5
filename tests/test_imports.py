"""Every import and every top-level name in ``src/flowdoc`` is used.

No linter is part of the toolchain, so this reads each module with ``ast``:
a name an import binds must be read somewhere in that module, and a name a
module defines must be read somewhere in the package. Code only the tests
use, such as the link checker ``conftest.check_links``, lives in the tests.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "flowdoc"
# read from outside the package: the export list
OUTSIDE_USE = {"__all__"}


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # 'import a.b' binds 'a'
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport re\nfrom .x import A, B as C\n"
                     "re.compile(A)\n")
    assert unused_imports(tree) == [(2, "os"), (4, "C")]


def unread_names(trees: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """(module, name) of each top-level name no module reads."""
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, n.id) for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)]
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted((module, name) for module, name in defined
                  if name not in read and name not in OUTSIDE_USE)


def test_every_top_level_name_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert unread_names(trees) == []


def test_an_unread_name_is_found():
    trees = {"a.py": ast.parse("X = 1\nY: int = 2\ndef f():\n    return g()\n"
                               "__all__ = ['X']\n"),
             "b.py": ast.parse("from .a import X\ndef g():\n    return X\n"
                               "class C:\n    pass\n")}
    assert unread_names(trees) == [("a.py", "Y"), ("a.py", "f"), ("b.py", "C")]
