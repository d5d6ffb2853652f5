"""Every import in ``src/flowdoc`` is used.

No linter is part of the toolchain, so this reads each module with ``ast``:
a name an import binds must be read somewhere in that module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "flowdoc"


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
