"""The documentation agrees with the code.

The "Diagnostic codes" table of ``docs/annotation-language.md`` lists each
code flowdoc can emit, with its severity. The codes the code can emit are
read from ``src/flowdoc``: the first argument of every ``warning(...)`` and
``error(...)`` call, and each warning of the scanner's grammar table.
"""

import ast
import re
from pathlib import Path

from flowdoc import scanner

ROOT = Path(__file__).resolve().parents[1]


def documented_codes() -> set[tuple[str, str]]:
    """(code, severity) for each code in the table."""
    text = (ROOT / "docs" / "annotation-language.md").read_text(encoding="utf-8")
    section = text.split("\n## Diagnostic codes\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in row.split("|")]
            for row in re.findall(r"^\|(.*)\|$", section, re.M)[2:]]  # past the header
    return {(code, severity) for codes, severity, *_ in rows
            for code in re.findall(r"`([^`]+)`", codes)}


def emitted_codes() -> set[tuple[str, str]]:
    """(code, severity) for each diagnostic src/flowdoc can emit."""
    codes = {(warn[0], "warning") for _, _, warn in scanner._GRAMMAR if warn}
    for path in sorted((ROOT / "src" / "flowdoc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("warning", "error")):
                continue
            code = node.args[0]
            if isinstance(code, ast.Constant):
                codes.add((code.value, node.func.id))
            else:  # only the scanner names its code indirectly, from _GRAMMAR
                assert path.name == "scanner.py", f"{path.name}:{node.lineno}"
    return codes


def test_the_table_lists_each_emitted_code_with_its_severity():
    documented = documented_codes()
    assert len(documented) > 10  # the table was found and read
    assert documented == emitted_codes()
