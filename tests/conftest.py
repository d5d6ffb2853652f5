from pathlib import Path

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, with no time limit per
# example and no example database.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN


def read_golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def in_place_and_apart(src: str, lexemes: list, markers: list) -> bool:
    """Each lexeme and ``//$`` marker of a scan is the source text at its
    offset, each list is in source order, and no two of them overlap."""
    for run in (lexemes, markers, sorted(lexemes + markers, key=lambda p: p.offset)):
        if any(a.offset + len(a.text) > b.offset for a, b in zip(run, run[1:])):
            return False
    return all(src.startswith(p.text, p.offset) for p in lexemes + markers)


def case_clashes(names) -> list[list[str]]:
    """The groups of output names (paths relative to the output directory)
    that differ only in case: on a case-insensitive filesystem, such as the
    default on macOS and Windows, each later write would replace the first."""
    groups: dict[str, list[str]] = {}
    for name in names:
        groups.setdefault(str(name).casefold(), []).append(str(name))
    return [group for group in groups.values() if len(group) > 1]
