"""The record types: immutable values stay immutable and compare by value,
and importing flowdoc does not pull in ``dataclasses``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowdoc.cxx_structure import CallSite
from flowdoc.diagnostics import warning
from flowdoc.flowdb import FlowDbEntry
from flowdoc.scanner import Lexeme, LexKind

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("record,field", [
    (Lexeme("x", 0, LexKind.WORD), "text"),
    (warning("no-link", "m", "f.cpp", 3), "line"),
    (FlowDbEntry("f", "p.html", "f", 0), "max_zoom"),
], ids=["Lexeme", "Diagnostic", "FlowDbEntry"])
def test_value_records_are_read_only(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 1)


@pytest.mark.parametrize("make", [
    lambda: FlowDbEntry("ns::f", "p.html", "ns__f", 2),
    lambda: CallSite("obj->f", "f", 7, 40),
], ids=["FlowDbEntry", "CallSite"])
def test_equal_value_records_compare_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_import_does_not_load_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import flowdoc.cli, sys; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
