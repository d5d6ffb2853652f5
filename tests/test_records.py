"""The record types: immutable values stay immutable and compare by value,
and importing flowdoc pulls in none of ``dataclasses``, ``typing`` and ``pathlib``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowdoc.activity_ir import (ActionNode, BranchArm, BranchNode, ForkNode, LoopNode,
                                 StopNode, build_activity)
from flowdoc.annotations import Annotation, collect
from flowdoc.cxx_structure import CallSite, CodeStream, Stmt, StmtKind, find_definitions
from flowdoc.diagnostics import warning
from flowdoc.flowdb import AnnotatedFunction, FlowDb, FlowDbEntry, annotated_functions
from flowdoc.scanner import Lexeme, LexKind

SRC = Path(__file__).resolve().parents[1] / "src"


def analyzed():
    """The annotated function of a source that holds every kind of record:
    an action, a highlighted call, two descriptions and nested statements."""
    src = ("int f(int n) {\n//$1 step\nwhile (n) {\ng();  //$\n"
           "//$ [positive]\nif (n > 0) { n--; } else { n++; }\n}\n"
           "//$ [done]\nreturn n;\n}\n")
    view = CodeStream(src, "t.cpp", [])
    defs = find_definitions(view)
    [af] = annotated_functions(view, defs, collect(view, defs), {})
    return af


@pytest.mark.parametrize("record,field", [
    (Lexeme("x", 0, LexKind.WORD), "text"),
    (warning("no-link", "m", "f.cpp", 3), "line"),
    (FlowDbEntry("f", "p.html", "f", 0), "max_zoom"),
    (Annotation("step", 2, 14), "target"),
    (Stmt(StmtKind.PLAIN, (0, 1)), "span"),
    (analyzed(), "body"),
    (analyzed().body.children[0].children[0], "condition_text"),
    (ActionNode("step", calls=[]), "calls"),
    (BranchArm("yes", []), "body"),
    (BranchNode([]), "arms"),
    (LoopNode(False, "n", []), "label"),
    (ForkNode([]), "actions"),
    (StopNode(), "text"),
], ids=["Lexeme", "Diagnostic", "FlowDbEntry", "Annotation", "Stmt",
        "AnnotatedFunction", "Stmt arm", "ActionNode", "BranchArm", "BranchNode",
        "LoopNode", "ForkNode", "StopNode"])
def test_value_records_are_read_only(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 1)


@pytest.mark.parametrize("make", [
    lambda: FlowDbEntry("ns::f", "p.html", "ns__f", 2),
    lambda: CallSite("obj->f", "f", 7, 40),
    lambda: Annotation("positive", 5, 60, target=75, keyword="if"),
    lambda: Stmt(StmtKind.BLOCK, (3, 9), "x", (Stmt(StmtKind.RETURN, (4, 8), keywords=(4,)),),
                 (0,)),
    analyzed,
], ids=["FlowDbEntry", "CallSite", "Annotation", "Stmt", "AnnotatedFunction"])
def test_equal_value_records_compare_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_activity_trees_of_one_function_compare_equal():
    a, b = (build_activity(analyzed(), FlowDb({}), []) for _ in range(2))
    assert a is not b and a == b


def test_import_loads_no_dataclasses_typing_or_argparse():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import flowdoc.cli, sys; print([m for m in ('dataclasses', 'typing', 'argparse',"
         " 'pathlib') if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
