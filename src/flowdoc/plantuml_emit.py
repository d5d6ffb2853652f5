"""Deterministic PlantUML activity-diagram text from activity trees.

Output uses the current activity syntax (if/then/elseif/else/endif, while,
repeat, fork) with no indentation, one construct keyword per line, LF line
endings and a trailing newline, so diagram files are byte-stable across
runs and platforms.
"""

from __future__ import annotations

import re

from .activity_ir import (ActionNode, ActivityTree, BranchNode, ForkNode,
                          LoopNode, LoopStyle, StopNode, project)

# a label line ending in one of these could glue onto the following syntax
_RISKY_ENDINGS = set(";|<>/]}")


def _escape_line(text: str) -> str:
    # every whitespace char except a plain space could break the
    # one-construct-per-line discipline (\r, \v, \f, NEL, U+2028...)
    out = re.sub(r"[^\S ]", " ", text)
    out = out.replace("[[", "[ [")
    return out.rstrip()


def _escape_label(text: str) -> str:
    out = re.sub(r"\s+", " ", text).strip()
    out = out.replace("[[", "[ [")
    return out or "..."


def _action_lines(node: ActionNode) -> list[str]:
    lines: list[str] = []
    if node.text:
        lines.append(_escape_line(node.text))
    for call in node.calls:
        display = call.display.replace("]]", "] ]")
        if call.href:
            # diagrams live in aux_files/, one level below the pages
            lines.append(f"[[../{call.href} {display}]]")
        else:
            lines.append(_escape_line(display))
    if not lines:
        lines = [" "]
    for k in range(len(lines) - 1):
        if lines[k] and lines[k][-1] in _RISKY_ENDINGS:
            lines[k] += " "
    lines[0] = ":" + lines[0]
    lines[-1] += ";"
    return lines


def emit(tree: ActivityTree) -> str:
    """Render one (already projected) activity tree to PlantUML text."""
    out: list[str] = ["@startuml", "start"]
    _emit_seq(tree.root, out)
    out.append("@enduml")
    return "\n".join(out) + "\n"


def _emit_seq(nodes, out: list[str]) -> None:
    for node in nodes:
        if isinstance(node, ActionNode):
            out.extend(_action_lines(node))
        elif isinstance(node, BranchNode):
            first = node.arms[0]
            out.append(f"if ({_escape_label(first.label or '')}) then (yes)")
            _emit_seq(first.body, out)
            for arm in node.arms[1:]:
                if arm.is_else:
                    if arm.label:
                        out.append(f"else ({_escape_label(arm.label)})")
                    else:
                        out.append("else (no)")
                else:
                    out.append(f"elseif ({_escape_label(arm.label or '')}) then (yes)")
                _emit_seq(arm.body, out)
            out.append("endif")
        elif isinstance(node, LoopNode):
            if node.style is LoopStyle.PRE_TEST:
                out.append(f"while ({_escape_label(node.label)})")
                _emit_seq(node.body, out)
                out.append("endwhile")
            else:
                out.append("repeat")
                _emit_seq(node.body, out)
                out.append(f"repeat while ({_escape_label(node.label)})")
        elif isinstance(node, ForkNode):
            for k, action in enumerate(node.actions):
                out.append("fork again" if k else "fork")
                out.extend(_action_lines(action))
            out.append("end fork")
        elif isinstance(node, StopNode):
            if node.text:
                out.append(":" + _escape_line(node.text) + ";")
            out.append("stop")


def diagram_filename(source_stem: str, anchor: str, zoom: int) -> str:
    """The name, under aux_files/, of one zoom level's diagram text."""
    return f"{source_stem}__{anchor}__zoom{zoom}.txt"


def render_function(tree: ActivityTree) -> list[str]:
    """The PlantUML text of every zoom level of one function, level 0 first."""
    return [emit(project(tree, level)) for level in range(tree.max_zoom + 1)]
