"""Deterministic PlantUML activity-diagram text from activity trees.

Output uses the current activity syntax (if/then/elseif/else/endif, while,
repeat, fork) with no indentation, one construct keyword per line, LF line
endings and a trailing newline, so diagram files are byte-stable across
runs and platforms.

All zoom levels of a function come from one walk of its tree, which pairs
each line with its node's lowest level (see ``activity_ir``): level k's text
is the lines at levels up to k, so each node's lines are built once.
"""

from __future__ import annotations

import math
import re

from .activity_ir import (ActionNode, ActivityNode, BranchNode, ForkNode,
                          StopNode, collapse_ws, project)

# a label line ending in one of these could glue onto the following syntax
_RISKY_ENDINGS = set(";|<>/]}")
# whitespace but a plain space (\r, \v, \f, NEL, U+2028...) could split a line
_ODD_SPACE = re.compile(r"[^\S ]")


def _escape_line(text: str) -> str:
    return _ODD_SPACE.sub(" ", text).replace("[[", "[ [").rstrip()


def _escape_label(text: str) -> str:
    return collapse_ws(text).replace("[[", "[ [") or "..."


def _action_lines(node: ActionNode) -> list[str]:
    lines: list[str] = []
    if node.text:
        lines.append(_escape_line(node.text))
    for display, href in node.calls:
        display = display.replace("]]", "] ]")
        if href:
            # a diagram lives one directory below the pages
            lines.append(f"[[../{href} {display}]]")
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


def _arm_head(k: int, arm) -> str:
    if k and arm.is_else:
        return f"else ({_escape_label(arm.label)})" if arm.label else "else (no)"
    return f"{'elseif' if k else 'if'} ({_escape_label(arm.label or '')}) then (yes)"


def _parts(node) -> tuple[list, str]:
    """A construct's (head line, body) pairs and its closing line."""
    if isinstance(node, ForkNode):
        return ([("fork again" if k else "fork", [action])
                 for k, action in enumerate(node.actions)], "end fork")
    if isinstance(node, BranchNode):
        return ([(_arm_head(k, arm), arm.body)
                 for k, arm in enumerate(node.arms)], "endif")
    if node.post_test:
        return [("repeat", node.body)], f"repeat while ({_escape_label(node.label)})"
    return [(f"while ({_escape_label(node.label)})", node.body)], "endwhile"


def _walk(nodes, out: list) -> float:
    """Append the (lowest level, line) pairs of nodes to out, in output
    order, and return the lowest level among them (inf for none)."""
    low = math.inf
    for node in nodes:
        if isinstance(node, ActionNode):
            level = node.zoom
            out += [(level, line) for line in _action_lines(node)]
        elif isinstance(node, StopNode):
            level = 0
            text = [":" + _escape_line(node.text) + ";"] if node.text else []
            out += [(0, line) for line in text + ["stop"]]
        else:
            # the head lines take the lowest level of the bodies walked after them
            parts, tail = _parts(node)
            level, slots = math.inf, []
            for head, body in parts:
                slots.append(len(out))
                out.append(head)
                level = min(level, _walk(body, out))
            for slot in slots:
                out[slot] = (level, out[slot])
            out.append((level, tail))
        low = min(low, level)
    return low


def _texts(nodes, levels) -> list[str]:
    """For each level in levels, the text of the walk's lines up to it."""
    out: list[tuple[float, str]] = []
    _walk(nodes, out)
    return ["\n".join(["@startuml", "start",
                       *[line for low, line in out if low <= level],
                       "@enduml"]) + "\n"
            for level in levels]


def render_function(root: list[ActivityNode], max_zoom: int) -> list[str]:
    """The PlantUML text of zoom levels 0 to max_zoom of one function's tree."""
    # projecting changes no text, as no level shows a shell the walk gave the
    # level inf; but project() is each level's reference and flowbench times it
    return _texts(project(root, max_zoom), range(max_zoom + 1))
