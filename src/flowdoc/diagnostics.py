"""Diagnostic records shared by every pipeline phase.

Phases never raise for recoverable problems in the input; they append a
Diagnostic to a caller-supplied list and keep going. The CLI decides what a
diagnostic means for the exit code (errors fail the run, warnings only under
--werror).
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum


class Severity(Enum):
    WARNING = "warning"
    ERROR = "error"


class Diagnostic(namedtuple("Diagnostic", "severity code message file line",
                            defaults=(None, None))):
    __slots__ = ()

    def format(self) -> str:
        """Render as ``file:line: severity: message [code]``."""
        prefix = ""
        if self.file:
            prefix = f"{self.file}:"
            if self.line is not None:
                prefix += f"{self.line}:"
            prefix += " "
        return f"{prefix}{self.severity.value}: {self.message} [{self.code}]"


def warning(code: str, message: str, file: str | None = None, line: int | None = None) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, message, file, line)


def error(code: str, message: str, file: str | None = None, line: int | None = None) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, file, line)
