"""The violation record every rule emits and reporters consume."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Violation:
    """One rule violation at a source location.

    Ordering is (path, line, col, rule) so reports group naturally by
    file and read top to bottom.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    #: Last physical line of the offending statement (pragma-suppression
    #: range; not part of the report).
    end_line: int = 0

    def format(self) -> str:
        """The canonical one-line rendering (clickable path:line:col)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
