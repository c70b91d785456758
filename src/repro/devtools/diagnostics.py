"""Diagnostic records and the machine-readable lint report."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["Diagnostic", "LintReport", "REPORT_SCHEMA_VERSION"]

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule violated at a position in the tree.

    ``path`` is relative to the repository root, with forward slashes,
    so reports are stable across machines.
    """

    rule: str
    path: str
    line: int
    column: int
    message: str
    severity: str = "error"

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"[{self.rule}] {self.message}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "severity": self.severity,
        }


@dataclass
class LintReport:
    """The outcome of one lint run, JSON-serialisable."""

    root: str
    files_scanned: int = 0
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.diagnostics else 0

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for diagnostic in self.diagnostics:
            counts[diagnostic.rule] = counts.get(diagnostic.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": REPORT_SCHEMA_VERSION,
            "root": self.root,
            "files_scanned": self.files_scanned,
            "num_diagnostics": len(self.diagnostics),
            "summary": self.summary(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)
