"""The lint engine: parse the tree once, run every checker over it.

The engine builds a :class:`Project` -- one parsed :class:`SourceFile`
per ``.py`` file under the configured source root, with its module name,
AST, and comment map -- and hands it to each checker.  Checkers are pure
functions ``check(project) -> list[Diagnostic]``; they never import the
code they analyse.

Inline waivers
--------------
A diagnostic is suppressed when the flagged line (or the line directly
above it) carries a comment of the form::

    # lint: allow[<rule>] <reason>

The reason is mandatory: a tag without one does not suppress anything.
Several rules may share a tag (``allow[hygiene-float-eq,rng-discipline]``).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from .config import LintConfig
from .diagnostics import Diagnostic, LintReport

__all__ = [
    "Project",
    "SourceFile",
    "build_project",
    "import_targets",
    "run_lint",
]

ALLOW_RE = re.compile(
    r"lint:\s*allow\[([A-Za-z0-9_,-]+)\]\s*(?P<reason>\S.*)?"
)


@dataclass
class SourceFile:
    """One parsed file of the linted tree."""

    path: Path
    rel_path: str           # posix, relative to the repo root
    module: str             # dotted module name ("repro.flowsim.run")
    package: Optional[str]  # top-level subpackage ("flowsim"), if any
    is_package: bool        # True for __init__.py
    text: str
    tree: ast.Module
    comments: Dict[int, str] = field(default_factory=dict)

    def allows(self, rule: str, line: int) -> bool:
        """Is ``rule`` waived at ``line`` (same line or the one above)?"""
        for candidate in (line, line - 1):
            match = ALLOW_RE.search(self.comments.get(candidate, ""))
            if match and match.group("reason"):
                rules = [r.strip() for r in match.group(1).split(",")]
                if rule in rules:
                    return True
        return False


@dataclass
class Project:
    """The parsed tree plus configuration, shared by all checkers."""

    config: LintConfig
    files: List[SourceFile] = field(default_factory=list)
    by_module: Dict[str, SourceFile] = field(default_factory=dict)

    def diagnostic(
        self,
        rule: str,
        source: SourceFile,
        node_or_line,
        message: str,
    ) -> Diagnostic:
        if isinstance(node_or_line, int):
            line, column = node_or_line, 1
        else:
            line = getattr(node_or_line, "lineno", 1)
            column = getattr(node_or_line, "col_offset", 0) + 1
        return Diagnostic(
            rule=rule,
            path=source.rel_path,
            line=line,
            column=column,
            message=message,
        )


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def _collect_comments(text: str) -> Dict[int, str]:
    comments: Dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # the ast parse surfaces the real error with a position
    return comments


def _module_name(path: Path, source_root: Path) -> Tuple[str, bool]:
    relative = path.relative_to(source_root)
    parts = list(relative.with_suffix("").parts)
    is_package = parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    return ".".join(parts), is_package


def build_project(config: LintConfig) -> Tuple[Project, List[Diagnostic]]:
    """Parse every file under the package root; collect parse errors."""
    project = Project(config=config)
    errors: List[Diagnostic] = []
    for path in sorted(config.package_root.rglob("*.py")):
        rel_path = path.relative_to(config.root).as_posix()
        try:
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text, filename=str(path))
        except (OSError, SyntaxError, ValueError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            errors.append(
                Diagnostic(
                    rule="parse-error",
                    path=rel_path,
                    line=line,
                    column=1,
                    message=f"cannot parse: {exc}",
                )
            )
            continue
        module, is_package = _module_name(path, config.source_root)
        parts = module.split(".")
        package = parts[1] if len(parts) > 1 else None
        source = SourceFile(
            path=path,
            rel_path=rel_path,
            module=module,
            package=package,
            is_package=is_package,
            text=text,
            tree=tree,
            comments=_collect_comments(text),
        )
        project.files.append(source)
        project.by_module[module] = source
    return project, errors


# ----------------------------------------------------------------------
# Import resolution (used by the layer checker)
# ----------------------------------------------------------------------
def import_targets(
    source: SourceFile, node: ast.AST
) -> Iterator[Tuple[str, Optional[str]]]:
    """Yield ``(module, symbol)`` targets of one import statement.

    ``symbol`` is the imported name for ``from m import name`` forms and
    ``None`` for plain ``import m``.  Relative imports are resolved
    against the file's own module path.
    """
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name, None
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            base = (node.module or "").split(".") if node.module else []
        else:
            parts = source.module.split(".")
            anchor = parts if source.is_package else parts[:-1]
            cut = node.level - 1
            base = anchor[: len(anchor) - cut] if cut else list(anchor)
            if node.module:
                base = base + node.module.split(".")
        if not base:
            return
        for alias in node.names:
            yield ".".join(base), alias.name


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def _checkers():
    # Imported here so the checker modules can use engine helpers
    # without a cycle at import time.
    from . import check_hygiene, check_layers, check_rng, check_telemetry

    return (
        check_rng.check,
        check_layers.check,
        check_telemetry.check,
        check_hygiene.check,
    )


def run_lint(config: LintConfig) -> LintReport:
    """Lint the configured tree and return the report."""
    project, diagnostics = build_project(config)
    for check in _checkers():
        diagnostics.extend(check(project))

    by_path = {source.rel_path: source for source in project.files}
    visible = [
        diagnostic
        for diagnostic in diagnostics
        if not (
            diagnostic.path in by_path
            and by_path[diagnostic.path].allows(
                diagnostic.rule, diagnostic.line
            )
        )
    ]

    visible.sort(key=lambda d: (d.path, d.line, d.column, d.rule))
    return LintReport(
        root=str(config.root),
        files_scanned=len(project.files),
        diagnostics=visible,
    )
