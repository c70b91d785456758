"""Lint configuration: the ``[tool.reprolint]`` table of pyproject.toml.

The configuration is data the checkers share:

* ``source-root`` / ``package`` -- where the linted tree lives
  (``src/repro`` by default);
* ``layers`` -- package -> rank map defining the import DAG;
* ``deferred-imports-allow`` -- ``"repro.mod.sub -> repro.pkg"`` edges
  where a *function-scope* upward import is a deliberate, documented
  registry-resolution path.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Optional, Tuple

__all__ = ["LintConfig", "LintConfigError", "find_root", "load_config"]

PYPROJECT = "pyproject.toml"
TOOL_TABLE = "reprolint"


class LintConfigError(Exception):
    """Raised when pyproject.toml is missing or its table is malformed."""


@dataclass(frozen=True)
class LintConfig:
    """Resolved configuration for one lint run."""

    root: Path
    source_root: Path
    package: str
    layer_ranks: Dict[str, int] = field(default_factory=dict)
    deferred_allow: FrozenSet[str] = frozenset()
    #: Modules whose telemetry-name literals are exempt (the telemetry
    #: package builds names generically; devtools quotes them in checks).
    telemetry_exempt: Tuple[str, ...] = ()

    @property
    def package_root(self) -> Path:
        return self.source_root / self.package


def find_root(start: Optional[Path] = None) -> Optional[Path]:
    """Walk upward from ``start`` (default: cwd) to the pyproject root."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        if (candidate / PYPROJECT).is_file():
            return candidate
    return None


def load_config(root: Path) -> LintConfig:
    """Load ``[tool.reprolint]`` from ``root/pyproject.toml``."""
    root = Path(root).resolve()
    pyproject = root / PYPROJECT
    if not pyproject.is_file():
        raise LintConfigError(f"no {PYPROJECT} at {root}")
    try:
        with open(pyproject, "rb") as handle:
            data = tomllib.load(handle)
    except tomllib.TOMLDecodeError as exc:
        raise LintConfigError(f"{pyproject}: {exc}") from exc

    table = data.get("tool", {}).get(TOOL_TABLE, {})
    if not isinstance(table, dict):
        raise LintConfigError(f"[tool.{TOOL_TABLE}] must be a table")

    package = table.get("package", "repro")
    source_root = root / table.get("source-root", "src")
    if not (source_root / package).is_dir():
        raise LintConfigError(
            f"linted package {source_root / package} does not exist"
        )

    ranks = table.get("layers", {})
    if not isinstance(ranks, dict) or not all(
        isinstance(rank, int) for rank in ranks.values()
    ):
        raise LintConfigError(
            f"[tool.{TOOL_TABLE}.layers] must map package names to "
            "integer ranks"
        )

    allow = table.get("deferred-imports-allow", [])
    if not isinstance(allow, list) or not all(
        isinstance(edge, str) and "->" in edge for edge in allow
    ):
        raise LintConfigError(
            "deferred-imports-allow must be a list of "
            "'pkg.module -> pkg.subpackage' strings"
        )
    edges = frozenset(
        " -> ".join(part.strip() for part in edge.split("->", 1))
        for edge in allow
    )

    return LintConfig(
        root=root,
        source_root=source_root,
        package=package,
        layer_ranks={str(name): int(rank) for name, rank in ranks.items()},
        deferred_allow=edges,
        telemetry_exempt=(
            f"{package}.telemetry",
            f"{package}.devtools",
        ),
    )
