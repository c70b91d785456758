"""Checker 2: the layer contract (rule ``layer-contract``).

The package import DAG is declared as a rank map in
``[tool.reprolint.layers]``::

    core/lossprocess/palm (10)
      -> simulator/montecarlo/flowsim/measurement (20)
      -> analysis (30)
      -> api/experiments (40)
      -> service/cli/devtools (50)

with ``telemetry`` at rank 0 (importable from everywhere).  An import is
*upward* -- and flagged -- when the importing package's rank is strictly
below the imported package's.  Equal ranks may import each other.

Two escape hatches, both explicit:

* a *deferred* (function-scope) upward import is allowed only when the
  ``"<module> -> <package>"`` edge is listed under
  ``deferred-imports-allow`` in pyproject.toml -- the documented
  registry-resolution paths;
* a package missing from the rank map is itself a violation, so new
  subpackages must declare their layer.
"""

from __future__ import annotations

import ast
from typing import List, Set

from .diagnostics import Diagnostic
from .engine import Project, SourceFile, import_targets

__all__ = ["RULE", "check"]

RULE = "layer-contract"


def _deferred_nodes(tree: ast.Module) -> Set[int]:
    """ids of import nodes that live inside a function body."""
    deferred: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    deferred.add(id(inner))
    return deferred


def _check_file(project: Project, source: SourceFile) -> List[Diagnostic]:
    config = project.config
    diagnostics: List[Diagnostic] = []
    if source.package is None:  # the package __init__ itself
        return diagnostics
    source_rank = config.layer_ranks.get(source.package)
    if source_rank is None:
        diagnostics.append(
            project.diagnostic(
                RULE, source, 1,
                f"package '{source.package}' has no rank in "
                "[tool.reprolint.layers]; declare its layer",
            )
        )
        return diagnostics

    deferred = _deferred_nodes(source.tree)
    prefix = config.package + "."
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for module, symbol in import_targets(source, node):
            candidates = [module]
            # `from repro import x` / `from . import x`: the symbol may
            # itself be the subpackage being imported.
            if module == config.package and symbol:
                candidates = [f"{module}.{symbol}"]
            for target in candidates:
                if not target.startswith(prefix):
                    continue
                target_package = target[len(prefix):].split(".")[0]
                if target_package == source.package:
                    continue
                target_rank = config.layer_ranks.get(target_package)
                if target_rank is None:
                    diagnostics.append(
                        project.diagnostic(
                            RULE, source, node,
                            f"imported package '{target_package}' has no "
                            "rank in [tool.reprolint.layers]",
                        )
                    )
                    continue
                if target_rank <= source_rank:
                    continue
                edge = (
                    f"{source.module} -> {config.package}.{target_package}"
                )
                if id(node) in deferred:
                    if edge in config.deferred_allow:
                        continue
                    diagnostics.append(
                        project.diagnostic(
                            RULE, source, node,
                            f"deferred upward import of "
                            f"'{config.package}.{target_package}' "
                            f"(rank {target_rank}) from "
                            f"'{source.package}' (rank {source_rank}); "
                            f"add \"{edge}\" to deferred-imports-allow "
                            "if this is a deliberate registry-resolution "
                            "path",
                        )
                    )
                else:
                    diagnostics.append(
                        project.diagnostic(
                            RULE, source, node,
                            f"upward import: '{source.package}' "
                            f"(rank {source_rank}) must not import "
                            f"'{config.package}.{target_package}' "
                            f"(rank {target_rank}) at module level",
                        )
                    )
    return diagnostics


def check(project: Project) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for source in project.files:
        diagnostics.extend(_check_file(project, source))
    return diagnostics
