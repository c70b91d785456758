"""Checker 4: the telemetry catalog (rule ``telemetry-catalog``).

Instrument names are API: exporters, dashboards and the tests select
on them.  Every literal name passed to ``telemetry.span`` /
``incr`` / ``observe`` / ``set_gauge`` must

* follow the dotted-lowercase scheme (two or more ``[a-z0-9_]``
  segments; an optional ``span:`` prefix mirrors the automatic per-span
  histograms), and
* appear in :mod:`repro.telemetry.catalog` -- either verbatim or via a
  ``family.*`` entry.

Dynamic names (f-strings) are checked by their literal prefix, which
must be covered by a ``family.*`` catalog entry.  The catalog is read
*statically* from the linted tree (the ``CATALOG`` dict literal), so the
checker never imports the code under analysis and fixture trees can
carry their own catalog.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Set, Tuple

from .diagnostics import Diagnostic
from .engine import Project, SourceFile

__all__ = ["RULE", "NAME_PATTERN", "check"]

RULE = "telemetry-catalog"

#: Mirrors repro.telemetry.catalog.NAME_PATTERN (kept in sync by the
#: test suite; devtools must not import the linted tree).
NAME_PATTERN = re.compile(r"^(?:span:)?[a-z0-9_]+(?:\.[a-z0-9_]+)+$")

HELPERS = frozenset({"span", "incr", "observe", "set_gauge"})


def _load_catalog(
    project: Project,
) -> Tuple[Optional[SourceFile], Set[str]]:
    module = f"{project.config.package}.telemetry.catalog"
    source = project.by_module.get(module)
    if source is None:
        return None, set()
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Assign):
            targets = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            targets = [node.target.id]
            value = node.value
        else:
            continue
        if "CATALOG" in targets and isinstance(value, ast.Dict):
            return source, {
                key.value
                for key in value.keys
                if isinstance(key, ast.Constant)
                and isinstance(key.value, str)
            }
    return source, set()


def _is_telemetry_call(node: ast.Call) -> bool:
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr in HELPERS):
        return False
    value = func.value
    if isinstance(value, ast.Name):
        return value.id == "telemetry"
    if isinstance(value, ast.Attribute):
        return value.attr == "telemetry"
    return False


def _catalogued(name: str, catalog: Set[str]) -> bool:
    if name in catalog:
        return True
    return any(
        key.endswith(".*")
        and name.startswith(key[:-1])
        and len(name) > len(key[:-1])
        for key in catalog
    )


def _family_prefixes(catalog: Set[str]) -> List[str]:
    return [key[:-1] for key in catalog if key.endswith(".*")]


def check(project: Project) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    catalog_source, catalog = _load_catalog(project)
    if catalog_source is None:
        package = project.config.package
        # No catalog module at all: one project-level finding, anchored
        # at the telemetry package when present.
        anchor = project.by_module.get(f"{package}.telemetry")
        if anchor is not None:
            diagnostics.append(
                project.diagnostic(
                    RULE, anchor, 1,
                    f"missing {package}.telemetry.catalog module with the "
                    "central CATALOG of instrument names",
                )
            )
        return diagnostics

    for key in sorted(catalog):
        # A family key is valid when the names it covers are: check the
        # prefix with a placeholder final segment ("service.*" -> ok).
        probe = key[:-1] + "x" if key.endswith(".*") else key
        if NAME_PATTERN.match(probe) is None:
            diagnostics.append(
                project.diagnostic(
                    RULE, catalog_source, 1,
                    f"catalog entry {key!r} breaks the dotted-lowercase "
                    "naming scheme",
                )
            )

    prefixes = _family_prefixes(catalog)
    exempt = project.config.telemetry_exempt
    for source in project.files:
        if source.module.startswith(exempt):
            continue
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Call) and _is_telemetry_call(node)):
                continue
            if not node.args:
                continue
            name_node = node.args[0]
            if isinstance(name_node, ast.Constant) and isinstance(
                name_node.value, str
            ):
                name = name_node.value
                if NAME_PATTERN.match(name) is None:
                    diagnostics.append(
                        project.diagnostic(
                            RULE, source, node,
                            f"telemetry name {name!r} breaks the "
                            "dotted-lowercase scheme "
                            "(see repro.telemetry.catalog)",
                        )
                    )
                elif not _catalogued(name, catalog):
                    diagnostics.append(
                        project.diagnostic(
                            RULE, source, node,
                            f"telemetry name {name!r} is not declared in "
                            "repro.telemetry.catalog; add it (or a "
                            "family.* entry) there",
                        )
                    )
            elif isinstance(name_node, ast.JoinedStr):
                head = ""
                values = name_node.values
                if values and isinstance(values[0], ast.Constant):
                    head = str(values[0].value)
                if not head or not any(
                    head.startswith(prefix) for prefix in prefixes
                ):
                    diagnostics.append(
                        project.diagnostic(
                            RULE, source, node,
                            "dynamic telemetry name must start with a "
                            "literal prefix covered by a 'family.*' "
                            "entry in repro.telemetry.catalog "
                            f"(got prefix {head!r})",
                        )
                    )
            # anything else (a variable) is out of static reach: skip
    return diagnostics
