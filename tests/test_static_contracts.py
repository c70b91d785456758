"""The static contracts of ``src/repro``, checked by reading its source.

The paper's claims are checked by comparing the analytic, Monte-Carlo
and packet paths at matched seeds.  Four rules keep those comparisons
honest.  Each is a function from one parsed file to its findings,
``(rule, line, message)`` tuples:

``rng-discipline``
    No stdlib ``random`` and no ``np.random`` global-state call: every
    draw flows through a seeded ``default_rng`` generator (``make_rng``).
``layer-contract``
    No package imports a package of higher rank in :data:`LAYERS`, except
    from a function body on an edge in :data:`DEFERRED_IMPORTS`.
``telemetry-catalog``
    Instrument name literals follow the dotted-lowercase scheme and are
    declared in :mod:`repro.telemetry.catalog`; an f-string name starts
    with the prefix of a ``family.*`` entry.
``hygiene-*``
    ``except Exception`` carries a ``- <why>`` comment on its line or the
    line above; no mutable default argument; no ``==`` / ``!=`` against
    a float literal.

A deliberate exception is waived on the flagged line or the line above
with ``# lint: allow[<rule>] <reason>``.  A waiver without a reason
suppresses nothing, and a waiver that suppresses nothing is itself a
finding (``stale-waiver``).  Run alone::

    PYTHONPATH=src python -m pytest -q tests/test_static_contracts.py
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

import pytest

from repro.telemetry.catalog import CATALOG, is_catalogued, validate_name

REPO_ROOT = Path(__file__).resolve().parents[1]
SOURCE_ROOT = REPO_ROOT / "src"

#: The package import DAG: a package may import packages of its own rank
#: or below (``telemetry`` is importable from everywhere).
LAYERS = {
    "telemetry": 0,
    "core": 10, "lossprocess": 10, "palm": 10,
    "simulator": 20, "montecarlo": 20, "flowsim": 20, "measurement": 20,
    "analysis": 30,
    "api": 40, "experiments": 40,
    "service": 50, "cli": 50,
}

#: Deliberate function-scope upward imports.  ``repro.api`` owns the
#: component registries; ``repro.flowsim.run`` resolves its formula
#: through them lazily, so the registries can import the component
#: classes at definition time without a cycle.
DEFERRED_IMPORTS = {"repro.flowsim.run -> repro.api"}

WAIVER = re.compile(r"lint:\s*allow\[([A-Za-z0-9_,-]+)\]\s*(?P<reason>\S.*)?")

Finding = Tuple[str, int, str]


class Source(NamedTuple):
    module: str  # dotted: "repro.flowsim.run"
    is_package: bool  # an __init__.py
    tree: ast.Module
    comments: Dict[int, str]  # line -> comment text


def parse(module: str, text: str) -> Source:
    """Parse one file; a package's ``module`` ends in ``.__init__``."""
    tree = ast.parse(text)
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    comments = {
        token.start[0]: token.string
        for token in tokens
        if token.type == tokenize.COMMENT
    }
    is_package = module.endswith(".__init__")
    return Source(module.removesuffix(".__init__"), is_package, tree, comments)


# ----------------------------------------------------------------------
# The rules
# ----------------------------------------------------------------------
#: numpy.random names that construct explicit, seedable generators.
SEEDABLE = frozenset({
    "default_rng", "Generator", "BitGenerator", "SeedSequence",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


def check_rng(source: Source) -> List[Finding]:
    stdlib = "stdlib 'random' draws from global state; use make_rng(seed)"
    legacy = "numpy.random.{} uses the legacy global generator; use default_rng"
    numpy_names = {
        alias.asname or "numpy"
        for node in ast.walk(source.tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "numpy"
    }
    found: List[Finding] = []
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            found += [
                ("rng-discipline", node.lineno, stdlib)
                for alias in node.names if alias.name.split(".")[0] == "random"
            ]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            module = node.module or ""
            if module.split(".")[0] == "random":
                found.append(("rng-discipline", node.lineno, stdlib))
            elif module == "numpy.random":
                found += [
                    ("rng-discipline", node.lineno, legacy.format(alias.name))
                    for alias in node.names if alias.name not in SEEDABLE
                ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "random"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in numpy_names
            and node.attr not in SEEDABLE
        ):
            found.append(("rng-discipline", node.lineno, legacy.format(node.attr)))
    return found


def _imported_modules(source: Source, node: ast.stmt) -> List[str]:
    """The absolute module names one import statement reaches."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        anchor = source.module.split(".")[: None if source.is_package else -1]
        parts = anchor[: len(anchor) - node.level + 1]
        base = ".".join(parts + ([base] if base else []))
    if base == "repro":
        # `from repro import api` / `from .. import api`: the name may
        # itself be the subpackage imported.
        return [f"repro.{alias.name}" for alias in node.names]
    return [base] if base else []


def check_layers(source: Source) -> List[Finding]:
    parts = source.module.split(".")
    if len(parts) < 2:
        return []  # the repro package itself
    package = parts[1]
    if package not in LAYERS:
        return [("layer-contract", 1, f"package {package!r} has no rank in LAYERS")]
    rank = LAYERS[package]
    deferred = {
        id(inner)
        for node in ast.walk(source.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    }
    found: List[Finding] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for target in _imported_modules(source, node):
            if not target.startswith("repro."):
                continue
            imported = target.split(".")[1]
            if imported not in LAYERS:
                message = f"imported package {imported!r} has no rank in LAYERS"
            elif LAYERS[imported] <= rank:
                continue
            elif id(node) not in deferred:
                message = (f"{package!r} (rank {rank}) imports 'repro."
                           f"{imported}' (rank {LAYERS[imported]}) at module "
                           "level")
            elif f"{source.module} -> repro.{imported}" not in DEFERRED_IMPORTS:
                message = (f"deferred import of 'repro.{imported}' (rank "
                           f"{LAYERS[imported]}) from {package!r} (rank "
                           f"{rank}) is not in DEFERRED_IMPORTS")
            else:
                continue
            found.append(("layer-contract", node.lineno, message))
    return found


TELEMETRY_HELPERS = frozenset({"span", "incr", "observe", "set_gauge"})
FAMILY_PREFIXES = tuple(key[:-1] for key in CATALOG if key.endswith(".*"))


def _telemetry_name(node: ast.AST):
    """The name argument of a ``telemetry.<helper>(name, ...)`` call."""
    if not (
        isinstance(node, ast.Call)
        and node.args
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in TELEMETRY_HELPERS
    ):
        return None
    owner = node.func.value
    if (isinstance(owner, ast.Name) and owner.id == "telemetry") or (
        isinstance(owner, ast.Attribute) and owner.attr == "telemetry"
    ):
        return node.args[0]
    return None


def check_telemetry(source: Source) -> List[Finding]:
    if source.module.startswith("repro.telemetry"):
        return []  # the telemetry package handles names generically
    found: List[Finding] = []
    for node in ast.walk(source.tree):
        name = _telemetry_name(node)
        if isinstance(name, ast.Constant) and isinstance(name.value, str):
            if not validate_name(name.value):
                message = (f"telemetry name {name.value!r} breaks the "
                           "dotted-lowercase scheme")
            elif not is_catalogued(name.value):
                message = (f"telemetry name {name.value!r} is not declared "
                           "in repro.telemetry.catalog")
            else:
                continue
        elif isinstance(name, ast.JoinedStr):
            head = name.values[0] if name.values else None
            prefix = str(head.value) if isinstance(head, ast.Constant) else ""
            if prefix.startswith(FAMILY_PREFIXES):
                continue
            message = (f"dynamic telemetry name prefix {prefix!r} matches no "
                       "'family.*' entry of repro.telemetry.catalog")
        else:
            continue  # no telemetry call, or a name held in a variable
        found.append(("telemetry-catalog", node.lineno, message))
    return found


#: A justification clause: a dash followed by prose, as in the repo's
#: `# noqa: BLE001 - isolation is the contract` idiom.
JUSTIFICATION = re.compile(r"(?:^|\s)-\s+\S")
BROAD = frozenset({"Exception", "BaseException"})


def _is_broad(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return caught is None or any(
        isinstance(name, ast.Name) and name.id in BROAD for name in names
    )


def _is_mutable(default: ast.expr) -> bool:
    return isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
        isinstance(default, ast.Call)
        and isinstance(default.func, ast.Name)
        and default.func.id in ("list", "dict", "set")
        and not default.args
        and not default.keywords
    )


def check_hygiene(source: Source) -> List[Finding]:
    found: List[Finding] = []
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ExceptHandler) and _is_broad(node):
            # A comment inside the handler explains the recovery, not why
            # catching everything is safe, so it does not count.
            if not any(
                JUSTIFICATION.search(source.comments.get(line, ""))
                for line in (node.lineno, node.lineno - 1)
            ):
                caught = " " + ast.unparse(node.type) if node.type else ""
                found.append((
                    "hygiene-broad-except", node.lineno,
                    f"'except{caught}' without a '- <why>' justification "
                    "comment",
                ))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [
                ("hygiene-mutable-default", default.lineno,
                 f"mutable default argument in {node.name}(); default to None")
                for default in node.args.defaults + node.args.kw_defaults
                if default is not None and _is_mutable(default)
            ]
        elif (
            isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            and any(
                isinstance(operand, ast.Constant)
                and isinstance(operand.value, float)
                for operand in (node.left, *node.comparators)
            )
        ):
            found.append((
                "hygiene-float-eq", node.lineno,
                "== / != against a float literal; compare with a tolerance",
            ))
    return found


def findings(source: Source) -> List[Finding]:
    """Every rule's findings for one file, less those a waiver with a
    reason suppresses, plus a ``stale-waiver`` for each waiver comment
    that suppressed nothing."""
    waivers = {}  # line -> the rules its waiver suppresses
    for line, comment in source.comments.items():
        match = WAIVER.search(comment)
        if match:
            waivers[line] = match[1].split(",") if match["reason"] else []
    used = set()
    visible: List[Finding] = []
    for check in (check_rng, check_layers, check_telemetry, check_hygiene):
        for rule, line, message in check(source):
            waiver = next(
                (at for at in (line, line - 1) if rule in waivers.get(at, ())),
                None,
            )
            if waiver is None:
                visible.append((rule, line, message))
            else:
                used.add(waiver)
    visible += [
        ("stale-waiver", line, "waiver suppresses no finding (or lacks a reason)")
        for line in waivers if line not in used
    ]
    return sorted(visible, key=lambda finding: finding[1])


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
TRY = "def run():\n    try:\n        return 1\n"

#: id -> (module, source text, expected findings).  A finding is its
#: rule, optionally followed by ": " and words its message must contain.
CASES = {
    "rng-stdlib-import": (
        "repro.core.draw", "import random\nx = random.random()\n",
        ["rng-discipline"]),
    "rng-stdlib-from-import": (
        "repro.core.draw", "from random import choice\n", ["rng-discipline"]),
    "rng-np-random-global-call": (
        "repro.core.draw", "import numpy as np\nx = np.random.rand()\n",
        ["rng-discipline"]),
    "rng-from-numpy-random-import": (
        "repro.core.draw", "from numpy.random import rand\n",
        ["rng-discipline"]),
    "rng-default-rng-passes": (
        "repro.core.draw",
        "import numpy as np\nx = np.random.default_rng(3).random()\n", []),
    "rng-generator-imports-pass": (
        "repro.core.draw", "from numpy.random import Generator, default_rng\n",
        []),
    "layers-upward-absolute": (
        "repro.core.up", "from repro.api import simulate\n",
        ["layer-contract: 'core' (rank 10) imports 'repro.api'"]),
    "layers-upward-relative": (
        "repro.core.up", "from ..api import simulate\n", ["layer-contract"]),
    "layers-upward-relative-from-package": (
        "repro.core.__init__", "from ..service import http\n",
        ["layer-contract"]),
    "layers-upward-subpackage-as-name": (
        "repro.core.up", "from repro import api\n", ["layer-contract"]),
    "layers-clean-module": ("repro.core.base", "import numpy\nVALUE = 1\n", []),
    "layers-same-rank-passes": (
        "repro.lossprocess.__init__", "from repro.core.base import VALUE\n",
        []),
    "layers-downward-passes": (
        "repro.api.__init__", "from ..lossprocess import VALUE\n", []),
    "layers-own-package-passes": (
        "repro.core.__init__", "from . import base\n", []),
    "layers-deferred-allowlisted": (
        "repro.flowsim.run", "def run():\n    from repro.api import simulate\n",
        []),
    "layers-deferred-not-allowlisted": (
        "repro.flowsim.other",
        "def run():\n    from repro.api import simulate\n",
        ["layer-contract: not in DEFERRED_IMPORTS"]),
    "layers-package-without-rank": (
        "repro.newpkg.module", "VALUE = 1\n", ["layer-contract"]),
    "layers-import-without-rank": (
        "repro.core.module", "from repro.newpkg import VALUE\n",
        ["layer-contract"]),
    "telemetry-uncatalogued": (
        "repro.core.work", "telemetry.incr('core.unheard_of')\n",
        ["telemetry-catalog: not declared"]),
    "telemetry-bad-scheme": (
        "repro.core.work", "telemetry.incr('CamelCase')\n",
        ["telemetry-catalog: scheme"]),
    "telemetry-catalogued-and-family-pass": (
        "repro.core.work",
        "telemetry.incr('store.hit')\n"
        "telemetry.incr(f'experiments.points.{status}')\n"
        "with repro.telemetry.span('api.simulate'):\n    pass\n", []),
    "telemetry-fstring-outside-families": (
        "repro.core.work", "telemetry.incr(f'store.hit.{status}')\n",
        ["telemetry-catalog: family"]),
    "telemetry-package-exempt": (
        "repro.telemetry.core", "telemetry.incr('Generic')\n", []),
    "hygiene-unjustified-broad-except": (
        "repro.core.risky", TRY + "    except Exception:\n        pass\n",
        ["hygiene-broad-except"]),
    "hygiene-bare-except": (
        "repro.core.risky", TRY + "    except:\n        pass\n",
        ["hygiene-broad-except"]),
    "hygiene-justified-broad-except": (
        "repro.core.risky",
        TRY + "    # noqa: BLE001 - isolation is the contract here\n"
        "    except Exception:\n        pass\n", []),
    "hygiene-body-comment-not-justification": (
        "repro.core.risky",
        TRY + "    except Exception:\n        # fall through - best effort\n"
        "        pass\n", ["hygiene-broad-except"]),
    "hygiene-mutable-default": (
        "repro.core.args", "def add(item, bucket=[]):\n    return bucket\n",
        ["hygiene-mutable-default: add()"]),
    "hygiene-mutable-kw-default": (
        "repro.core.args", "def add(item, *, bucket=dict()):\n    pass\n",
        ["hygiene-mutable-default"]),
    "hygiene-none-default-passes": (
        "repro.core.args", "def add(item, bucket=None):\n    pass\n", []),
    "hygiene-float-eq": (
        "repro.core.compare", "def near(x):\n    return x == 0.3\n",
        ["hygiene-float-eq"]),
    "hygiene-int-eq-passes": (
        "repro.core.compare", "def is_two(x):\n    return x == 2\n", []),
    "waiver-line-above": (
        "repro.core.guard",
        "# lint: allow[hygiene-float-eq] exact sentinel\nok = x == 1.5\n", []),
    "waiver-same-line-several-rules": (
        "repro.core.guard",
        "ok = x == 1.5  # lint: allow[rng-discipline,hygiene-float-eq] exact\n",
        []),
    "waiver-without-reason": (
        "repro.core.guard", "# lint: allow[hygiene-float-eq]\nok = x == 1.5\n",
        ["hygiene-float-eq", "stale-waiver"]),
    "waiver-for-another-rule": (
        "repro.core.guard",
        "# lint: allow[rng-discipline] wrong rule\nok = x == 1.5\n",
        ["hygiene-float-eq", "stale-waiver"]),
    "waiver-stale": (
        "repro.core.guard",
        "# lint: allow[hygiene-float-eq] nothing here\nok = x == 2\n",
        ["stale-waiver"]),
}


@pytest.mark.parametrize("module, text, expected", CASES.values(), ids=CASES)
def test_rule_findings(module, text, expected):
    found = findings(parse(module, text))
    rules = [item.partition(": ")[0] for item in expected]
    assert sorted(rule for rule, _line, _message in found) == sorted(rules)
    for item in expected:
        rule, _, words = item.partition(": ")
        assert any(words in message for r, _, message in found if r == rule)


def test_runtime_catalog_names_satisfy_scheme():
    for key in CATALOG:
        probe = key[:-2] + ".x" if key.endswith(".*") else key
        assert validate_name(probe), key


def test_live_tree_is_clean():
    report = []
    for path in sorted((SOURCE_ROOT / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SOURCE_ROOT).with_suffix("").parts)
        source = parse(module, path.read_text(encoding="utf-8"))
        report += [
            f"{path.relative_to(REPO_ROOT).as_posix()}:{line}: [{rule}] {message}"
            for rule, line, message in findings(source)
        ]
    assert not report, "\n" + "\n".join(report)
