"""Tests for the :mod:`repro.devtools` static-analysis subsystem.

Each checker is exercised against small fixture trees written to a
temporary directory (the linter parses them, it never imports them),
plus a regression gate asserting the live repository tree stays
lint-clean.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.devtools import load_config, run_lint
from repro.devtools.config import LintConfigError
from repro.devtools.lint import main as lint_main
from repro.telemetry import catalog as telemetry_catalog
from repro.devtools import check_telemetry

REPO_ROOT = Path(__file__).resolve().parents[1]

PYPROJECT = """\
[tool.reprolint]
source-root = "src"
package = "repro"
deferred-imports-allow = [
    "repro.flowsim.run -> repro.api",
]

[tool.reprolint.layers]
telemetry = 0
core = 10
lossprocess = 10
flowsim = 20
api = 40
cli = 50
"""

CATALOG_MODULE = '''\
CATALOG = {
    "core.calls": "counter",
    "experiments.points.*": "counter family",
}
'''


def make_tree(tmp_path, files, pyproject=PYPROJECT, catalog=CATALOG_MODULE):
    """Write a fixture repo: pyproject + src/repro/* + telemetry catalog."""
    (tmp_path / "pyproject.toml").write_text(pyproject)
    defaults = {
        "__init__.py": "",
        "telemetry/__init__.py": "",
        "telemetry/catalog.py": catalog,
    }
    for relative, content in {**defaults, **files}.items():
        target = tmp_path / "src" / "repro" / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(content))
    return tmp_path


def lint(root, **kwargs):
    return run_lint(load_config(root), **kwargs)


def rules(report):
    return sorted(d.rule for d in report.diagnostics)


# ---------------------------------------------------------------------------
# engine / config


def test_missing_reprolint_section_raises(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    with pytest.raises(LintConfigError):
        load_config(tmp_path)


def test_clean_fixture_tree_is_clean(tmp_path):
    root = make_tree(tmp_path, {
        "core/__init__.py": "",
        "core/maths.py": "def double(x):\n    return 2 * x\n",
    })
    report = lint(root)
    assert report.exit_code == 0
    assert report.diagnostics == []
    assert report.files_scanned >= 4


def test_syntax_error_reported_as_parse_error(tmp_path):
    root = make_tree(tmp_path, {"core/bad.py": "def broken(:\n"})
    report = lint(root)
    assert rules(report) == ["parse-error"]
    assert report.exit_code == 1


def test_allow_comment_suppresses_finding(tmp_path):
    root = make_tree(tmp_path, {
        "core/guard.py": (
            "def check(x):\n"
            "    # lint: allow[hygiene-float-eq] exact sentinel\n"
            "    return x == 1.5\n"
        ),
    })
    assert lint(root).diagnostics == []


def test_allow_comment_requires_reason(tmp_path):
    root = make_tree(tmp_path, {
        "core/guard.py": (
            "def check(x):\n"
            "    # lint: allow[hygiene-float-eq]\n"
            "    return x == 1.5\n"
        ),
    })
    assert rules(lint(root)) == ["hygiene-float-eq"]


# ---------------------------------------------------------------------------
# checker 1: rng-discipline


def test_rng_flags_stdlib_random(tmp_path):
    root = make_tree(tmp_path, {
        "core/sampling.py": "import random\n\nx = random.random()\n",
    })
    report = lint(root)
    assert "rng-discipline" in rules(report)


def test_rng_flags_np_random_global_state(tmp_path):
    root = make_tree(tmp_path, {
        "core/sampling.py": (
            "import numpy as np\n\n"
            "def draw():\n"
            "    return np.random.rand()\n"
        ),
    })
    assert rules(lint(root)) == ["rng-discipline"]


def test_rng_allows_default_rng(tmp_path):
    root = make_tree(tmp_path, {
        "core/sampling.py": (
            "import numpy as np\n\n"
            "def draw(seed):\n"
            "    return np.random.default_rng(seed).random()\n"
        ),
    })
    assert lint(root).diagnostics == []


# ---------------------------------------------------------------------------
# checker 2: layer-contract


def test_layers_flag_upward_module_import(tmp_path):
    root = make_tree(tmp_path, {
        "core/__init__.py": "",
        "core/upward.py": "from repro.api import simulate\n",
        "api/__init__.py": "def simulate():\n    return 0\n",
    })
    report = lint(root)
    assert rules(report) == ["layer-contract"]
    assert "core" in report.diagnostics[0].message


def test_layers_allow_downward_and_sibling_imports(tmp_path):
    root = make_tree(tmp_path, {
        "core/__init__.py": "",
        "core/base.py": "VALUE = 1\n",
        "lossprocess/__init__.py": "from repro.core.base import VALUE\n",
        "api/__init__.py": "from repro.lossprocess import VALUE\n",
    })
    assert lint(root).diagnostics == []


def test_layers_deferred_upward_needs_allowlist(tmp_path):
    files = {
        "flowsim/__init__.py": "",
        "flowsim/run.py": (
            "def run():\n"
            "    from repro.api import simulate\n"
            "    return simulate\n"
        ),
        "flowsim/other.py": (
            "def run():\n"
            "    from repro.api import simulate\n"
            "    return simulate\n"
        ),
        "api/__init__.py": "def simulate():\n    return 0\n",
    }
    root = make_tree(tmp_path, files)
    report = lint(root)
    # run.py's edge is in deferred-imports-allow; other.py's is not.
    assert rules(report) == ["layer-contract"]
    assert report.diagnostics[0].path.endswith("other.py")


# ---------------------------------------------------------------------------
# checker 4: telemetry-catalog


def test_telemetry_uncatalogued_name_flagged(tmp_path):
    root = make_tree(tmp_path, {
        "core/worker.py": (
            "from repro import telemetry\n\n"
            "def work():\n"
            "    telemetry.incr('core.unheard_of')\n"
        ),
    })
    report = lint(root)
    assert rules(report) == ["telemetry-catalog"]


def test_telemetry_bad_scheme_flagged(tmp_path):
    root = make_tree(tmp_path, {
        "core/worker.py": (
            "from repro import telemetry\n\n"
            "def work():\n"
            "    telemetry.incr('CamelCase')\n"
        ),
    })
    report = lint(root)
    assert rules(report) == ["telemetry-catalog"]
    assert "scheme" in report.diagnostics[0].message


def test_telemetry_catalogued_and_family_names_pass(tmp_path):
    root = make_tree(tmp_path, {
        "core/worker.py": (
            "from repro import telemetry\n\n"
            "def work(status):\n"
            "    telemetry.incr('core.calls')\n"
            "    telemetry.incr(f'experiments.points.{status}')\n"
        ),
    })
    assert lint(root).diagnostics == []


def test_telemetry_dynamic_name_without_family_flagged(tmp_path):
    root = make_tree(tmp_path, {
        "core/worker.py": (
            "from repro import telemetry\n\n"
            "def work(status):\n"
            "    telemetry.incr(f'core.calls.{status}')\n"
        ),
    })
    assert rules(lint(root)) == ["telemetry-catalog"]


def test_telemetry_missing_catalog_module_flagged(tmp_path):
    (tmp_path / "pyproject.toml").write_text(PYPROJECT)
    for relative, content in {
        "__init__.py": "",
        "telemetry/__init__.py": "",
    }.items():
        target = tmp_path / "src" / "repro" / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)
    assert rules(lint(tmp_path)) == ["telemetry-catalog"]


# ---------------------------------------------------------------------------
# checker 5: hygiene


def test_hygiene_unjustified_broad_except_flagged(tmp_path):
    root = make_tree(tmp_path, {
        "core/risky.py": (
            "def run():\n"
            "    try:\n"
            "        return 1\n"
            "    except Exception:\n"
            "        return None\n"
        ),
    })
    assert rules(lint(root)) == ["hygiene-broad-except"]


def test_hygiene_justified_broad_except_passes(tmp_path):
    root = make_tree(tmp_path, {
        "core/risky.py": (
            "def run():\n"
            "    try:\n"
            "        return 1\n"
            "    # noqa: BLE001 - isolation is the contract here\n"
            "    except Exception:\n"
            "        return None\n"
        ),
    })
    assert lint(root).diagnostics == []


def test_hygiene_body_comment_does_not_justify(tmp_path):
    root = make_tree(tmp_path, {
        "core/risky.py": (
            "def run():\n"
            "    try:\n"
            "        return 1\n"
            "    except Exception:\n"
            "        # fall through - best effort\n"
            "        return None\n"
        ),
    })
    assert rules(lint(root)) == ["hygiene-broad-except"]


def test_hygiene_mutable_default_flagged(tmp_path):
    root = make_tree(tmp_path, {
        "core/args.py": "def accumulate(item, bucket=[]):\n    return bucket\n",
    })
    report = lint(root)
    assert rules(report) == ["hygiene-mutable-default"]
    assert "accumulate" in report.diagnostics[0].message


def test_hygiene_none_default_passes(tmp_path):
    root = make_tree(tmp_path, {
        "core/args.py": (
            "def accumulate(item, bucket=None):\n"
            "    bucket = [] if bucket is None else bucket\n"
            "    return bucket\n"
        ),
    })
    assert lint(root).diagnostics == []


def test_hygiene_float_eq_flagged(tmp_path):
    root = make_tree(tmp_path, {
        "core/compare.py": "def near(x):\n    return x == 0.3\n",
    })
    assert rules(lint(root)) == ["hygiene-float-eq"]


def test_hygiene_int_eq_passes(tmp_path):
    root = make_tree(tmp_path, {
        "core/compare.py": "def is_two(x):\n    return x == 2\n",
    })
    assert lint(root).diagnostics == []


# ---------------------------------------------------------------------------
# CLI


def test_cli_exit_codes_and_json(tmp_path, capsys):
    root = make_tree(tmp_path, {
        "core/compare.py": "def near(x):\n    return x == 0.3\n",
    })
    assert lint_main(["--root", str(root), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["num_diagnostics"] == 1
    assert payload["diagnostics"][0]["rule"] == "hygiene-float-eq"
    assert payload["diagnostics"][0]["path"].endswith("compare.py")
    assert payload["diagnostics"][0]["line"] == 2


def test_cli_report_file(tmp_path, capsys):
    root = make_tree(tmp_path, {
        "core/maths.py": "def double(x):\n    return 2 * x\n",
    })
    report_path = tmp_path / "lint-report.json"
    assert lint_main(
        ["--root", str(root), "--report", str(report_path), "--quiet"]
    ) == 0
    capsys.readouterr()
    payload = json.loads(report_path.read_text())
    assert payload["num_diagnostics"] == 0


def test_cli_missing_pyproject_is_config_error(tmp_path, capsys):
    assert lint_main(["--root", str(tmp_path)]) == 2
    assert "pyproject" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# live tree


def test_name_pattern_matches_runtime_catalog():
    # devtools must not import the linted tree, so it carries a copy of
    # the naming regex; keep the two in lockstep.
    assert (
        check_telemetry.NAME_PATTERN.pattern
        == telemetry_catalog.NAME_PATTERN.pattern
    )


def test_runtime_catalog_names_satisfy_scheme():
    for key in telemetry_catalog.CATALOG:
        bare = key[:-2] if key.endswith(".*") else key
        probe = bare + ".x" if key.endswith(".*") else bare
        assert telemetry_catalog.validate_name(probe), key


def test_live_tree_is_lint_clean_with_empty_baseline():
    config = load_config(REPO_ROOT)
    report = run_lint(config)
    assert [d.format() for d in report.diagnostics] == []
    assert report.exit_code == 0
