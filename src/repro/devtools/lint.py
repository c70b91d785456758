"""Command-line entry point for the static-analysis pass.

Run from the repository root (or anywhere below it)::

    PYTHONPATH=src python -m repro.devtools.lint
    PYTHONPATH=src python -m repro.devtools.lint --json
    PYTHONPATH=src python -m repro.devtools.lint --report lint-report.json
    PYTHONPATH=src python -m repro.cli lint          # same thing

Exit codes: 0 -- clean; 1 -- violations; 2 -- broken configuration (no
pyproject.toml, malformed ``[tool.reprolint]``).  A deliberate exception
is waived on its line with ``# lint: allow[<rule>] <reason>``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .config import LintConfigError, find_root, load_config
from .engine import run_lint

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static analysis for the repo's determinism, layering, "
            "telemetry-naming and hygiene contracts (configured in "
            "[tool.reprolint])"
        ),
    )
    parser.add_argument(
        "--root", default=None,
        help="repository root (default: walk up from cwd to pyproject.toml)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the machine-readable JSON report to stdout",
    )
    parser.add_argument(
        "--report", default=None, metavar="FILE",
        help="also write the JSON report to FILE",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-diagnostic lines (summary only)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    arguments = build_parser().parse_args(argv)

    root = Path(arguments.root).resolve() if arguments.root else find_root()
    if root is None:
        print(
            "repro-lint: no pyproject.toml found above the working "
            "directory; pass --root",
            file=sys.stderr,
        )
        return 2
    try:
        config = load_config(root)
    except LintConfigError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    report = run_lint(config)

    if arguments.report:
        with open(arguments.report, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")

    if arguments.json:
        print(report.to_json())
        return report.exit_code

    if not arguments.quiet:
        for diagnostic in report.diagnostics:
            print(diagnostic.format())
    summary = ", ".join(
        f"{rule}: {count}" for rule, count in report.summary().items()
    )
    if report.diagnostics:
        print(
            f"repro-lint: {len(report.diagnostics)} finding(s) in "
            f"{report.files_scanned} files ({summary})"
        )
    else:
        print(f"repro-lint: clean ({report.files_scanned} files)")
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via the console
    raise SystemExit(main())
