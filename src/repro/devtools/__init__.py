"""Dependency-free static analysis for the repo's own contracts.

The reproduction's core guarantees -- hash-derived per-point seeds,
exact registry ``to_config``/``from_config`` round-trips, bit-for-bit
batch/shard equivalence -- are enforced dynamically by the test suite.
This package enforces the disciplines behind them that only a reading
of the source can see, before a regression can even reach a test:

``rng-discipline``
    No ``random`` module and no ``np.random`` global-state calls inside
    ``src/``; all randomness must flow through ``make_rng`` / explicit
    ``numpy.random.default_rng`` generators with derived seeds.
``layer-contract``
    The package import DAG (``core``/``lossprocess``/``palm`` below
    ``simulator``/``montecarlo``/``flowsim``, below
    ``api``/``experiments``, below ``service``/``cli``) admits
    no upward import.  Deliberate *deferred* upward imports (function
    scope) must be allow-listed in ``pyproject.toml``.
``telemetry-catalog``
    Every span/counter/gauge/histogram name literal must follow the
    dotted-lowercase scheme and appear in
    :mod:`repro.telemetry.catalog`.
``hygiene-*``
    Broad ``except Exception`` without a justification comment, mutable
    default arguments, and ``==``/``!=`` against float literals.

Run it with either entry point::

    PYTHONPATH=src python -m repro.devtools.lint
    PYTHONPATH=src python -m repro.cli lint --json

Configuration lives in ``[tool.reprolint]`` in ``pyproject.toml`` (layer
map, deferred-import allow-list).  Deliberate exceptions are waived
inline with ``# lint: allow[<rule>] <reason>``.

The registry contracts are runtime properties, so the test suite holds
them: ``tests/test_api.py`` round-trips every registered example and
requires every registered kind to be named by a preset, a CLI default
or an example spec.

The package is import-free of the rest of :mod:`repro` and of any third
party: it parses the tree with :mod:`ast` and never imports the code it
lints.
"""

from .config import LintConfig, LintConfigError, find_root, load_config
from .diagnostics import Diagnostic, LintReport
from .engine import run_lint

__all__ = [
    "Diagnostic",
    "LintConfig",
    "LintConfigError",
    "LintReport",
    "find_root",
    "load_config",
    "run_lint",
]
