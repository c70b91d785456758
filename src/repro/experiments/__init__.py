"""Declarative experiment campaigns: specs, runners, and a result store.

The campaign layer turns the repo's per-figure benchmark drivers into
data: an :class:`ExperimentSpec` names a runner kind and a parameter
grid, :class:`ExperimentRunner` expands and executes it (serially or on a
process pool, with per-point failure isolation), and :class:`ResultStore`
persists every point under a content-addressed key so re-runs are cache
hits.  Montecarlo and shortflow campaigns always run in-process: their
points cost less than a pool's start-up and pickling.  Named presets
reproduce the paper's figure scenarios::

    from repro.experiments import ExperimentRunner, preset

    campaign = ExperimentRunner(workers=4, store="results.jsonl").run(
        preset("fig3-pftk")
    )

The same machinery backs ``python -m repro.cli experiments``.
"""

from .registry import (
    PRESETS,
    preset,
    preset_names,
    register_runner,
    resolve_runner,
    runner_kinds,
)
from .runner import CampaignResult, ExperimentRunner, PointResult, execute_point
from .spec import ExperimentPoint, ExperimentSpec, grid
from .store import (
    LRUCache,
    MemoisingStore,
    ResultStore,
    canonical_json,
    canonical_payload,
    result_key,
)

__all__ = [
    "ExperimentSpec",
    "ExperimentPoint",
    "grid",
    "ExperimentRunner",
    "CampaignResult",
    "PointResult",
    "execute_point",
    "ResultStore",
    "MemoisingStore",
    "LRUCache",
    "canonical_json",
    "canonical_payload",
    "result_key",
    "register_runner",
    "resolve_runner",
    "runner_kinds",
    "preset",
    "preset_names",
    "PRESETS",
]
