"""Batch sharding: split a grid across workers without changing results.

A ``/predict/batch`` request is one :class:`~repro.api.BatchConfig`.  To
use more than one core the service splits the grid's *loss-model axis*
into contiguous shards, evaluates each shard through the same vectorised
kernels, and merges the shard results back into the exact row order the
unsharded batch would have produced.

Two properties make the split result-preserving:

* **seed pinning** -- per-point seeds derive from axis *values*, but the
  default derivation only includes *multi-valued* axes.  Slicing an axis
  can leave a shard with a single value, which would silently drop that
  axis from the derivation and change every seed in the shard.  The
  planner therefore pins ``BatchConfig.seed_axes`` on every shard to the
  full config's effective seed axes, so a shard of one point derives the
  same seeds as the full grid.
* **no sharding under shared noise** -- ``share_noise=True`` draws one
  common base block for the whole grid; splitting the grid would give
  each shard its own block and different (though statistically
  equivalent) results.  Those batches run unsharded.

The kernels themselves are row-independent in per-point mode, so shard
outputs are bit-for-bit equal to the matching rows of the full batch --
the differential test in ``tests/test_service.py`` asserts exactly that.
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Sequence

from ..api import BatchConfig, BatchResult, SimResult
from ..api.simulate import SEED_AXES

__all__ = [
    "effective_seed_axes",
    "merge_shard_results",
    "plan_shards",
    "shard_num_points",
]


def effective_seed_axes(config: BatchConfig) -> List[str]:
    """The axis names that enter seed derivation for this config."""
    return [name for name in SEED_AXES if config._axis_in_seed(name)]


def shard_num_points(config: BatchConfig) -> int:
    """Number of loss-model points one config expands to."""
    if config.loss_processes is not None:
        return len(config.loss_processes)
    return len(config.loss_event_rates) * len(config.coefficients_of_variation)


def _chunks(values: Sequence[Any], num_chunks: int) -> List[List[Any]]:
    """Split values into at most ``num_chunks`` contiguous, non-empty runs."""
    num_chunks = max(1, min(num_chunks, len(values)))
    size, remainder = divmod(len(values), num_chunks)
    chunks: List[List[Any]] = []
    start = 0
    for index in range(num_chunks):
        stop = start + size + (1 if index < remainder else 0)
        chunks.append(list(values[start:stop]))
        start = stop
    return chunks


def plan_shards(config: BatchConfig, max_shards: int) -> List[BatchConfig]:
    """Split a batch into result-preserving shards (possibly just itself).

    The outermost loss-model axis is sharded -- ``loss_processes`` for
    the explicit-process form, ``loss_event_rates`` (falling back to
    ``coefficients_of_variation``) for the (p, cv) form -- because the
    grid's point list iterates that axis outermost, which keeps every
    shard a contiguous run of the full point list and makes the merge a
    pure reordering.  Shared-noise batches are never split (the common
    random-numbers block spans the whole grid).
    """
    if max_shards <= 1 or config.uses_shared_noise:
        return [config]
    pinned = effective_seed_axes(config)
    if config.loss_processes is not None:
        axis = "loss_processes"
        values = config.loss_processes
    elif len(config.loss_event_rates) > 1:
        axis = "loss_event_rates"
        values = config.loss_event_rates
    else:
        axis = "coefficients_of_variation"
        values = config.coefficients_of_variation
    if len(values) <= 1:
        return [config]
    return [
        dataclasses.replace(config, **{axis: chunk, "seed_axes": pinned})
        for chunk in _chunks(values, max_shards)
    ]


def merge_shard_results(
    config: BatchConfig,
    shards: Sequence[BatchConfig],
    shard_batches: Sequence[BatchResult],
) -> List[SimResult]:
    """Reassemble shard results into the unsharded batch's row order.

    Every batch emits rows grouped ``(history_length, formula, point)``
    with the point index innermost; a shard holds a contiguous run of
    the full point list, so the merged order interleaves each shard's
    per-(L, formula) group back into position with pure arithmetic -- no
    float matching.
    """
    num_lengths = len(config.history_lengths)
    num_formulas = len(config.formulas)
    group_sizes = [shard_num_points(shard) for shard in shards]
    merged: List[SimResult] = []
    for length_index in range(num_lengths):
        for formula_index in range(num_formulas):
            group = length_index * num_formulas + formula_index
            for shard_index, batch in enumerate(shard_batches):
                size = group_sizes[shard_index]
                start = group * size
                merged.extend(batch.results[start:start + size])
    return merged
