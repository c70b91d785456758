"""Declarative experiment specifications.

An :class:`ExperimentSpec` describes a *campaign*: a named runner (one of
the kinds registered in :mod:`repro.experiments.registry`), a set of
``base`` parameters shared by every point, and a ``grid`` of axes that is
expanded into the cartesian product of its values.  Specs round-trip
through plain dictionaries and JSON so campaigns can be stored in files,
shipped to worker processes, and hashed for the result store.

Expansion is deterministic: axes iterate in the order they appear in the
``grid`` mapping, with the last axis varying fastest (row-major order, as
the nested ``for`` loops of the original per-figure drivers did).  Each
point receives a seed derived from the spec's base seed and the point's
axis values via :func:`repro.lossprocess.derive_point_seed`, so a
point's stream is independent of its position in the grid and identical
whether the point is run serially, in a process pool, or alone.  A spec
run through :class:`~repro.experiments.runner.ExperimentRunner` is the
one front door for grids: the Figure 3/4 presets, the CLI ``sweep``
command and the figure benchmarks all build one.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

from ..lossprocess.base import check_seed, derive_point_seed
from .store import result_key

__all__ = ["ExperimentSpec", "ExperimentPoint", "grid"]


def grid(**axes: Any) -> Dict[str, List[Any]]:
    """Build a grid mapping from keyword axes.

    Scalars become single-value axes; iterables (lists, tuples, ranges)
    are materialised as lists::

        grid(p=[0.01, 0.1], L=(2, 8), seed=range(3))
        # {'p': [0.01, 0.1], 'L': [2, 8], 'seed': [0, 1, 2]}
    """
    expanded: Dict[str, List[Any]] = {}
    for name, values in axes.items():
        if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
            expanded[name] = [values]
        else:
            expanded[name] = list(values)
        if not expanded[name]:
            raise ValueError(f"axis {name!r} has no values")
    return expanded


@dataclass(frozen=True)
class ExperimentPoint:
    """One expanded point of a campaign.

    ``params`` is the merged ``base`` + axis assignment handed to the
    runner; ``axes`` keeps the axis assignment alone (useful for labelling
    result rows); ``seed`` is the derived per-point seed.
    """

    spec_name: str
    runner: str
    index: int
    params: Dict[str, Any]
    axes: Dict[str, Any]
    seed: Optional[int]

    def key(self) -> str:
        """Content-address of the point: hash of runner, params and seed.

        The spec name and grid position are deliberately excluded so that
        identical work is recognised across differently-named or
        differently-ordered campaigns.  Hashing goes through
        :func:`repro.experiments.store.result_key`, whose canonical form
        is insertion-order- and serialisation-stable: reordered-but-equal
        params, tuple-vs-list values and component *instances* in
        hand-written specs all produce the same key as their JSON
        round-trip.
        """
        return result_key(
            {"runner": self.runner, "params": self.params, "seed": self.seed}
        )

    def payload(self) -> Dict[str, Any]:
        """JSON-safe execution payload for a worker process."""
        return {"runner": self.runner, "params": self.params, "seed": self.seed}


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment campaign."""

    name: str
    runner: str
    base: Dict[str, Any] = field(default_factory=dict)
    grid: Dict[str, List[Any]] = field(default_factory=dict)
    seed: Optional[int] = None
    description: str = ""

    def __post_init__(self) -> None:
        for name in ("name", "runner", "description"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"spec {name} must be a string, got {value!r}")
        if not self.name:
            raise ValueError("spec needs a non-empty name")
        if not self.runner:
            raise ValueError("spec needs a runner kind")
        for name in ("base", "grid"):
            if not isinstance(getattr(self, name), Mapping):
                raise ValueError(f"spec {name} must be a mapping")
        check_seed(self.seed)
        for axis, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise ValueError(f"grid axis {axis!r} must be a non-empty sequence")
        overlap = set(self.grid) & set(self.base)
        if overlap:
            raise ValueError(f"axes shadow base parameters: {sorted(overlap)}")

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def num_points(self) -> int:
        """Number of points the grid expands to (1 for an empty grid)."""
        count = 1
        for values in self.grid.values():
            count *= len(values)
        return count

    def expand(self) -> List[ExperimentPoint]:
        """Expand the grid into points, row-major, last axis fastest."""
        axis_names = list(self.grid)
        axis_values = [list(self.grid[name]) for name in axis_names]
        points: List[ExperimentPoint] = []
        for index, combo in enumerate(itertools.product(*axis_values)):
            assignment = dict(zip(axis_names, combo))
            params = dict(self.base)
            params.update(assignment)
            points.append(
                ExperimentPoint(
                    spec_name=self.name,
                    runner=self.runner,
                    index=index,
                    params=params,
                    axes=assignment,
                    seed=derive_point_seed(self.seed, **assignment),
                )
            )
        return points

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "runner": self.runner,
            "base": dict(self.base),
            "grid": {axis: list(values) for axis, values in self.grid.items()},
            "seed": self.seed,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"a spec must be a JSON object, got {type(payload).__name__}"
            )
        known = {"name", "runner", "base", "grid", "seed", "description"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        for required in ("name", "runner"):
            if required not in payload:
                raise ValueError(f"spec needs a {required!r} field")
        # Only mappings and sequences are copied: any other value goes
        # to the constructor as is, which rejects it.
        base = payload.get("base", {})
        grid = payload.get("grid", {})
        if isinstance(grid, Mapping):
            grid = {
                axis: list(values) if isinstance(values, (list, tuple)) else values
                for axis, values in grid.items()
            }
        return cls(
            name=payload["name"],
            runner=payload["runner"],
            base=dict(base) if isinstance(base, Mapping) else base,
            grid=grid,
            seed=payload.get("seed"),
            description=payload.get("description", ""),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))
