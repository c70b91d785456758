"""Generic component registry: the one construction idiom of :mod:`repro.api`.

Every configurable component family in the package (loss-throughput
formulas, loss processes, estimator weight profiles, dumbbell scenario
families) is served by one :class:`ComponentRegistry` instance that maps a
string ``kind`` to a component class and converts both ways between
instances and JSON-safe configuration dictionaries::

    registry.register("sqrt", SqrtFormula, example=lambda: SqrtFormula(rtt=0.5))
    obj = registry.from_config({"kind": "sqrt", "rtt": 0.5})
    registry.to_config(obj)   # {"kind": "sqrt", "rtt": 0.5, "b": 2, "c1": ...}

The round trip is exact: ``from_config(to_config(obj)) == obj`` for every
registered component, and ``to_config`` output survives
``json.loads(json.dumps(...))`` unchanged.  That contract is what lets an
:class:`~repro.experiments.spec.ExperimentSpec` express *any* component as
data ("new scenario = new config dict") and is asserted for every
registered kind by the test suite.

Conventions:

* ``kind`` is matched case-insensitively with underscores and hyphens
  interchangeable (``pftk_standard`` == ``pftk-standard``).
* ``from_config`` also accepts a bare kind string (all-default
  construction) and passes instances of the family's base class through
  unchanged, so call sites can take "config or object" arguments.
* A legacy ``name`` key is accepted as an alias for ``kind`` (the shape
  the pre-registry ``formula_to_params`` emitted).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["ComponentRegistry"]

Encoder = Callable[[Any], Dict[str, Any]]
Decoder = Callable[[Dict[str, Any]], Any]
ExampleFactory = Callable[[], Any]

#: Field names per dataclass, in definition order (derived on first use).
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}
_SCALAR_TYPES = frozenset((int, float, str, bool, type(None)))


def _normalize_kind(kind: str) -> str:
    return kind.strip().lower().replace("_", "-")


def _default_encode(obj: Any) -> Dict[str, Any]:
    """Encode a flat dataclass instance as a parameter dictionary.

    The fields are read directly; when every value is an exact ``int``,
    ``float``, ``str``, ``bool`` or ``None``, :func:`dataclasses.asdict`
    would return the same objects (its deep copy keeps atomic values),
    so only other values (lists, numpy scalars, ...) go through it.
    """
    cls = type(obj)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        if not dataclasses.is_dataclass(obj):
            raise TypeError(
                f"{cls.__name__} is not a dataclass; register it with an "
                "explicit encode hook"
            )
        names = _FIELD_NAMES[cls] = tuple(
            field.name for field in dataclasses.fields(obj)
        )
    params = {name: getattr(obj, name) for name in names}
    for value in params.values():
        if type(value) not in _SCALAR_TYPES:
            return dataclasses.asdict(obj)
    return params


@dataclasses.dataclass(frozen=True)
class _Registration:
    kind: str
    cls: type
    encode: Encoder
    decode: Optional[Decoder]
    example: Optional[ExampleFactory]


class ComponentRegistry:
    """Registry of one component family, keyed by ``kind`` strings.

    Parameters
    ----------
    family:
        Human-readable family name used in error messages
        (``"formula"``, ``"loss process"``, ...).
    base_class:
        Instances of this class are passed through :meth:`from_config`
        unchanged, so callers can hand either a config or a ready object
        to any API that takes this family.
    """

    def __init__(self, family: str, base_class: type) -> None:
        self.family = family
        self.base_class = base_class
        self._by_kind: Dict[str, _Registration] = {}
        self._kind_by_class: Dict[type, str] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        kind: str,
        cls: type,
        *,
        encode: Optional[Encoder] = None,
        decode: Optional[Decoder] = None,
        example: Optional[ExampleFactory] = None,
    ) -> None:
        """Register (or replace) a component class under ``kind``.

        Parameters
        ----------
        kind:
            The config name of the component.
        cls:
            The component class.  ``to_config`` serialises instances by
            exact type, so subclasses must be registered separately.
        encode:
            ``instance -> params dict`` (JSON-safe, without the ``kind``
            key).  Defaults to the dataclass's fields, read directly,
            falling back to :func:`dataclasses.asdict` when a value is not
            a plain scalar; the output is what ``asdict`` returns, which is
            exact for flat frozen dataclasses.
        decode:
            ``params dict -> instance``.  Defaults to ``cls(**params)``.
            A decode hook can support alternative parameterisations (for
            example the shifted exponential's ``(p, cv)`` form) as long
            as ``encode`` emits one canonical shape.
        example:
            Zero-argument factory returning a representative instance;
            used by the round-trip test suite to cover every kind.
        """
        if not kind:
            raise ValueError("component kind must be non-empty")
        key = _normalize_kind(kind)
        self._by_kind[key] = _Registration(
            kind=key, cls=cls, encode=encode or _default_encode,
            decode=decode, example=example,
        )
        # The first kind registered for a class is its canonical name;
        # later registrations of the same class are constructor aliases.
        self._kind_by_class.setdefault(cls, key)

    def kinds(self) -> List[str]:
        """All registered kinds, sorted."""
        return sorted(self._by_kind)

    def examples(self) -> Dict[str, Any]:
        """A representative instance per kind that declared one."""
        return {
            kind: registration.example()
            for kind, registration in sorted(self._by_kind.items())
            if registration.example is not None
        }

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def from_config(self, config: Any) -> Any:
        """Build a component from a config dict, kind string, or instance."""
        if isinstance(config, self.base_class):
            return config
        if isinstance(config, str):
            config = {"kind": config}
        if not isinstance(config, Mapping):
            raise TypeError(
                f"cannot build a {self.family} from {type(config).__name__}; "
                "expected a config mapping, a kind string, or an instance of "
                f"{self.base_class.__name__}"
            )
        params = dict(config)
        kind = params.pop("kind", None)
        if kind is None:
            kind = params.pop("name", None)  # legacy key
        if kind is None:
            raise ValueError(
                f"{self.family} config needs a 'kind' entry; got keys "
                f"{sorted(config)}"
            )
        params.pop("name", None)  # tolerate both keys side by side
        registration = self._lookup(kind)
        if registration.decode is not None:
            return registration.decode(params)
        return registration.cls(**params)

    def encode(self, obj: Any) -> Optional[Dict[str, Any]]:
        """The parameter dictionary of a registered instance -- its config
        without the ``kind`` -- or None if its class is not registered."""
        kind = self._kind_by_class.get(type(obj))
        if kind is None:
            return None
        return self._by_kind[kind].encode(obj)

    def to_config(self, obj: Any) -> Dict[str, Any]:
        """Describe a component instance as a JSON-safe config dictionary."""
        kind = self._kind_by_class.get(type(obj))
        if kind is None:
            raise TypeError(
                f"cannot serialise {self.family} of type {type(obj).__name__}; "
                f"registered kinds are {self.kinds()}"
            )
        return {"kind": kind, **self._by_kind[kind].encode(obj)}

    # ------------------------------------------------------------------
    def _lookup(self, kind: str) -> _Registration:
        key = _normalize_kind(str(kind))
        try:
            return self._by_kind[key]
        except KeyError:
            raise KeyError(
                f"unknown {self.family} kind {kind!r}; registered kinds are "
                f"{self.kinds()}"
            ) from None
