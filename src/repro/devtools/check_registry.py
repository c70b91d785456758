"""Checker 3: the registry round-trip contract (rule ``registry-roundtrip``).

``ComponentRegistry`` promises ``from_config(to_config(obj)) == obj``
for every registered kind.  The dynamic test suite asserts it per
instance; this checker proves the *structural* preconditions statically,
for every ``REGISTRY.register(kind, Cls, ...)`` call in the tree:

* a registration without an ``encode=`` hook relies on the default
  encoder, which reads the dataclass's fields directly and calls
  :func:`dataclasses.asdict` only when a value is not a plain scalar
  (the output is the same either way), so ``Cls`` must be a dataclass
  and none of its fields may be ``init=False`` (the encoder would emit
  a key ``Cls(**params)`` cannot accept);
* when ``encode=`` is a dict-literal (lambda or single-return helper)
  and there is no ``decode=`` hook, the emitted keys must be accepted by
  ``Cls``'s constructor and must cover every required parameter;
* every registration must declare an ``example=`` factory -- that is
  what lets the round-trip test suite cover the kind at all.

Classes are resolved through imports across the linted tree; a class the
checker cannot resolve statically is skipped, never guessed at.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .diagnostics import Diagnostic
from .engine import Project, SourceFile, import_targets

__all__ = ["RULE", "check"]

RULE = "registry-roundtrip"

_MAX_HOPS = 8


@dataclass
class ParamInfo:
    name: str
    required: bool


@dataclass
class ClassInfo:
    module: str
    name: str
    node: ast.ClassDef
    is_dataclass: bool
    bases: List[str] = field(default_factory=list)
    dataclass_fields: List[ParamInfo] = field(default_factory=list)
    noninit_fields: List[str] = field(default_factory=list)
    explicit_init: Optional[List[ParamInfo]] = None


# ----------------------------------------------------------------------
# Class indexing
# ----------------------------------------------------------------------
def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Name):
        return target.id == "dataclass"
    if isinstance(target, ast.Attribute):
        return target.attr == "dataclass"
    return False


def _init_params(fn: ast.FunctionDef) -> List[ParamInfo]:
    args = fn.args
    positional = list(args.posonlyargs) + list(args.args)
    if positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    params: List[ParamInfo] = []
    num_defaults = len(args.defaults)
    required_cut = len(positional) - num_defaults
    for index, arg in enumerate(positional):
        params.append(ParamInfo(arg.arg, required=index < required_cut))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        params.append(ParamInfo(arg.arg, required=default is None))
    return params


def _is_classvar(annotation: ast.expr) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return target.id == "ClassVar"
    if isinstance(target, ast.Attribute):
        return target.attr == "ClassVar"
    return False


def _field_call(value: Optional[ast.expr]) -> Optional[ast.Call]:
    if (
        isinstance(value, ast.Call)
        and (
            (isinstance(value.func, ast.Name) and value.func.id == "field")
            or (
                isinstance(value.func, ast.Attribute)
                and value.func.attr == "field"
            )
        )
    ):
        return value
    return None


def _class_info(module: str, node: ast.ClassDef) -> ClassInfo:
    info = ClassInfo(
        module=module,
        name=node.name,
        node=node,
        is_dataclass=any(
            _is_dataclass_decorator(dec) for dec in node.decorator_list
        ),
        bases=[
            base.id for base in node.bases if isinstance(base, ast.Name)
        ],
    )
    for statement in node.body:
        if (
            isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
            and not _is_classvar(statement.annotation)
        ):
            name = statement.target.id
            call = _field_call(statement.value)
            if call is not None:
                keywords = {kw.arg: kw.value for kw in call.keywords}
                init_kw = keywords.get("init")
                if (
                    isinstance(init_kw, ast.Constant)
                    and init_kw.value is False
                ):
                    info.noninit_fields.append(name)
                    continue
                has_default = bool(
                    {"default", "default_factory"} & set(keywords)
                )
            else:
                has_default = statement.value is not None
            info.dataclass_fields.append(
                ParamInfo(name, required=not has_default)
            )
        elif (
            isinstance(statement, ast.FunctionDef)
            and statement.name == "__init__"
        ):
            info.explicit_init = _init_params(statement)
    return info


class _ClassIndex:
    """Resolve a name used in a module to its ClassDef across imports."""

    def __init__(self, project: Project) -> None:
        self._project = project
        self._classes: Dict[Tuple[str, str], ClassInfo] = {}
        self._imports: Dict[str, Dict[str, Tuple[str, str]]] = {}
        for source in project.files:
            table: Dict[str, Tuple[str, str]] = {}
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    self._classes[(source.module, node.name)] = _class_info(
                        source.module, node
                    )
                elif isinstance(node, ast.ImportFrom):
                    for module, symbol in import_targets(source, node):
                        if symbol:
                            local = node.names[
                                [a.name for a in node.names].index(symbol)
                            ].asname or symbol
                            table[local] = (module, symbol)
            self._imports[source.module] = table

    def resolve(self, module: str, name: str) -> Optional[ClassInfo]:
        for _ in range(_MAX_HOPS):
            info = self._classes.get((module, name))
            if info is not None:
                return info
            target = self._imports.get(module, {}).get(name)
            if target is None:
                return None
            module, name = target
        return None

    def merged_fields(self, info: ClassInfo) -> List[ParamInfo]:
        """Dataclass fields including inherited dataclass bases."""
        merged: Dict[str, ParamInfo] = {}
        for base_name in info.bases:
            base = self.resolve(info.module, base_name)
            if base is not None and base.is_dataclass:
                for param in self.merged_fields(base):
                    merged[param.name] = param
        for param in info.dataclass_fields:
            merged[param.name] = param
        return list(merged.values())

    def constructor_params(
        self, info: ClassInfo
    ) -> Optional[List[ParamInfo]]:
        if info.explicit_init is not None:
            return info.explicit_init
        if info.is_dataclass:
            return self.merged_fields(info)
        for base_name in info.bases:
            base = self.resolve(info.module, base_name)
            if base is not None:
                params = self.constructor_params(base)
                if params is not None:
                    return params
        return None


# ----------------------------------------------------------------------
# encode-hook key extraction
# ----------------------------------------------------------------------
def _dict_keys(node: ast.expr) -> Optional[Set[str]]:
    if not isinstance(node, ast.Dict):
        return None
    keys: Set[str] = set()
    for key in node.keys:
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        keys.add(key.value)
    return keys


def _encode_keys(
    source: SourceFile, expression: ast.expr
) -> Optional[Set[str]]:
    """Statically known to_config keys of an encode hook, if derivable."""
    if isinstance(expression, ast.Lambda):
        return _dict_keys(expression.body)
    if isinstance(expression, ast.Name):
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.FunctionDef)
                and node.name == expression.id
            ):
                returns = [
                    stmt
                    for stmt in ast.walk(node)
                    if isinstance(stmt, ast.Return)
                ]
                if len(returns) == 1 and returns[0].value is not None:
                    return _dict_keys(returns[0].value)
    return None


# ----------------------------------------------------------------------
# The check
# ----------------------------------------------------------------------
def _registry_names(source: SourceFile) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            target_fn = node.value.func
            is_registry = (
                isinstance(target_fn, ast.Name)
                and target_fn.id == "ComponentRegistry"
            ) or (
                isinstance(target_fn, ast.Attribute)
                and target_fn.attr == "ComponentRegistry"
            )
            if is_registry:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


def _check_register(
    project: Project,
    index: _ClassIndex,
    source: SourceFile,
    call: ast.Call,
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    if len(call.args) < 2:
        return diagnostics
    kind_node, cls_node = call.args[0], call.args[1]
    kind = (
        kind_node.value
        if isinstance(kind_node, ast.Constant)
        and isinstance(kind_node.value, str)
        else "<dynamic>"
    )
    keywords = {kw.arg: kw.value for kw in call.keywords if kw.arg}

    if "example" not in keywords:
        diagnostics.append(
            project.diagnostic(
                RULE, source, call,
                f"kind '{kind}' registered without an example= factory; "
                "the registry round-trip test suite cannot cover it",
            )
        )

    if not isinstance(cls_node, ast.Name):
        return diagnostics
    info = index.resolve(source.module, cls_node.id)
    if info is None:
        return diagnostics
    cls_label = f"{info.module}.{info.name}"

    if "encode" not in keywords:
        if not info.is_dataclass:
            diagnostics.append(
                project.diagnostic(
                    RULE, source, call,
                    f"kind '{kind}': {cls_label} is not a dataclass, so "
                    "the default dataclass encoder cannot "
                    "serialise it; register an explicit encode= hook",
                )
            )
        elif info.noninit_fields:
            fields = ", ".join(sorted(info.noninit_fields))
            diagnostics.append(
                project.diagnostic(
                    RULE, source, call,
                    f"kind '{kind}': {cls_label} has init=False "
                    f"field(s) [{fields}] that the default encoder emits but "
                    "__init__ cannot accept; from_config(to_config(x)) "
                    "would raise",
                )
            )

    if "decode" not in keywords:
        keys = (
            _encode_keys(source, keywords["encode"])
            if "encode" in keywords
            else None
        )
        if keys is not None:
            params = index.constructor_params(info)
            if params is not None:
                names = {param.name for param in params}
                unknown = sorted(keys - names)
                missing = sorted(
                    param.name
                    for param in params
                    if param.required and param.name not in keys
                )
                if unknown:
                    diagnostics.append(
                        project.diagnostic(
                            RULE, source, call,
                            f"kind '{kind}': to_config emits key(s) "
                            f"{unknown} that {cls_label}.__init__ does "
                            "not accept",
                        )
                    )
                if missing:
                    diagnostics.append(
                        project.diagnostic(
                            RULE, source, call,
                            f"kind '{kind}': to_config omits required "
                            f"constructor parameter(s) {missing} of "
                            f"{cls_label}; from_config(to_config(x)) "
                            "would raise",
                        )
                    )
    return diagnostics


def check(project: Project) -> List[Diagnostic]:
    index = _ClassIndex(project)
    diagnostics: List[Diagnostic] = []
    for source in project.files:
        registries = _registry_names(source)
        if not registries:
            continue
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "register"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in registries
            ):
                diagnostics.extend(
                    _check_register(project, index, source, node)
                )
    return diagnostics
