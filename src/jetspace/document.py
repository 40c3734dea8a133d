"""Problem documents: the JSON input format of the command line tool.

A document declares the base field, the transcendentals available to
arc coefficients, one variety, named arcs on it, an optional morphism,
and default task parameters.  Polynomial and series values are strings
in the small infix grammar of ``exprs``; rationals are always ``a/b``
strings or integer literals, never floats.

Example::

    {
      "field": "rationals",
      "transcendentals": ["a"],
      "variety": {
        "name": "cusp",
        "variables": ["x", "y"],
        "generators": ["y^2 - x^3"],
        "declared_dim": 1
      },
      "arcs": {
        "main": {"components": ["t^2", "t^3"]},
        "fat": {"components": [{"generic": {"start": 2}}, {"generic": {"start": 3}}]}
      },
      "params": {"n": 3}
    }

A morphism block has ``source`` (a variety block), optional ``target``
(defaults to the document's variety), and ``components`` (polynomial
strings in the source variables).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from .arcs import Arc, GenericComponent, make_arc
from .errors import InputError
from .exact import BaseField
from .exprs import parse_polynomial, parse_series_expression
from .geometry import MorphismPresentation, VarietyPresentation
from .series import DEFAULT_PRECISION

_PARAM_KEYS = ("n", "n_max", "window", "precision", "q", "divisor_var", "arc", "dim_source")


@dataclass(frozen=True)
class ProblemDocument:
    field: BaseField
    transcendentals: tuple[str, ...]
    variety: VarietyPresentation
    arc_specs: dict[str, tuple]  # name -> (space, components)
    morphism: MorphismPresentation | None
    params: dict[str, Any]
    tasks: tuple[dict[str, Any], ...]

    def build_arc(self, name: str, precision: int = DEFAULT_PRECISION) -> Arc:
        if name not in self.arc_specs:
            raise InputError(
                f"unknown arc {name!r}; document defines: {', '.join(self.arc_specs) or 'none'}"
            )
        space, components = self.arc_specs[name]
        return make_arc(space, components, precision)

    def default_arc_name(self) -> str:
        if not self.arc_specs:
            raise InputError("document defines no arcs")
        return next(iter(self.arc_specs))


def _expect(mapping, key, kind, context, default=None, required=False):
    if key not in mapping:
        if required:
            raise InputError(f"{context}: missing required key {key!r}")
        return default
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise InputError(f"{context}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_field(spec, context) -> BaseField:
    if spec == "rationals":
        return BaseField()
    if isinstance(spec, dict) and set(spec) == {"prime"}:
        p = spec["prime"]
        if not isinstance(p, int):
            raise InputError(f"{context}.prime: expected an integer")
        return BaseField(p)
    raise InputError(f'{context}: expected "rationals" or {{"prime": p}}')


def _parse_variety(block, field, context) -> VarietyPresentation:
    if not isinstance(block, dict):
        raise InputError(f"{context}: expected an object")
    variables = _expect(block, "variables", list, context, required=True)
    if not variables or not all(isinstance(v, str) for v in variables):
        raise InputError(f"{context}.variables: expected a nonempty list of names")
    if "t" in variables:
        raise InputError(f"{context}.variables: 't' is reserved for the series variable")
    gen_strings = _expect(block, "generators", list, context, default=[])
    generators = []
    for i, text in enumerate(gen_strings):
        if not isinstance(text, str):
            raise InputError(f"{context}.generators[{i}]: expected a string")
        generators.append(
            parse_polynomial(text, field, variables, f"{context}.generators[{i}]")
        )
    declared = _expect(block, "declared_dim", int, context)
    name = _expect(block, "name", str, context, default="")
    return VarietyPresentation(field, tuple(variables), tuple(generators), declared, name)


def _parse_component(value, index, field, transcendentals, context):
    if isinstance(value, str):
        return parse_series_expression(
            value, field, transcendentals, f"{context}[{index}]"
        )
    if isinstance(value, dict) and set(value) == {"generic"}:
        spec = value["generic"]
        start = 0
        if isinstance(spec, dict):
            start = spec.get("start", 0)
        elif spec is not None:
            raise InputError(f"{context}[{index}].generic: expected an object")
        if not isinstance(start, int) or start < 0:
            raise InputError(f"{context}[{index}].generic.start: expected a natural number")
        return GenericComponent(index + 1, start)
    raise InputError(f"{context}[{index}]: expected an expression string or a generic spec")


def load_document(path: str) -> ProblemDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}") from err
    return parse_document(raw)


def parse_document(raw: Any) -> ProblemDocument:
    if not isinstance(raw, dict):
        raise InputError("document root must be a JSON object")
    field = _parse_field(raw.get("field", "rationals"), "field")
    transcendentals = _expect(raw, "transcendentals", list, "document", default=[])
    for name in transcendentals:
        if not isinstance(name, str) or not name:
            raise InputError("transcendentals: expected a list of names")
    variety = _parse_variety(
        _expect(raw, "variety", dict, "document", required=True), field, "variety"
    )
    overlap = set(transcendentals) & set(variety.variables)
    if overlap:
        raise InputError(
            "names cannot be both transcendentals and ambient variables: " + ", ".join(sorted(overlap))
        )

    morphism = None
    if "morphism" in raw:
        block = _expect(raw, "morphism", dict, "document", required=True)
        source = _parse_variety(
            _expect(block, "source", dict, "morphism", required=True), field, "morphism.source"
        )
        target = variety
        if "target" in block:
            target = _parse_variety(block["target"], field, "morphism.target")
        comp_strings = _expect(block, "components", list, "morphism", required=True)
        components = []
        for i, text in enumerate(comp_strings):
            if not isinstance(text, str):
                raise InputError(f"morphism.components[{i}]: expected a string")
            components.append(
                parse_polynomial(
                    text, field, source.variables, f"morphism.components[{i}]"
                )
            )
        morphism = MorphismPresentation(
            source, target, tuple(components), name=_expect(block, "name", str, "morphism", default="")
        )

    arc_specs: dict[str, tuple] = {}
    arcs_block = _expect(raw, "arcs", dict, "document", default={})
    for name, block in arcs_block.items():
        context = f"arcs.{name}"
        where = _expect(block, "on", str, context, default="variety")
        if where == "variety":
            space = variety
        elif where == "source":
            if morphism is None:
                raise InputError(f"{context}.on: 'source' needs a morphism block")
            space = morphism.source
        else:
            raise InputError(f"{context}.on: expected 'variety' or 'source'")
        comps = _expect(block, "components", list, context, required=True)
        if len(comps) != len(space.variables):
            raise InputError(
                f"{context}: needs {len(space.variables)} components, got {len(comps)}"
            )
        arc_specs[name] = (
            space,
            tuple(
                _parse_component(c, i, field, transcendentals, f"{context}.components")
                for i, c in enumerate(comps)
            ),
        )

    params = _expect(raw, "params", dict, "document", default={})
    for key in params:
        if key not in _PARAM_KEYS:
            raise InputError(f"params.{key}: unknown parameter (known: {', '.join(_PARAM_KEYS)})")

    tasks = _expect(raw, "tasks", list, "document", default=[])
    for i, task in enumerate(tasks):
        if not isinstance(task, dict) or "command" not in task:
            raise InputError(f"tasks[{i}]: expected an object with a 'command' key")

    return ProblemDocument(
        field=field,
        transcendentals=tuple(transcendentals),
        variety=variety,
        arc_specs=arc_specs,
        morphism=morphism,
        params=dict(params),
        tasks=tuple(tasks),
    )
