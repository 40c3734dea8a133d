"""Problem documents: the JSON input format of the command line tool.

A document declares the base field, the transcendentals available to
arc coefficients, one variety, named arcs on it, an optional morphism,
and default parameters.  Polynomial and series values are strings
in the small infix grammar of ``exprs``; rationals are always ``a/b``
strings or integer literals, never floats.  A JSON integer, like an
integer literal of the grammar, has at most ``MAX_LITERAL_DIGITS`` digits.

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

A morphism block has ``source`` (a variety block) and ``components``
(polynomial strings in the source variables); its target is the
document's variety.

Every object refuses a key it does not know: the document root, the
variety and morphism blocks, each arc and each generic spec.  A misspelt
key is an input error, never a silent default.

Every variable and transcendental is a symbol of the ``exprs`` grammar
(a letter or _, then letters, digits or _), so an expression can name
it.  ``t`` is reserved for the series variable, and a transcendental may
not be named ``u<digits>_<digits>``: those are the coefficients of
generic components, and a declared one would alias them.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Mapping

from .analysis import WINDOW
from .arcs import Arc, GenericComponent, make_arc
from .errors import InputError
from .exact import RATIONALS, BaseField
from .exprs import MAX_LITERAL_DIGITS, is_symbol, parse_polynomial, parse_series_expression
from .geometry import MorphismPresentation, VarietyPresentation
from .series import DEFAULT_PRECISION, PRECISION_CAP


@dataclass(frozen=True)
class Parameter:
    """A parameter, given by a command-line flag or ``params``.

    ``types`` are the JSON types a document may give; ``flag_type`` turns
    a flag's text into such a value.  ``floor`` and ``ceiling`` bound a
    numeric value, both inclusive.
    """

    name: str
    help: str
    types: tuple[type, ...]
    flag_type: Callable[[str], Any]
    floor: int | None = None
    ceiling: int | None = None
    choices: tuple[str, ...] | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def check(self, value):
        """``value`` itself once its type and bounds hold, else an ``InputError``."""
        if isinstance(value, bool) or not isinstance(value, self.types):
            kinds = " or ".join(kind.__name__ for kind in self.types)
            raise InputError(f"parameter {self.name!r} is {json.dumps(value)}, expected {kinds}")
        if self.choices is not None and value not in self.choices:
            expected = ", ".join(self.choices)
            raise InputError(f"parameter {self.name!r} is {value!r}, expected one of {expected}")
        if self.floor is not None and value < self.floor:
            raise InputError(f"parameter {self.name!r} is {value}, below its floor {self.floor}")
        if self.ceiling is not None and value > self.ceiling:
            raise InputError(f"parameter {self.name!r} is {value}, above its ceiling {self.ceiling}")
        return value


def _name_or_index(text: str):
    """A flag value of decimal digits is a 1-based index, as a JSON integer is."""
    return int(text) if text.isdecimal() else text


# The ceilings tie the numeric parameters to the default precision cap: no
# parameter may ask for more t-coefficients than refinement can reach.  A
# level n needs precision n + 1; mather-check needs n_max + 2, a divisorial arc 2q + 2.
PARAMETERS = {
    spec.name: spec
    for spec in (
        Parameter("n", "jet level", (int,), int, 0, PRECISION_CAP - 1),
        # A verdict compares the last WINDOW levels, so 0..n_max must hold them.
        Parameter("n_max", "stabilization horizon", (int,), int, WINDOW - 1, PRECISION_CAP - 2),
        Parameter("precision", "working precision in t", (int,), int, 1, PRECISION_CAP),
        Parameter("q", "contact order for divisorial arcs", (int,), int, 1, PRECISION_CAP // 2 - 1),
        Parameter(
            "divisor_var", "divisor coordinate (name or 1-based index)", (str, int), _name_or_index
        ),
        Parameter("arc", "arc name (default: first declared arc)", (str,), str),
        Parameter(
            "dim_source", "dimension source for jet codimension", (str,), str,
            choices=("betti", "declared"),
        ),
    )
}


@dataclass(frozen=True)
class ProblemDocument:
    field: BaseField
    variety: VarietyPresentation
    # name -> (space, components); read-only, since the catalog shares its
    # parsed documents with every caller in the process
    arc_specs: Mapping[str, tuple]
    morphism: MorphismPresentation | None
    params: dict[str, Any]

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
    # A JSON true or false is never an integer here, although Python's bool is an int.
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise InputError(f"{context}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _check_symbols(names, context):
    """Each name is a symbol of the ``exprs`` grammar, so an expression can name it."""
    for name in names:
        if not isinstance(name, str) or not is_symbol(name):
            raise InputError(
                f"{context}: {json.dumps(name)} is not a symbol (a letter or _, then letters, digits or _)"
            )


def _check_keys(block, known, context):
    """Refuse a key of ``block`` outside ``known``: a misspelt key is never ignored."""
    for key in block:
        if key not in known:
            raise InputError(f"{context}.{key}: unknown key (known: {', '.join(known)})")


# Prime fields kept for reuse; a fixed bound, since a document may name any prime.
PRIME_FIELDS_KEPT = 8


@functools.lru_cache(maxsize=PRIME_FIELDS_KEPT)
def _prime_field(p: int) -> BaseField:
    """GF(p), one field per prime: its primality test runs once, and no load builds a new one."""
    return BaseField(p)


def _parse_field(spec, context) -> BaseField:
    if spec == "rationals":
        return RATIONALS
    if isinstance(spec, dict) and set(spec) == {"prime"}:
        p = spec["prime"]
        if isinstance(p, bool) or not isinstance(p, int):
            raise InputError(f"{context}.prime: expected an integer")
        return _prime_field(p)
    raise InputError(f'{context}: expected "rationals" or {{"prime": p}}')


def _parse_polynomials(texts, field, variables, context) -> tuple:
    """The strings of the list ``texts`` parsed as polynomials in ``variables``."""
    polynomials = []
    for i, text in enumerate(texts):
        if not isinstance(text, str):
            raise InputError(f"{context}[{i}]: expected a string")
        polynomials.append(parse_polynomial(text, field, variables, f"{context}[{i}]"))
    return tuple(polynomials)


def _parse_variety(block, field, context) -> VarietyPresentation:
    _check_keys(block, ("name", "variables", "generators", "declared_dim"), context)
    variables = _expect(block, "variables", list, context, required=True)
    if not variables:
        raise InputError(f"{context}.variables: expected a nonempty list of names")
    _check_symbols(variables, f"{context}.variables")
    if "t" in variables:
        raise InputError(f"{context}.variables: 't' is reserved for the series variable")
    gen_strings = _expect(block, "generators", list, context, default=[])
    generators = _parse_polynomials(gen_strings, field, variables, f"{context}.generators")
    declared = _expect(block, "declared_dim", int, context)
    if declared is not None and not 0 <= declared <= len(variables):
        raise InputError(f"{context}.declared_dim: {declared} is not in 0..{len(variables)}")
    name = _expect(block, "name", str, context, default="")
    return VarietyPresentation(field, tuple(variables), generators, declared, name)


def _parse_component(value, index, field, transcendentals, context):
    if isinstance(value, str):
        return parse_series_expression(
            value, field, transcendentals, f"{context}[{index}]"
        )
    if isinstance(value, dict) and set(value) == {"generic"}:
        spec = value["generic"]
        start = 0
        if isinstance(spec, dict):
            _check_keys(spec, ("start",), f"{context}[{index}].generic")
            start = _expect(spec, "start", int, f"{context}[{index}].generic", default=0)
        elif spec is not None:
            raise InputError(f"{context}[{index}].generic: expected an object")
        if not 0 <= start <= PRECISION_CAP - 1:  # the ceiling of a level n
            raise InputError(
                f"{context}[{index}].generic.start: {start} is not in 0..{PRECISION_CAP - 1}"
            )
        return GenericComponent(index + 1, start)
    raise InputError(f"{context}[{index}]: expected an expression string or a generic spec")


def load_document(path: str) -> ProblemDocument:
    def parse_int(text):
        # The literal bound of the grammar; Python refuses to read more than 4300 digits.
        digits = len(text.lstrip("-"))
        if digits > MAX_LITERAL_DIGITS:
            raise InputError(f"{path}: integer of {digits} digits exceeds the maximum {MAX_LITERAL_DIGITS}")
        return int(text)

    def unique_keys(pairs):
        # A repeated key would otherwise keep its last value in silence.
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise InputError(f"{path}: key {json.dumps(key)} appears twice in one object")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, parse_int=parse_int, object_pairs_hook=unique_keys)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}") from err
    except RecursionError as err:
        raise InputError(f"{path}: JSON nested too deeply to read") from err
    return parse_document(raw)


def parse_document(raw: Any) -> ProblemDocument:
    if not isinstance(raw, dict):
        raise InputError("document root must be a JSON object")
    _check_keys(raw, ("field", "transcendentals", "variety", "morphism", "arcs", "params"), "document")
    field = _parse_field(raw.get("field", "rationals"), "field")
    transcendentals = _expect(raw, "transcendentals", list, "document", default=[])
    _check_symbols(transcendentals, "transcendentals")
    for name in transcendentals:
        if name == "t":
            raise InputError("transcendentals: 't' is reserved for the series variable")
        if GenericComponent.COEFFICIENT_NAME.fullmatch(name):
            raise InputError(
                f"transcendentals: {name!r} is reserved for the coefficients of generic components"
            )
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
        _check_keys(block, ("name", "source", "components"), "morphism")
        source = _parse_variety(
            _expect(block, "source", dict, "morphism", required=True), field, "morphism.source"
        )
        comp_strings = _expect(block, "components", list, "morphism", required=True)
        components = _parse_polynomials(comp_strings, field, source.variables, "morphism.components")
        morphism = MorphismPresentation(
            source, variety, components, name=_expect(block, "name", str, "morphism", default="")
        )

    arc_specs: dict[str, tuple] = {}
    arcs_block = _expect(raw, "arcs", dict, "document", default={})
    for name, block in arcs_block.items():
        context = f"arcs.{name}"
        if not isinstance(block, dict):
            raise InputError(f"{context}: expected an object")
        _check_keys(block, ("on", "components"), context)
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
    _check_keys(params, PARAMETERS, "params")

    return ProblemDocument(
        field=field,
        variety=variety,
        arc_specs=MappingProxyType(arc_specs),
        morphism=morphism,
        params=dict(params),
    )
