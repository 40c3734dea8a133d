"""Arcs on a variety with exact precision semantics.

An arc stores one component per ambient variable.  Components come in
three flavors:

* exact series expressions (re-expandable to any precision),
* generic-to-precision components, written as a tail of fresh
  transcendentals (one per coefficient from a fixed starting order), and
* raw truncated series, capped at the precision they were given.

Arc validity (every ideal generator vanishes modulo t^P) is checked at
construction and again after every precision raise.  Raising precision
returns a new arc; values never mutate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    InputError,
    MorphismInvalidOnArc,
    NotOnVariety,
    PrecisionTooLow,
)
from .exact import FieldElement, echelon_rank_profile, jacobian_row, transcendence_degree
from .geometry import MorphismPresentation, VarietyPresentation
from .series import (
    DEFAULT_PRECISION,
    SeriesExpression,
    TruncatedSeries,
    OrderValue,
    evaluate_poly_at_series,
)


@dataclass(frozen=True)
class GenericComponent:
    """Sum of fresh transcendentals u_{i,p} t^p for p >= start.

    ``index`` is the 1-based position of the component; the coefficient
    names u{index}_{p} only depend on (index, p), so re-expanding at a
    higher precision extends the tail without renaming anything.
    """

    index: int
    start: int = 0

    def coefficient_name(self, p: int) -> str:
        return f"u{self.index}_{p}"

    def expand(self, field, precision: int) -> TruncatedSeries:
        coeffs = []
        for p in range(precision):
            if p < self.start:
                coeffs.append(FieldElement.from_scalar(field, 0))
            else:
                coeffs.append(FieldElement.variable(field, self.coefficient_name(p)))
        return TruncatedSeries(field, coeffs)


@dataclass(frozen=True)
class MappedComponent:
    """Component of an image arc: a polynomial of a source arc's components.

    Expansion refines the source arc to the requested precision and
    evaluates the polynomial there, so image arcs stay refinable exactly
    when their source is.
    """

    polynomial: object  # SparsePolynomial in the source variables
    source: "Arc"

    def expand(self, field, precision: int) -> TruncatedSeries:
        src = self.source.with_precision(max(precision, self.source.precision))
        env = dict(zip(src.variety.variables, src.expansions))
        return evaluate_poly_at_series(self.polynomial, env, precision).truncate(precision)


ArcComponent = SeriesExpression | GenericComponent | MappedComponent | TruncatedSeries


@dataclass(frozen=True)
class JetPoint:
    """Truncation of an arc: coordinates x_{i,p} for p <= level, component-major."""

    level: int
    coordinates: tuple[FieldElement, ...]
    residue_dim: int
    char_p_jacobian: bool

    def coordinate(self, component: int, p: int) -> FieldElement:
        return self.coordinates[component * (self.level + 1) + p]


class Arc:
    """A validated formal curve on a variety, known modulo t^precision."""

    __slots__ = ("variety", "components", "precision", "expansions")

    def __init__(
        self,
        variety: VarietyPresentation,
        components: Sequence[ArcComponent],
        precision: int,
        _expansions: tuple[TruncatedSeries, ...] | None = None,
    ):
        if len(components) != len(variety.variables):
            raise InputError(
                f"arc needs {len(variety.variables)} components, got {len(components)}"
            )
        if precision < 1:
            raise InputError("arc precision must be >= 1")
        self.variety = variety
        self.components = tuple(components)
        self.precision = precision
        if _expansions is None:
            _expansions = tuple(self._expand_component(c) for c in self.components)
        self.expansions = _expansions
        self._validate()

    def _expand_component(self, comp: ArcComponent) -> TruncatedSeries:
        field = self.variety.base
        if isinstance(comp, SeriesExpression):
            return comp.expand(self.precision)
        if isinstance(comp, (GenericComponent, MappedComponent)):
            return comp.expand(field, self.precision)
        if comp.precision < self.precision:
            raise PrecisionTooLow(self.precision - 1, comp.precision)
        return comp.truncate(self.precision)

    def _validate(self):
        env = dict(zip(self.variety.variables, self.expansions))
        for j, g in enumerate(self.variety.generators):
            value = evaluate_poly_at_series(g, env, self.precision)
            ord_g = value.order()
            if ord_g.is_finite:
                raise NotOnVariety(j, ord_g.value)

    @property
    def refinable(self) -> bool:
        """True when every component can be re-expanded at a higher precision."""
        for c in self.components:
            if isinstance(c, TruncatedSeries):
                return False
            if isinstance(c, MappedComponent) and not c.source.refinable:
                return False
        return True

    def with_precision(self, precision: int) -> "Arc":
        """Same arc, re-expanded (and re-validated) at the given precision."""
        if precision == self.precision:
            return self
        if precision < self.precision:
            return Arc(
                self.variety,
                self.components,
                precision,
                tuple(e.truncate(precision) for e in self.expansions),
            )
        if not self.refinable:
            raise PrecisionTooLow(precision - 1, self.precision)
        return Arc(self.variety, self.components, precision)

    def component_series(self) -> tuple[TruncatedSeries, ...]:
        return self.expansions

    def transcendentals(self) -> list[str]:
        """All transcendental names appearing in the stored coefficients."""
        names: set[str] = set()
        for series in self.expansions:
            for coeff in series.coeffs:
                names.update(coeff.variables())
        return sorted(names)

    def evaluate(self, poly) -> TruncatedSeries:
        """Evaluate an ambient polynomial along the arc."""
        env = dict(zip(self.variety.variables, self.expansions))
        return evaluate_poly_at_series(poly, env, self.precision)

    def ord_ideal(self, generators) -> OrderValue:
        """Order of an ideal along the arc: min over the given generators.

        The truncated ring is a valuation ring, so the minimum over any
        generating set equals the order of the ideal itself.
        """
        result = OrderValue.at_least(self.precision)
        for g in generators:
            result = result.min(self.evaluate(g).order())
        return result

    def truncate(self, n: int) -> JetPoint:
        """Jet of this arc at level n, with the residue field dimension."""
        if n >= self.precision:
            raise PrecisionTooLow(n, self.precision)
        coords = []
        for series in self.expansions:
            coords.extend(series.coeffs[: n + 1])
        trdeg = transcendence_degree(coords, self.transcendentals() or None)
        return JetPoint(n, tuple(coords), trdeg.value, trdeg.char_p_jacobian)

    def residue_dimension_profile(self, n_max: int) -> tuple[list[int], bool]:
        """Residue dimensions of all truncations up to n_max, in one pass.

        Same values as ``truncate(n).residue_dim`` level by level, but the
        Jacobian-criterion elimination is shared across levels.  The flag
        mirrors the characteristic-p caveat of ``transcendence_degree``.
        """
        if n_max >= self.precision:
            raise PrecisionTooLow(n_max, self.precision)
        field = self.variety.base
        names = self.transcendentals()
        blocks = []
        any_nonconstant = False
        for n in range(n_max + 1):
            rows = []
            for series in self.expansions:
                g = series.coeffs[n]
                if g.is_constant():
                    continue
                any_nonconstant = True
                rows.append(jacobian_row(g, names))
            blocks.append(rows)
        ranks = echelon_rank_profile(blocks, field)
        return ranks, any_nonconstant and field.characteristic > 0

    def center(self) -> tuple[FieldElement, ...]:
        """Coordinates of the arc at t = 0."""
        return tuple(series.coeffs[0] for series in self.expansions)

    def __repr__(self):
        comps = ", ".join(str(c) for c in self.expansions)
        return f"Arc({self.variety.name or 'X'}; {comps})"


def make_arc(
    X: VarietyPresentation,
    components: Sequence[ArcComponent],
    precision: int = DEFAULT_PRECISION,
) -> Arc:
    return Arc(X, components, precision)


def generic_arc(
    X: VarietyPresentation,
    start_orders: Sequence[int] | None = None,
    precision: int = DEFAULT_PRECISION,
) -> Arc:
    """Generic-to-precision arc: one fresh transcendental per coefficient.

    ``start_orders[i]`` is the first power of t carried by component i.
    Only valid on varieties whose ideal vanishes on such a tail (affine
    space being the main use); validation runs as usual.
    """
    starts = list(start_orders) if start_orders is not None else [0] * len(X.variables)
    comps = [GenericComponent(i + 1, s) for i, s in enumerate(starts)]
    return Arc(X, comps, precision)


def push_arc(f: MorphismPresentation, beta: Arc) -> Arc:
    """Image arc f(beta) on the target variety.

    The image components are mapped components bound to beta, so the
    image can be re-expanded whenever beta can.  Target generators are
    checked modulo t^P; a failure is reported as an invalid morphism.
    """
    if beta.variety is not f.source and beta.variety != f.source:
        raise InputError("arc does not live on the source of the morphism")
    images = [MappedComponent(c, beta) for c in f.components]
    try:
        return Arc(f.target, images, beta.precision)
    except NotOnVariety as err:
        raise MorphismInvalidOnArc(err.generator_index, err.order) from err


def validate_morphism_on_arc(f: MorphismPresentation, beta: Arc) -> None:
    """Check every target generator vanishes mod t^P on the image of beta."""
    field = f.source.base
    env = dict(zip(f.source.variables, beta.expansions))
    image_series = [
        evaluate_poly_at_series(c, env, beta.precision) for c in f.components
    ]
    target_env = dict(zip(f.target.variables, image_series))
    for j, g in enumerate(f.target.generators):
        value = evaluate_poly_at_series(g, target_env, beta.precision)
        ord_g = value.order()
        if ord_g.is_finite:
            raise MorphismInvalidOnArc(j, ord_g.value)
