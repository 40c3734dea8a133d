"""Arcs on a variety with exact precision semantics.

An arc stores one component per ambient variable.  A component is one
of three kinds, each re-expandable at any precision:

* an exact series expression,
* a generic component, written as a tail of fresh transcendentals (one
  per coefficient from a fixed starting order), or
* a mapped component of an image arc: a polynomial of a source arc's
  components.

Any other value is an input error, so every arc can be refined.

An arc is k-rational when each component is a series expression with
base-field constant coefficients or a mapped component of a k-rational
source.  Such an arc expands, validates, refines and pulls back on
``TruncatedSeries`` of raw base-field scalars (ints and ``Fraction``s
over Q, ints in ``range(p)`` over GF(p)); its coefficients have no
variables, so they add no transcendental and no residue row, and its
center and jets are scalars.  Every other arc stores field-element
expansions: a mixed arc lifts its scalar components.  ``Arc.evaluate``,
the one evaluation of a polynomial along an arc, owns the ring of its
constants: raw scalars on a k-rational arc, field elements otherwise.

Residue dimensions are read from the coefficients alone:
``residue_dimension_profile`` hands ``transcendence_degree`` one block of
coefficients per level, and that routine counts distinct variables when
every nonconstant coefficient is a scaled variable (generic components,
so every BTR or Mather source arc on a blow-up chart, and expressions
such as a + b*t) and runs one exact elimination otherwise.

Arc validity (every ideal generator vanishes modulo t^P) is checked at
construction and again after every precision raise.  Refinement only
raises precision and returns a new arc; values never mutate.  A level-n
jet needs precision n + 1, so ``with_precision(n + 1)`` is the one way
to know an arc through level n: it returns the arc itself when its
precision is already above n.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    InputError,
    MorphismInvalidOnArc,
    NotOnVariety,
    PrecisionTooLow,
)
from .exact import FieldElement, TranscendenceDegree, transcendence_degree
from .geometry import MorphismPresentation, VarietyPresentation
from .jets import jet_levels
from .series import DEFAULT_PRECISION, OrderValue, SeriesExpression, TruncatedSeries


@dataclass(frozen=True)
class GenericComponent:
    """Sum of fresh transcendentals u_{i,p} t^p for p >= start.

    ``index`` is the 1-based position of the component; the coefficient
    names u{index}_{p} only depend on (index, p), so re-expanding at a
    higher precision extends the tail without renaming anything.
    """

    index: int
    start: int = 0

    def __post_init__(self):
        for name, value, floor in (("index", self.index, 1), ("start", self.start, 0)):
            if isinstance(value, bool) or not isinstance(value, int) or value < floor:
                raise InputError(f"generic component {name} must be an int >= {floor}, got {value!r}")

    # Every name ``coefficient_name`` gives, and no other.
    COEFFICIENT_NAME = re.compile(r"u[0-9]+_[0-9]+")

    def coefficient_name(self, p: int) -> str:
        return f"u{self.index}_{p}"

    def expand(self, field, precision: int) -> TruncatedSeries:
        coeffs = []
        for p in range(precision):
            if p < self.start:
                coeffs.append(field.fe_zero)
            else:
                coeffs.append(FieldElement.variable(field, self.coefficient_name(p)))
        return TruncatedSeries(field, coeffs)


@dataclass(frozen=True)
class MappedComponent:
    """Component of an image arc: a polynomial of a source arc's components.

    ``expand`` evaluates the polynomial on the source arc refined to the
    requested precision, which ``Arc`` does once per distinct source.
    """

    polynomial: object  # SparsePolynomial in the source variables
    source: "Arc"

    def expand(self, refined: "Arc", precision: int) -> TruncatedSeries:
        """The polynomial on ``refined``, the source arc known to at least ``precision``."""
        return refined.evaluate(self.polynomial).truncate(precision)


ArcComponent = SeriesExpression | GenericComponent | MappedComponent


@dataclass(frozen=True)
class JetPoint:
    """Truncation of an arc: coordinates x_{i,p} for p <= level, component-major.

    The coordinates are raw scalars for a k-rational arc, field elements
    otherwise.
    """

    level: int
    coordinates: tuple


class Arc:
    """A validated formal curve on a variety, known modulo t^precision.

    ``k_rational`` is true when the expansions are series of raw scalars.
    """

    __slots__ = ("variety", "components", "precision", "expansions", "k_rational")

    def __init__(
        self,
        variety: VarietyPresentation,
        components: Sequence[ArcComponent],
        precision: int,
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
        refined = {}  # each distinct source arc is refined once
        expansions = []
        for c in self.components:
            if isinstance(c, SeriesExpression):
                expansions.append(c.expand(precision))
            elif isinstance(c, GenericComponent):
                expansions.append(c.expand(variety.base, precision))
            elif isinstance(c, MappedComponent):
                if c.source not in refined:
                    refined[c.source] = c.source.with_precision(precision)
                expansions.append(c.expand(refined[c.source], precision))
            else:
                raise InputError(
                    "an arc component is a SeriesExpression, GenericComponent or "
                    f"MappedComponent, not {type(c).__name__}"
                )
        scalar = [series.is_scalar for series in expansions]
        self.k_rational = all(scalar)
        if not self.k_rational and any(scalar):
            expansions = [s.lifted() if k else s for s, k in zip(expansions, scalar)]
        self.expansions = tuple(expansions)
        self._validate()

    def _validate(self):
        for j, g in enumerate(self.variety.generators):
            ord_g = self.evaluate(g).order()
            if ord_g.is_finite:
                raise NotOnVariety(j, ord_g.value)

    def with_precision(self, precision: int) -> "Arc":
        """This arc known to at least the given precision.

        A higher precision re-expands and re-validates the components; any
        other returns the arc itself.
        """
        if precision <= self.precision:
            return self
        return Arc(self.variety, self.components, precision)

    def transcendentals(self) -> list[str]:
        """All transcendental names appearing in the stored coefficients."""
        if self.k_rational:
            return []
        names: set[str] = set()
        for series in self.expansions:
            for coeff in series.coeffs:
                names.update(coeff.variables())
        return sorted(names)

    def evaluate(self, poly) -> TruncatedSeries:
        """An ambient polynomial along the arc, its coefficients lifted to the
        ring of the expansions: raw scalars when k-rational, else field elements."""
        field, precision, scalar = poly.field, self.precision, self.k_rational

        def const(c):
            return TruncatedSeries.from_coefficients(
                field, [c if scalar else FieldElement.from_scalar(field, c)], precision
            )

        return poly.evaluate(dict(zip(self.variety.variables, self.expansions)), const)

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
        """Jet of this arc at level n."""
        jet_levels([n])
        if n >= self.precision:
            raise PrecisionTooLow(n, self.precision)
        coords = []
        for series in self.expansions:
            coords.extend(series.coeffs[: n + 1])
        return JetPoint(n, tuple(coords))

    def residue_dimension_profile(self, n_max: int) -> TranscendenceDegree:
        """Residue dimensions dim(alpha_n) of the truncations at levels 0..n_max.

        dim(alpha_n) is the transcendence degree of the field generated by
        the coefficients of t^0..t^n, decided by ``transcendence_degree``
        from one block of coefficients per level, flag included.
        """
        jet_levels([n_max])
        if n_max >= self.precision:
            raise PrecisionTooLow(n_max, self.precision)
        blocks = [[series.coeffs[n] for series in self.expansions] for n in range(n_max + 1)]
        return transcendence_degree(blocks, self.variety.base)

    def center(self) -> tuple:
        """Coordinates of the arc at t = 0: scalars when the arc is k-rational."""
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
    image re-expands through beta.  Target generators are
    checked modulo t^P; a failure is reported as an invalid morphism.
    """
    if beta.variety is not f.source and beta.variety != f.source:
        raise InputError("arc does not live on the source of the morphism")
    images = [MappedComponent(c, beta) for c in f.components]
    try:
        return Arc(f.target, images, beta.precision)
    except NotOnVariety as err:
        raise MorphismInvalidOnArc(err.generator_index, err.order) from err

