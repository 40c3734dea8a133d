"""Jet-scheme equations and the jet Jacobian corank oracle.

The level-n jet scheme of a presented variety is cut out, inside the
affine space with one coordinate per (ambient variable, t-power <= n),
by the t-coefficients of each ideal generator evaluated on the generic
truncated curve x_i(t) = sum_p x_i[p] t^p.  That curve is one list of
coefficients per ambient variable, known modulo t^(n+1): the polynomial
jet variables.  The generator's terms are expanded on it with the
series product kernel, ``truncated_product``, each power of a curve
component computed once.  Polynomials reduce their own coefficients mod
p, so the substitution works uniformly in every characteristic.

``jet_jacobian_corank`` differentiates those equations directly and
evaluates at a supplied point; it is the brute-force route to the fiber
dimension of the differentials of the jet scheme, kept fully independent
of the diagonalization machinery so the two can be played against each
other.  Several levels share one set of equations, built, checked and
differentiated at the top level: the level-k equations are the t^p ones
with p <= k, and the t^p equation uses no jet variable of t-power above
p, so each level ranks its own rows of that one Jacobian whole.

The oracle builds those equations modulo (Z)^2, where Z is the set of
jet variables whose coordinate at the point is zero (the coordinate's
truthiness: a raw scalar, a polynomial with no terms, a field element
with a zero numerator).  They are expanded on the generic curve by
``jet_ideal``, as every jet equation is, except that every series
product drops its monomials of total degree >= 2 in Z, powers
included.  That is exact: at the point, a monomial in (Z)^2 and each of
its first partials keep a zero factor, so the values, the Jacobian and
its rank are those of the full equations, in every characteristic.  The
jets of arcs through the singular locus have mostly zero coordinates, so
most terms of the full equations are never formed.  ``jet_ideal`` takes
Z; the ``jet-ideal`` command gives it none and prints the full
equations.  Each
equation is differentiated term by term, once: one pass over its terms
gives its value at the point and the value there of every nonzero
partial (``SparsePolynomial.value_and_gradient``), with the powers of
the point's coordinates computed once in one ``PowerTable`` shared by
all equations.
The value decides ``PointNotOnJetScheme``.  Each point is evaluated,
differentiated and ranked on the lowest ring that holds it: raw scalars
(ints or ``Fraction``s) at a k-rational point, as in a jet of a
k-rational arc; ``SparsePolynomial``s when every field element among the
coordinates has a constant denominator, as in a jet of a generic or
transcendental-coefficient arc; ``FieldElement``s only when some
coordinate has a non-constant denominator.  Raw scalars beside
polynomials or field elements are lifted to their ring.  On raw scalars
each value becomes a constant polynomial, so over GF(p) the evaluation
runs over Z and that step reduces mod p, which is exact because
evaluation commutes with reduction.  ``matrix_rank`` ranks the rows of
polynomials as they are, and clears the denominators of rows of field
elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import AbstractSet, Callable, Sequence

from .errors import InputError, PointNotOnJetScheme
from .exact import BaseField, FieldElement, PowerTable, SparsePolynomial, as_scalar, matrix_rank
from .geometry import VarietyPresentation
from .series import truncated_product


def jet_variable(var: str, p: int) -> str:
    """Coordinate name for the t^p coefficient of an ambient variable."""
    return f"{var}[{p}]"


@dataclass(frozen=True)
class JetIdeal:
    """Equations of the level-n jet scheme.

    ``generators[j][p]`` is the coefficient of t^p in the j-th ideal
    generator evaluated on the generic truncated curve; substituting the
    coefficients of any valid arc kills all of them.  The jet oracle's
    are reduced modulo the square of its point's zero coordinates.
    """

    level: int
    jet_variables: tuple[str, ...]  # component-major: x[0..n], y[0..n], ...
    generators: tuple[tuple[SparsePolynomial, ...], ...]


def jet_levels(levels: Sequence[int]) -> list[int]:
    """The requested jet levels as a list, or InputError: nonempty, each an int >= 0 (not a bool)."""
    wanted = list(levels)
    if not wanted:
        raise InputError("no jet level requested")
    for n in wanted:
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise InputError(f"jet level must be an int >= 0, got {n!r}")
    return wanted


def jet_ideal(X: VarietyPresentation, n: int, square_zero: AbstractSet[str] = frozenset()) -> JetIdeal:
    """Hasse-Schmidt equations of the level-n jet scheme of X, modulo (Z)^2.

    Z is the ideal of the jet variables in ``square_zero``: every series
    product of the expansion drops its monomials of total degree >= 2 in
    them, powers included.  With none, the default, these are the jet
    equations themselves.
    """
    jet_levels([n])
    field = X.base
    zero = SparsePolynomial.zero(field)

    def product(a, b):
        return truncated_product(a, b, n + 1, zero, square_zero)

    curve = {v: [SparsePolynomial.variable(field, jet_variable(v, p)) for p in range(n + 1)] for v in X.variables}
    powers = PowerTable(curve, product)
    gens = []
    for g in X.generators:
        total = [zero] * (n + 1)
        for mono, coeff in g.terms.items():
            term = [SparsePolynomial.constant(field, coeff)] + [zero] * n
            for pair in mono:
                term = product(term, powers[pair])
            total = [a + b for a, b in zip(total, term)]
        gens.append(tuple(total))
    return JetIdeal(n, _jet_variables(X, n), tuple(gens))


def _jet_variables(X: VarietyPresentation, n: int) -> tuple[str, ...]:
    return tuple(jet_variable(v, p) for v in X.variables for p in range(n + 1))


def _evaluation_ring(point: Sequence, field: BaseField) -> tuple[list, Callable, Callable | None]:
    """The point on the lowest ring that holds it: ``(coordinates, const, to_entry)``.

    ``const`` lifts a scalar coefficient into the ring.  ``to_entry`` turns
    a value on raw scalars into a constant polynomial, the matrix entry; it
    is None on the other two rings, whose values are entries.
    """
    scalars = [as_scalar(c) for c in point]
    constant = partial(SparsePolynomial.constant, field)
    if None not in scalars:
        # The coefficients are canonical scalars, which coerce keeps as they are.
        return scalars, field.coerce, constant
    polys = [c.as_polynomial() if isinstance(c, FieldElement) else constant(c) for c in point]
    if None not in polys:
        return polys, constant, None
    lift = partial(FieldElement.from_scalar, field)
    return [c if isinstance(c, FieldElement) else lift(c) for c in point], lift, None


def jet_jacobian_corank(
    X: VarietyPresentation, levels: Sequence[int] | int, point: Sequence
) -> list[int] | int:
    """Coranks of the jet-scheme Jacobian at the truncations of a jet.

    ``point`` is a jet at level top = max(levels) and must satisfy every
    level-top jet equation exactly.  Level k gets (k+1)N - rank of the
    rows of t-power <= k, the fiber dimension of the differentials of the
    level-k jet scheme at the truncated point.  One corank per level, in
    the order given; a bare level n returns its corank alone.  Levels that
    are empty or not ints >= 0, and a point whose length is not
    (top+1)N, raise InputError.
    """
    wanted = jet_levels([levels] if isinstance(levels, int) else levels)
    top = max(wanted)
    width = len(X.variables)
    if len(point) != (top + 1) * width:
        raise InputError(f"a level-{top} jet point needs {(top + 1) * width} coordinates, got {len(point)}")
    field = X.base
    jet_variables = _jet_variables(X, top)

    coordinates, const, to_entry = _evaluation_ring(point, field)
    zero = const(0) if to_entry is None else to_entry(0)
    # The jet equations modulo the square of the point's zero coordinates.
    ideal = jet_ideal(X, top, frozenset(v for v, c in zip(jet_variables, coordinates) if not c))
    # One table of coordinate powers, shared by every equation.
    powers = PowerTable(dict(zip(jet_variables, coordinates)))

    column = {v: k for k, v in enumerate(jet_variables)}
    # jacobian[j][p]: the gradient at the point of the t^p equation of generator j.
    jacobian = []
    for j, row in enumerate(ideal.generators):
        gradients = []
        for p, equation in enumerate(row):
            value, partials = equation.value_and_gradient(powers, const)
            if to_entry is not None:
                value, partials = to_entry(value), {v: to_entry(slope) for v, slope in partials.items()}
            if value:
                raise PointNotOnJetScheme(j, p)
            entries = [zero] * len(column)
            for v, slope in partials.items():
                entries[column[v]] = slope
            gradients.append(entries)
        jacobian.append(gradients)

    # The level-k rows are zero past the columns of t-power <= k.
    coranks = [
        (k + 1) * width - matrix_rank([gradient for gradients in jacobian for gradient in gradients[: k + 1]])
        for k in wanted
    ]
    return coranks[0] if isinstance(levels, int) else coranks
