"""Jet-scheme equations and the jet Jacobian corank oracle.

The level-n jet scheme of a presented variety is cut out, inside the
affine space with one coordinate per (ambient variable, t-power <= n),
by the t-coefficients of each ideal generator evaluated on the generic
truncated curve x_i(t) = sum_p x_i[p] t^p.  That curve is one
``TruncatedSeries`` per ambient variable, known modulo t^(n+1), whose
coefficients are the polynomial jet variables; arcs expand on the same
series type.  Polynomials reduce their own coefficients mod p, so the
substitution works uniformly in every characteristic.

``jet_jacobian_corank`` differentiates those equations directly and
evaluates at a supplied point; it is the brute-force route to the fiber
dimension of the differentials of the jet scheme, kept fully independent
of the diagonalization machinery so the two can be played against each
other.  Several levels share one set of equations, built, checked and
differentiated at the top level: the level-k equations are the t^p ones
with p <= k, in the jet variables of t-power <= k, so each level ranks
its own rows of that one Jacobian.  Each equation is differentiated once:
one pass over its terms gives all its nonzero partials
(``SparsePolynomial.gradient``).  At a k-rational point (every
coordinate a visible constant) the equations and their partials are
evaluated on raw base-field scalars, ints or ``Fraction``s, and each
value is lifted into a ``FieldElement`` only once, for the shared exact
rank.  Over GF(p) the evaluation runs over Z and the lift reduces mod p,
which is exact because evaluation commutes with reduction.  Any other
point is evaluated on ``FieldElement``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import PointNotOnJetScheme
from .exact import FieldElement, SparsePolynomial, matrix_rank
from .geometry import VarietyPresentation
from .series import TruncatedSeries


def jet_variable(var: str, p: int) -> str:
    """Coordinate name for the t^p coefficient of an ambient variable."""
    return f"{var}[{p}]"


@dataclass(frozen=True)
class JetIdeal:
    """Equations of the level-n jet scheme.

    ``generators[j][p]`` is the coefficient of t^p in the j-th ideal
    generator evaluated on the generic truncated curve; substituting the
    coefficients of any valid arc kills all of them.
    """

    level: int
    base_variables: tuple[str, ...]
    jet_variables: tuple[str, ...]  # component-major: x[0..n], y[0..n], ...
    generators: tuple[tuple[SparsePolynomial, ...], ...]


def jet_ideal(X: VarietyPresentation, n: int) -> JetIdeal:
    """Hasse-Schmidt equations of the level-n jet scheme of X."""
    if n < 0:
        raise ValueError("jet level must be >= 0")
    field = X.base
    curve = {
        v: TruncatedSeries(field, [SparsePolynomial.variable(field, jet_variable(v, p)) for p in range(n + 1)])
        for v in X.variables
    }

    def constant(c) -> TruncatedSeries:
        return TruncatedSeries.from_coefficients(field, [SparsePolynomial.constant(field, c)], n + 1)

    gens = tuple(g.evaluate(curve, constant).coeffs for g in X.generators)
    jet_vars = tuple(jet_variable(v, p) for v in X.variables for p in range(n + 1))
    return JetIdeal(n, X.variables, jet_vars, gens)


def jet_point_assignment(ideal: JetIdeal, point: Sequence[FieldElement]) -> dict[str, FieldElement]:
    if len(point) != len(ideal.jet_variables):
        raise ValueError(
            f"jet point needs {len(ideal.jet_variables)} coordinates, got {len(point)}"
        )
    return dict(zip(ideal.jet_variables, point))


def jet_jacobian_corank(
    X: VarietyPresentation, levels: Sequence[int] | int, point: Sequence[FieldElement]
) -> list[int] | int:
    """Coranks of the jet-scheme Jacobian at the truncations of a jet.

    ``point`` is a jet at level top = max(levels) and must satisfy every
    level-top jet equation exactly.  Level k gets (k+1)N - rank of the
    rows of t-power <= k, the fiber dimension of the differentials of the
    level-k jet scheme at the truncated point.  One corank per level, in
    the order given; a bare level n returns its corank alone.
    """
    wanted = [levels] if isinstance(levels, int) else list(levels)
    top = max(wanted)
    ideal = jet_ideal(X, top)
    env = jet_point_assignment(ideal, point)
    field = X.base

    if all(c.is_constant() for c in point):
        # A k-rational point: evaluate on raw scalars, lift only the value.
        scalars = {v: c.constant_value() for v, c in env.items()}

        def value(poly: SparsePolynomial) -> FieldElement:
            return FieldElement.from_scalar(field, poly.evaluate(scalars, lambda c: c))

    else:

        def value(poly: SparsePolynomial) -> FieldElement:
            return poly.evaluate(env, lambda c: FieldElement.from_scalar(field, c))

    for j, row in enumerate(ideal.generators):
        for p, equation in enumerate(row):
            if not value(equation).is_zero():
                raise PointNotOnJetScheme(j, p)

    column = {v: k for k, v in enumerate(ideal.jet_variables)}
    # jacobian[j][p]: the gradient of the t^p equation of generator j.
    jacobian = []
    for row in ideal.generators:
        gradients = []
        for equation in row:
            entries = [field.fe_zero] * len(column)
            for v, partial in equation.gradient().items():
                entries[column[v]] = value(partial)
            gradients.append(entries)
        jacobian.append(gradients)

    width = len(X.variables)
    coranks = []
    for k in wanted:
        # Jet variables are component-major: x[0..top], y[0..top], ...
        columns = [i * (top + 1) + q for i in range(width) for q in range(k + 1)]
        rows = [
            [gradient[c] for c in columns]
            for gradients in jacobian
            for gradient in gradients[: k + 1]
        ]
        coranks.append(len(columns) - (matrix_rank(rows) if rows else 0))
    return coranks[0] if isinstance(levels, int) else coranks
