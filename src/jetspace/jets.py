"""Jet-scheme equations and the jet Jacobian corank oracle.

The level-n jet scheme of a presented variety is cut out, inside the
affine space with one coordinate per (ambient variable, t-power <= n),
by the t-coefficients of each ideal generator evaluated on the generic
truncated curve x_i(t) = sum_p x_i[p] t^p.  The substitution is done by
straight polynomial arithmetic modulo t^(n+1) (the shared truncated
product of ``jetspace.series``), which works uniformly in every
characteristic.

``jet_jacobian_corank`` differentiates those equations directly and
evaluates at a supplied point; it is the brute-force route to the fiber
dimension of the differentials of the jet scheme, kept fully independent
of the diagonalization machinery so the two can be played against each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import PointNotOnJetScheme
from .exact import FieldElement, SparsePolynomial, matrix_rank
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
    zero = SparsePolynomial.zero(field)
    # Generic curve per ambient variable: list of t-coefficients.
    curves = {
        v: [SparsePolynomial.variable(field, jet_variable(v, p)) for p in range(n + 1)]
        for v in X.variables
    }

    def const_series(c):
        out = [zero] * (n + 1)
        out[0] = SparsePolynomial.constant(field, c)
        return out

    class _SeriesWrapper:
        # Minimal ring wrapper so SparsePolynomial.evaluate can run with
        # truncated coefficient lists as values.
        __slots__ = ("coeffs",)

        def __init__(self, coeffs):
            self.coeffs = coeffs

        def __add__(self, other):
            return _SeriesWrapper(
                [a + b for a, b in zip(self.coeffs, other.coeffs)]
            )

        def __mul__(self, other):
            return _SeriesWrapper(truncated_product(self.coeffs, other.coeffs, n + 1, zero))

    env = {v: _SeriesWrapper(curve) for v, curve in curves.items()}
    gens = []
    for g in X.generators:
        series = g.evaluate(env, lambda c: _SeriesWrapper(const_series(c)))
        gens.append(tuple(series.coeffs))
    jet_vars = tuple(jet_variable(v, p) for v in X.variables for p in range(n + 1))
    return JetIdeal(n, X.variables, jet_vars, tuple(gens))


def jet_point_assignment(ideal: JetIdeal, point: Sequence[FieldElement]) -> dict[str, FieldElement]:
    if len(point) != len(ideal.jet_variables):
        raise ValueError(
            f"jet point needs {len(ideal.jet_variables)} coordinates, got {len(point)}"
        )
    return dict(zip(ideal.jet_variables, point))


def jet_jacobian_corank(
    X: VarietyPresentation, n: int, point: Sequence[FieldElement]
) -> int:
    """Corank of the jet-scheme Jacobian at a point of the jet scheme.

    Returns (n+1)N - rank of the matrix of partials of the jet equations,
    which is the fiber dimension of the differentials of the jet scheme
    at the point.  The point must satisfy every jet equation exactly.
    """
    ideal = jet_ideal(X, n)
    env = jet_point_assignment(ideal, point)
    field = X.base

    def const(c):
        return FieldElement.from_scalar(field, c)

    for j, row in enumerate(ideal.generators):
        for p, equation in enumerate(row):
            if not equation.evaluate(env, const).is_zero():
                raise PointNotOnJetScheme(j, p)

    rows = []
    for row in ideal.generators:
        for equation in row:
            rows.append(
                [equation.derivative(v).evaluate(env, const) for v in ideal.jet_variables]
            )
    total = len(ideal.jet_variables)
    if not rows:
        return total
    return total - matrix_rank(rows)
