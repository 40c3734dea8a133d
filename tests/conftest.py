"""Shared builders for the test suite."""

from fractions import Fraction

from jetspace.exact import FieldElement, RATIONALS, SparsePolynomial
from jetspace.geometry import MorphismPresentation, VarietyPresentation
from jetspace.series import SeriesExpression, TruncatedSeries

Q = RATIONALS


def fe(value, field=Q):
    return FieldElement.from_scalar(field, value)


def fev(name, field=Q):
    return FieldElement.variable(field, name)


def var(name, field=Q):
    return SparsePolynomial.variable(field, name)


def sexpr(*coeffs, field=Q):
    lifted = [c if isinstance(c, FieldElement) else fe(c, field) for c in coeffs]
    return SeriesExpression(field, lifted)


def tser(coeffs, precision, field=Q):
    lifted = [c if isinstance(c, FieldElement) else fe(c, field) for c in coeffs]
    return TruncatedSeries.from_coefficients(field, lifted, precision)


def affine_space(n, field=Q, names=None):
    names = tuple(names) if names else tuple(f"x{i}" for i in range(1, n + 1))
    return VarietyPresentation(field, names, (), declared_dim=n)


def cusp_variety():
    x, y = var("x"), var("y")
    return VarietyPresentation(Q, ("x", "y"), (y * y - x ** 3,), declared_dim=1, name="cusp")


def whitney_variety():
    x, y, z = var("x"), var("y"), var("z")
    return VarietyPresentation(
        Q, ("x", "y", "z"), (x * y * y - z * z,), declared_dim=2, name="whitney"
    )


def blowup_chart_2d():
    src = VarietyPresentation(Q, ("u", "v"), (), declared_dim=2, name="chart")
    tgt = VarietyPresentation(Q, ("x", "y"), (), declared_dim=2, name="plane")
    u, v = var("u"), var("v")
    return MorphismPresentation(src, tgt, (u, u * v), name="blowup2")


def to_sympy(value):
    """A polynomial or field element as a sympy expression."""
    import sympy

    if isinstance(value, FieldElement):
        return to_sympy(value.num) / to_sympy(value.den)
    expr = sympy.Integer(0)
    for mono, coeff in value.terms.items():
        term = sympy.Rational(coeff)
        for name, exp in mono:
            term *= sympy.Symbol(name) ** exp
        expr += term
    return expr
