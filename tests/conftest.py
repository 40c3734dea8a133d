"""Shared builders for the test suite."""

from fractions import Fraction

from jetspace.exact import FieldElement, RATIONALS, SparsePolynomial, TranscendenceDegree, echelon_rank_profile
from jetspace.geometry import MorphismPresentation, VarietyPresentation, omega_presentation
from jetspace.invariants import pullback_matrix, smith_orders
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


def truncated_smith(matrix, num_columns, n):
    """The level-n profile of a relation matrix, diagonalized on its own from
    the entries truncated at t^(n+1) (not read off the arc-level pivots)."""
    truncated = [[entry.truncate(n + 1) for entry in row] for row in matrix]
    return smith_orders(truncated, num_columns, precision=n + 1).at_level(n)


def level_profile(arc, n):
    """The level-n profile of Omega along an arc that knows more than n coefficients."""
    assert n < arc.precision
    presentation = omega_presentation(arc.variety)
    return truncated_smith(pullback_matrix(presentation, arc), presentation.num_columns, n)


def count_calls(monkeypatch, cls, names):
    """Record, in order, each call of the named methods of ``cls``."""
    calls = []
    for name in names:
        original = getattr(cls, name)

        def counted(self, *args, name=name, original=original):
            calls.append(name)
            return original(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return calls


def to_sympy(value):
    """A polynomial or field element as a sympy expression."""
    import sympy

    if isinstance(value, FieldElement):
        return to_sympy(value.num) / to_sympy(value.den)
    if isinstance(value, (int, Fraction)):
        return sympy.Rational(value)
    expr = sympy.Integer(0)
    for mono, coeff in value.terms.items():
        term = sympy.Rational(coeff)
        for name, exp in mono:
            term *= sympy.Symbol(name) ** exp
        expr += term
    return expr


def eliminated_transcendence_degree(blocks, field):
    """Transcendence degrees by a forced elimination, never the fresh-name count.

    The Jacobian-criterion rows of every nonconstant element, over every
    variable they use, are built here and ranked by ``echelon_rank_profile``;
    the flag is set over GF(p) when some element is nonconstant.
    """
    elements = [[g for g in block if isinstance(g, FieldElement) and not g.is_constant()] for block in blocks]
    names = sorted({u for block in elements for g in block for u in g.variables()})
    rows = [
        [[g.num.derivative(u) * g.den - g.num * g.den.derivative(u) for u in names] for g in block]
        for block in elements
    ]
    return TranscendenceDegree(echelon_rank_profile(rows, field), field.p is not None and any(elements))
