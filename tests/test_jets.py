"""Jet-scheme equations and the Jacobian corank oracle."""

import random
from fractions import Fraction

import pytest
import sympy

from conftest import Q, affine_space, cusp_variety, fe, to_sympy, var, whitney_variety
from jetspace.arcs import make_arc
from jetspace.errors import PointNotOnJetScheme
from jetspace.exact import FieldElement, SparsePolynomial
from jetspace.geometry import VarietyPresentation
from jetspace.jets import jet_ideal, jet_jacobian_corank, jet_variable
from jetspace.series import SeriesExpression


def _jv(name, p):
    return SparsePolynomial.variable(Q, jet_variable(name, p))


class TestJetIdeal:
    def test_cusp_level_one(self):
        ideal = jet_ideal(cusp_variety(), 1)
        x0, x1, y0, y1 = _jv("x", 0), _jv("x", 1), _jv("y", 0), _jv("y", 1)
        assert ideal.generators[0][0] == y0 * y0 - x0 ** 3
        assert ideal.generators[0][1] == (y0 * y1).scale(2) - (x0 * x0 * x1).scale(3)

    def test_affine_line_has_no_equations(self):
        ideal = jet_ideal(affine_space(1, names=("x",)), 4)
        assert ideal.generators == ()
        assert ideal.jet_variables == tuple(jet_variable("x", p) for p in range(5))

    def test_linear_generator(self):
        line_in_plane = VarietyPresentation(Q, ("x", "y"), (var("x"),))
        ideal = jet_ideal(line_in_plane, 2)
        assert ideal.generators[0] == (_jv("x", 0), _jv("x", 1), _jv("x", 2))

    def test_truncation_compatibility(self):
        """Level-n equations are exactly the first n+1 of any higher level."""
        X = cusp_variety()
        high = jet_ideal(X, 6)
        for n in range(6):
            low = jet_ideal(X, n)
            assert low.generators[0] == high.generators[0][: n + 1]


def test_leibniz_consistency():
    """Coefficient extraction respects products of random polynomials."""
    rng = random.Random(23)
    X_vars = ("x", "y")

    def rand_poly():
        poly = SparsePolynomial.zero(Q)
        for _ in range(rng.randint(1, 3)):
            term = SparsePolynomial.constant(Q, Fraction(rng.randint(-3, 3)))
            for name in X_vars:
                term = term * SparsePolynomial.variable(Q, name) ** rng.randint(0, 2)
            poly = poly + term
        return poly

    n = 4
    for _ in range(8):
        f, g = rand_poly(), rand_poly()
        Xf = VarietyPresentation(Q, X_vars, (f,))
        Xg = VarietyPresentation(Q, X_vars, (g,))
        Xfg = VarietyPresentation(Q, X_vars, (f * g,))
        Df = jet_ideal(Xf, n).generators[0]
        Dg = jet_ideal(Xg, n).generators[0]
        Dfg = jet_ideal(Xfg, n).generators[0]
        for p in range(n + 1):
            convolution = SparsePolynomial.zero(Q)
            for a in range(p + 1):
                convolution = convolution + Df[a] * Dg[p - a]
            assert Dfg[p] == convolution


@pytest.mark.parametrize("variety", [cusp_variety(), whitney_variety()], ids=lambda X: X.name)
def test_jet_ideal_matches_sympy_expansion(variety):
    """Coefficients of g(sum_p x[p] t^p) mod t^(n+1), expanded by sympy."""
    t = sympy.Symbol("t")
    for n in range(6):
        ideal = jet_ideal(variety, n)
        curve = {
            sympy.Symbol(v): sum(sympy.Symbol(jet_variable(v, p)) * t**p for p in range(n + 1))
            for v in variety.variables
        }
        for g, row in zip(variety.generators, ideal.generators):
            expanded = sympy.expand(to_sympy(g).subs(curve, simultaneous=True))
            assert len(row) == n + 1
            for p, equation in enumerate(row):
                assert sympy.expand(to_sympy(equation) - expanded.coeff(t, p)) == 0


class TestJetJacobianCorank:
    def test_affine_line_free(self):
        line = affine_space(1, names=("x",))
        for n in (0, 2, 5):
            point = [fe(Fraction(k)) for k in range(n + 1)]
            assert jet_jacobian_corank(line, n, point) == n + 1

    def test_cusp_arc_level_three(self):
        arc = make_arc(cusp_variety(), [SeriesExpression.t_power(Q, 2), SeriesExpression.t_power(Q, 3)], 8)
        jet = arc.truncate(3)
        assert jet_jacobian_corank(cusp_variety(), 3, jet.coordinates) == 7

    def test_cusp_origin_jet_level_one(self):
        zero = fe(0)
        assert jet_jacobian_corank(cusp_variety(), 1, [zero] * 4) == 4

    def test_point_not_on_jet_scheme(self):
        with pytest.raises(PointNotOnJetScheme):
            jet_jacobian_corank(cusp_variety(), 0, [fe(1), fe(2)])
