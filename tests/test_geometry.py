"""Variety/morphism presentations and differential presentations."""

import random

import pytest

from conftest import Q, affine_space, blowup_chart_2d, cusp_variety, tser, var, whitney_variety
from jetspace.arcs import generic_arc, push_arc
from jetspace.errors import InputError
from jetspace.exact import SparsePolynomial
from jetspace.geometry import (
    MorphismPresentation,
    VarietyPresentation,
    jacobian_ideal_generators,
    minors,
    omega_presentation,
    relative_omega_presentation,
)
from jetspace.invariants import refined_profile_of_omega, refined_pullback_profile
from jetspace.jets import jet_ideal
from jetspace.series import OrderValue


class TestOmegaPresentation:
    def test_cusp_gradient(self):
        pres = omega_presentation(cusp_variety())
        assert pres.num_columns == 2
        x, y = var("x"), var("y")
        assert pres.matrix == ((x * x * SparsePolynomial.constant(Q, -3), y + y),)

    def test_affine_plane_free(self):
        pres = omega_presentation(affine_space(2))
        assert pres.matrix == ()
        assert pres.num_columns == 2

    def test_whitney_gradient(self):
        pres = omega_presentation(whitney_variety())
        x, y, z = var("x"), var("y"), var("z")
        assert pres.matrix[0] == (y * y, (x * y).scale(2), z.scale(-2))


class TestRelativeOmega:
    def test_blowup_chart_rows(self):
        pres = relative_omega_presentation(blowup_chart_2d())
        u, v = var("u"), var("v")
        one = SparsePolynomial.constant(Q, 1)
        zero = SparsePolynomial.zero(Q)
        assert pres.matrix == ((one, zero), (v, u))

    def test_identity_has_unit_jacobian_ideal(self):
        line = affine_space(1, names=("x",))
        target = affine_space(1, names=("z",))
        ident = MorphismPresentation(line, target, (var("x"),))
        pres = relative_omega_presentation(ident)
        assert pres.matrix == ((SparsePolynomial.constant(Q, 1),),)
        arc = generic_arc(line, [0], 8)
        profile, _ = refined_pullback_profile(pres, arc)
        assert profile.fitting_invariant(0) == OrderValue.finite(0)

    def test_squaring_map(self):
        line = affine_space(1, names=("u",))
        target = affine_space(1, names=("x",))
        f = MorphismPresentation(line, target, (var("u") * var("u"),))
        pres = relative_omega_presentation(f)
        assert pres.matrix == ((var("u").scale(2),),)


class TestMorphismValidation:
    def test_component_count(self):
        with pytest.raises(InputError):
            MorphismPresentation(affine_space(2), affine_space(2), (var("x1"),))

    def test_non_source_variable(self):
        with pytest.raises(InputError):
            MorphismPresentation(affine_space(2), affine_space(1), (var("q"),))

    def test_variety_duplicate_variable(self):
        with pytest.raises(InputError):
            VarietyPresentation(Q, ("x", "x"), ())

    def test_generator_outside_ambient(self):
        with pytest.raises(InputError):
            VarietyPresentation(Q, ("x",), (var("y"),))


def test_minors_keep_precision_of_zero_entries():
    # 0 + O(t^3) times a unit leaves the determinant unknown from t^3 on,
    # although the other product, t^5, is known to precision 10.
    m = [[tser([], 3), tser([1], 10)], [tser([0, 0, 0, 0, 0, 1], 10), tser([1], 10)]]
    assert minors(m, 2)[0].order() == OrderValue.at_least(3)


# Every size of minors of the Jacobian of the generators, and the 2x2 minors
# of the level-1 jet Jacobian: the first-row expansion fixes each term's order.
POLYNOMIAL_MINOR_PINS = {
    "cusp": (
        [["1"], ["-3*x^2", "2*y"], [], []],
        ["9*x[0]^4", "-6*x[0]^2*y[1] + 12*x[0]*x[1]*y[0]", "-6*x[0]^2*y[0]", "6*x[0]^2*y[0]", "0", "4*y[0]^2"],
    ),
    "whitney": (
        [["1"], ["y^2", "2*x*y", "-2*z"], [], [], []],
        [
            "y[0]^4",
            "2*x[1]*y[0]^3 - 2*x[0]*y[0]^2*y[1]",
            "2*x[0]*y[0]^3",
            "-2*y[0]^2*z[1] + 4*y[0]*y[1]*z[0]",
            "-2*y[0]^2*z[0]",
            "-2*x[0]*y[0]^3",
            "0",
            "2*y[0]^2*z[0]",
            "0",
            "4*x[0]^2*y[0]^2",
            "4*x[1]*y[0]*z[0] + 4*x[0]*y[1]*z[0] - 4*x[0]*y[0]*z[1]",
            "-4*x[0]*y[0]*z[0]",
            "4*x[0]*y[0]*z[0]",
            "0",
            "4*z[0]^2",
        ],
    ),
}


@pytest.mark.parametrize("variety", [cusp_variety(), whitney_variety()], ids=lambda X: X.name)
def test_minors_of_the_jacobians_are_pinned(variety):
    """Sizes 0..N+1 through jacobian_ideal_generators: [1] at size 0, [] past the rows or columns."""
    by_size, jet_level_one = POLYNOMIAL_MINOR_PINS[variety.name]
    N = len(variety.variables)
    assert [[str(m) for m in jacobian_ideal_generators(variety, N - k)] for k in range(N + 2)] == by_size
    matrix = omega_presentation(variety).matrix
    assert [[str(m) for m in minors(matrix, k)] for k in range(1, N + 2)] == by_size[1:]
    ideal = jet_ideal(variety, 1)
    jacobian = [[eq.derivative(v) for v in ideal.jet_variables] for row in ideal.generators for eq in row]
    assert [str(m) for m in minors(jacobian, 2)] == jet_level_one


def test_jacobian_ideal_generators_cusp():
    gens = jacobian_ideal_generators(cusp_variety(), 1)
    x, y = var("x"), var("y")
    assert gens == [(x * x).scale(-3), y.scale(2)]


def test_omega_of_affine_space_is_free_along_arcs():
    space = affine_space(3)
    arc = generic_arc(space, [0, 1, 2], 10)
    profile, _ = refined_profile_of_omega(arc)
    assert profile.betti == 3
    assert profile.factors == ()


def _ord_jacobian(morphism, arc):
    profile, _ = refined_pullback_profile(relative_omega_presentation(morphism), arc)
    return profile.fitting_invariant(0)


def _compose(g, f):
    """g after f: each component of g evaluated at the components of f."""
    env = dict(zip(f.target.variables, f.components))
    components = tuple(
        comp.evaluate(env, lambda c: SparsePolynomial.constant(f.source.base, c))
        for comp in g.components
    )
    return MorphismPresentation(f.source, g.target, components)


def test_chain_rule_for_jacobian_orders():
    """Orders of morphism Jacobians add along compositions (char 0, smooth)."""
    rng = random.Random(17)
    src = affine_space(2, names=("u", "v"))
    mid = affine_space(2, names=("x", "y"))
    tgt = affine_space(2, names=("s", "w"))
    u, v, x, y = var("u"), var("v"), var("x"), var("y")
    inner_maps = [
        MorphismPresentation(src, mid, (u, u * v)),
        MorphismPresentation(src, mid, (u + v * v, v)),
        MorphismPresentation(src, mid, (u * u * v, v)),
    ]
    outer_maps = [
        MorphismPresentation(mid, tgt, (x * x, x * y)),
        MorphismPresentation(mid, tgt, (x, x * y * y)),
        MorphismPresentation(mid, tgt, (x + y * y * y, y)),
    ]
    for _ in range(6):
        inner = rng.choice(inner_maps)
        outer = rng.choice(outer_maps)
        composed = _compose(outer, inner)
        beta = generic_arc(src, [rng.randint(0, 2), rng.randint(0, 2)], 16)
        alpha = push_arc(inner, beta)
        total = _ord_jacobian(composed, beta)
        first = _ord_jacobian(inner, beta)
        second = _ord_jacobian(outer, alpha)
        # Orders add; a sum with an AtLeast operand is only known from below.
        assert total == OrderValue(first.bound + second.bound, first.is_finite and second.is_finite)
