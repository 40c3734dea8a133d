"""Variety/morphism presentations and differential presentations."""

import random

import pytest

from conftest import Q, affine_space, blowup_chart_2d, cusp_variety, fe, tser, var, whitney_variety
from jetspace.arcs import generic_arc, make_arc, push_arc
from jetspace.errors import InputError
from jetspace.exact import SparsePolynomial
from jetspace.geometry import (
    MorphismPresentation,
    VarietyPresentation,
    cofactor_det,
    compose_morphisms,
    jacobian_ideal_generators,
    omega_presentation,
    relative_omega_presentation,
)
from jetspace.invariants import refined_profile_of_omega, refined_pullback_profile
from jetspace.series import OrderValue, SeriesExpression


class TestOmegaPresentation:
    def test_cusp_gradient(self):
        pres = omega_presentation(cusp_variety())
        assert pres.column_symbols == ("dx", "dy")
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


def test_cofactor_det_keeps_precision_of_zero_entries():
    # 0 + O(t^3) times a unit leaves the determinant unknown from t^3 on,
    # although the other product, t^5, is known to precision 10.
    m = [[tser([], 3), tser([1], 10)], [tser([0, 0, 0, 0, 0, 1], 10), tser([1], 10)]]
    assert cofactor_det(m).order() == OrderValue.at_least(3)


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
        composed = compose_morphisms(outer, inner)
        beta = generic_arc(src, [rng.randint(0, 2), rng.randint(0, 2)], 16)
        alpha = push_arc(inner, beta)
        total = _ord_jacobian(composed, beta)
        first = _ord_jacobian(inner, beta)
        second = _ord_jacobian(outer, alpha)
        assert total == first.plus(second)


def test_compose_morphisms_mismatch():
    f = blowup_chart_2d()
    with pytest.raises(InputError):
        compose_morphisms(f, f)  # target variables (x, y) vs source (u, v)
