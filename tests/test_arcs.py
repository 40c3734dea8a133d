"""Arc validation, truncation, ideal orders, precision semantics."""

import pytest

from conftest import Q, affine_space, blowup_chart_2d, cusp_variety, fe, fev, sexpr, tser, whitney_variety
from jetspace.arcs import GenericComponent, generic_arc, make_arc, push_arc
from jetspace.errors import MorphismInvalidOnArc, NotOnVariety, PrecisionTooLow
from jetspace.exact import SparsePolynomial
from jetspace.geometry import MorphismPresentation, jacobian_ideal_generators
from jetspace.series import OrderValue, SeriesExpression, TruncatedSeries


def _cusp_arc(precision=12):
    return make_arc(
        cusp_variety(),
        [SeriesExpression.t_power(Q, 2), SeriesExpression.t_power(Q, 3)],
        precision,
    )


class TestMakeArc:
    def test_cusp_arc_valid(self):
        arc = _cusp_arc()
        assert arc.precision == 12

    def test_not_on_variety(self):
        with pytest.raises(NotOnVariety) as info:
            make_arc(
                cusp_variety(),
                [SeriesExpression.t_power(Q, 2), SeriesExpression.t_power(Q, 2)],
                12,
            )
        assert info.value.generator_index == 0
        assert info.value.order == 4

    def test_singular_line_arc(self):
        arc = make_arc(
            whitney_variety(),
            [SeriesExpression.t_power(Q, 1), sexpr(0), sexpr(0)],
            8,
        )
        assert arc.precision == 8

    def test_component_count(self):
        with pytest.raises(Exception):
            make_arc(cusp_variety(), [SeriesExpression.t_power(Q, 2)], 8)


class TestOrdIdeal:
    def test_cusp_jacobian_ideal(self):
        arc = _cusp_arc()
        gens = jacobian_ideal_generators(cusp_variety(), 1)
        assert arc.ord_ideal(gens) == OrderValue.finite(3)

    def test_unit_ideal(self):
        arc = _cusp_arc()
        assert arc.ord_ideal([SparsePolynomial.constant(Q, 1)]) == OrderValue.finite(0)

    def test_identically_vanishing(self):
        arc = make_arc(
            whitney_variety(),
            [SeriesExpression.t_power(Q, 1), sexpr(0), sexpr(0)],
            8,
        )
        gens = jacobian_ideal_generators(whitney_variety(), 2)
        assert arc.ord_ideal(gens) == OrderValue.at_least(8)

    def test_monotone_under_more_generators(self):
        arc = _cusp_arc()
        x = SparsePolynomial.variable(Q, "x")
        small = arc.ord_ideal([x * x])
        bigger = arc.ord_ideal([x * x, x])
        assert bigger.min(small) == bigger


class TestTruncate:
    def test_cusp_coordinates(self):
        jet = _cusp_arc().truncate(3)
        values = [fe(0), fe(0), fe(1), fe(0), fe(0), fe(0), fe(0), fe(1)]
        assert list(jet.coordinates) == values
        assert jet.residue_dim == 0

    def test_generic_line_window(self):
        arc = generic_arc(affine_space(1, names=("x",)), [0], 8)
        assert arc.truncate(2).residue_dim == 3

    def test_mixed_constants(self):
        # y1 = u*t, y2 = v with u, v transcendental
        space = affine_space(2, names=("y1", "y2"))
        arc = make_arc(space, [sexpr(0, fev("u")), sexpr(fev("v"))], 8)
        assert arc.truncate(1).residue_dim == 2

    def test_rational_points_have_zero_residue_dim(self):
        arc = _cusp_arc()
        for n in range(6):
            assert arc.truncate(n).residue_dim == 0

    def test_needs_precision(self):
        with pytest.raises(PrecisionTooLow):
            _cusp_arc(6).truncate(6)


class TestPrecision:
    def test_raising_preserves_truncations(self):
        arc = _cusp_arc(8)
        finer = arc.with_precision(20)
        for n in range(7):
            assert arc.truncate(n).coordinates == finer.truncate(n).coordinates

    def test_generic_arc_refinement_keeps_names(self):
        arc = generic_arc(affine_space(1, names=("x",)), [1], 6)
        finer = arc.with_precision(12)
        assert finer.expansions[0].coeffs[:6] == arc.expansions[0].coeffs

    def test_raw_series_arcs_are_capped(self):
        series = tser([0, 0, 1], 6)
        cusp_like = affine_space(1, names=("x",))
        arc = make_arc(cusp_like, [series], 6)
        assert not arc.refinable
        with pytest.raises(PrecisionTooLow):
            arc.with_precision(12)

    def test_lowering_precision_is_always_allowed(self):
        arc = _cusp_arc(12).with_precision(5)
        assert arc.precision == 5


class TestResidueProfile:
    def test_matches_truncate(self):
        chart = blowup_chart_2d()
        beta = generic_arc(chart.source, [1, 0], 10)
        alpha = push_arc(chart, beta)
        for arc in (beta, alpha):
            dims, _ = arc.residue_dimension_profile(6)
            for n in range(7):
                assert dims[n] == arc.truncate(n).residue_dim


class TestPushArc:
    def test_image_satisfies_target(self):
        chart = blowup_chart_2d()
        beta = generic_arc(chart.source, [1, 0], 10)
        alpha = push_arc(chart, beta)
        assert alpha.variety is chart.target
        # first component passes through unchanged
        assert alpha.expansions[0].coeffs == beta.expansions[0].coeffs

    def test_image_is_refinable(self):
        chart = blowup_chart_2d()
        beta = generic_arc(chart.source, [1, 0], 8)
        alpha = push_arc(chart, beta)
        finer = alpha.with_precision(16)
        assert finer.expansions[0].coeffs[:8] == alpha.expansions[0].coeffs

    def test_invalid_image_reported(self):
        src = affine_space(1, names=("u",))
        x, y = (SparsePolynomial.variable(Q, n) for n in ("x", "y"))
        target = cusp_variety()
        bad = MorphismPresentation(src, target, (SparsePolynomial.variable(Q, "u"), SparsePolynomial.variable(Q, "u")))
        beta = make_arc(src, [SeriesExpression.t_power(Q, 1)], 8)
        with pytest.raises(MorphismInvalidOnArc):
            push_arc(bad, beta)


def test_generic_component_names_are_stable():
    comp = GenericComponent(2, 1)
    assert comp.coefficient_name(3) == "u2_3"
    expansion = comp.expand(Q, 4)
    assert expansion.coeffs[0].is_zero()
    assert str(expansion.coeffs[1]) == "u2_1"
