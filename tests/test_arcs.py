"""Arc validation, truncation, ideal orders, precision semantics."""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from conftest import (
    Q,
    affine_space,
    blowup_chart_2d,
    cusp_variety,
    eliminated_transcendence_degree,
    fe,
    fev,
    sexpr,
    to_sympy,
    tser,
    var,
    whitney_variety,
)
from jetspace import analysis, exact
from jetspace.analysis import divisorial_arc, mather_discrepancy_check
from jetspace.arcs import Arc, GenericComponent, generic_arc, make_arc, push_arc
from jetspace.catalog import blow_up_chart
from jetspace.errors import InputError, MorphismInvalidOnArc, NotOnVariety, PrecisionTooLow
from jetspace.exact import BaseField, SparsePolynomial
from jetspace.geometry import MorphismPresentation, VarietyPresentation, jacobian_ideal_generators
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
        assert _cusp_arc().residue_dimension_profile(3).ranks[3] == 0

    def test_generic_line_window(self):
        arc = generic_arc(affine_space(1, names=("x",)), [0], 8)
        assert arc.residue_dimension_profile(2).ranks[2] == 3

    def test_mixed_constants(self):
        # y1 = u*t, y2 = v with u, v transcendental
        space = affine_space(2, names=("y1", "y2"))
        arc = make_arc(space, [sexpr(0, fev("u")), sexpr(fev("v"))], 8)
        assert arc.residue_dimension_profile(1).ranks[1] == 2

    def test_rational_points_have_zero_residue_dim(self):
        assert _cusp_arc().residue_dimension_profile(5).ranks == [0] * 6

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

    def test_truncated_series_component_is_an_input_error(self):
        # Every component re-expands; a raw series could not.
        with pytest.raises(InputError, match="not TruncatedSeries"):
            make_arc(affine_space(1, names=("x",)), [tser([0, 0, 1], 6)], 6)

    def test_with_precision_at_or_below_returns_the_arc_itself(self):
        arc = _cusp_arc(12)
        assert arc.with_precision(12) is arc
        assert arc.with_precision(5) is arc


def _seeded_coefficient(rng):
    """A random polynomial of degree <= 2 in the transcendentals a, b, c."""
    value = fe(rng.randint(-2, 2))
    for _ in range(rng.randint(0, 2)):
        term = fe(rng.choice((-1, 1, 2)))
        for _ in range(rng.randint(1, 2)):
            term = term * fev(rng.choice("abc"))
        value = value + term
    return value


class TestResidueProfile:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_sympy_jacobian_rank(self, seed):
        # dim(alpha_n) is the rank over Q(transcendentals) of the Jacobian
        # of the coefficients of t^0..t^n, here by sympy's fraction-free
        # elimination over QQ.frac_field.
        rng = random.Random(seed)
        chart = blowup_chart_2d()
        beta = generic_arc(chart.source, [rng.randint(0, 2), rng.randint(0, 2)], 7)
        space = affine_space(2, names=("y1", "y2"))
        seeded = make_arc(
            space, [sexpr(*(_seeded_coefficient(rng) for _ in range(7))) for _ in "12"], 7
        )
        for arc in (beta, push_arc(chart, beta), seeded):
            symbols = sympy.symbols(arc.transcendentals())
            domain = QQ.frac_field(*symbols) if symbols else QQ
            ranks, char_p = arc.residue_dimension_profile(5)
            assert not char_p
            for n in range(6):
                coeffs = [to_sympy(s.coeffs[p]) for s in arc.expansions for p in range(n + 1)]
                rows = [[domain.from_sympy(sympy.diff(c, u)) for u in symbols] for c in coeffs]
                matrix = DomainMatrix(rows, (len(rows), len(symbols)), domain)
                assert ranks[n] == (len(matrix.rref_den()[2]) if symbols else 0)


# Residue profiles recorded before the elimination kernel reduced rows
# sparsely; a faster kernel must give the same dimensions.
_CUSP_SHIFTS = (1, -2, 3, -1, 2, -3, 1, -2, 3, -1)


class TestPinnedResidueProfiles:
    @pytest.mark.parametrize(
        "T, ranks",
        [
            (3, [0, 0, 0, 1, 2, 3, 3, 3, 3, 3, 3, 3, 3]),
            (5, [0, 0, 0, 1, 2, 3, 4, 5, 5, 5, 5, 5, 5]),
            (7, [0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 7, 7, 7]),
            # Right dimensions; only the embdim-arc verdict on this arc is wrong.
            (10, [0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
        ],
    )
    def test_cusp_arcs_with_transcendental_shifts(self, T, ranks):
        # x = s^2, y = s^3 with s = t + (r_0 + a0) t^2 + ... + (r_(T-1) + a(T-1)) t^(T+1).
        coeffs = [fe(0), fe(1)] + [fev(f"a{i}") + fe(r) for i, r in enumerate(_CUSP_SHIFTS[:T])]
        s = SeriesExpression(Q, coeffs)
        arc = make_arc(cusp_variety(), [s ** 2, s ** 3], 16)
        assert arc.residue_dimension_profile(12) == (ranks, False)

    def test_btr_image_arc_on_the_space_blowup_chart(self):
        chart = blow_up_chart(3)
        alpha = push_arc(chart, generic_arc(chart.source, [1, 0, 0], 16))
        assert alpha.residue_dimension_profile(12) == ([3 * n for n in range(13)], False)

    def test_gf3_generic_arc_and_its_char_p_flag(self):
        # x = u^3 + v has no Jacobian-criterion rank in u at the center in characteristic 3.
        f3 = BaseField(3)
        u, v = SparsePolynomial.variable(f3, "u"), SparsePolynomial.variable(f3, "v")
        source = affine_space(2, f3, names=("u", "v"))
        target = affine_space(2, f3, names=("x", "y"))
        f = MorphismPresentation(source, target, (u ** 3 + v, u * v))
        alpha = push_arc(f, generic_arc(source, [0, 1], 10))
        assert alpha.residue_dimension_profile(8) == ([2 * n for n in range(9)], True)


def _eliminated(arc, n_max):
    """The residue profile by a forced elimination of the arc's coefficients."""
    expansions = [s.lifted() if s.is_scalar else s for s in arc.expansions]
    blocks = [[s.coeffs[n] for s in expansions] for n in range(n_max + 1)]
    return eliminated_transcendence_degree(blocks, arc.variety.base)


def _constant_expression(rng, field):
    return sexpr(*(rng.randint(0, 4) for _ in range(rng.randint(1, 4))), field=field)


def _scaled_name(rng, field):
    """c*v/d for a transcendental v and nonzero scalars c and d of the field."""
    c = fe(rng.randint(1, field.p - 1 if field.p else 4), field)
    d = fe(3 if field.p != 3 else 2, field)
    return c * fev(rng.choice("ab"), field) / d


# Arcs whose residue profile is a count of fresh names, by kind.
_COUNTED_KINDS = {
    "a-plus-b-t": lambda rng, field, i: sexpr(fev(rng.choice("ab"), field), fev(rng.choice("ab"), field), field=field),
    "scaled-names": lambda rng, field, i: sexpr(0, _scaled_name(rng, field), 1, _scaled_name(rng, field), field=field),
    "twice-a": lambda rng, field, i: sexpr(fe(2, field) * fev("a", field), fev("b", field), field=field),
    "generic-mixed-starts": lambda rng, field, i: GenericComponent(i + 1, rng.randint(0, 3)),
    "generic-plus-constant": lambda rng, field, i: (
        GenericComponent(i + 1, rng.randint(0, 3)) if i != 1 else _constant_expression(rng, field)
    ),
    "start-above-n-max": lambda rng, field, i: GenericComponent(i + 1, rng.choice([2, 7, 9])),
    "repeated-index": lambda rng, field, i: GenericComponent(rng.randint(1, 2), rng.randint(0, 3)),
    "k-rational": lambda rng, field, i: _constant_expression(rng, field),
}


class TestFreshVariableCount:
    @pytest.mark.parametrize("kind", sorted(_COUNTED_KINDS))
    @pytest.mark.parametrize("p", [None, 2, 3], ids=["Q", "GF2", "GF3"])
    @pytest.mark.parametrize("seed", range(4))
    def test_count_equals_a_forced_elimination(self, kind, p, seed):
        rng = random.Random(seed)
        field = Q if p is None else BaseField(p)
        components = [_COUNTED_KINDS[kind](rng, field, i) for i in range(3)]
        arc = make_arc(affine_space(3, field), components, 10)
        assert arc.residue_dimension_profile(6) == _eliminated(arc, 6)

    def test_only_image_and_transcendental_arcs_eliminate(self, monkeypatch):
        # Only coefficients that are not scaled variables reach the elimination.
        calls = []
        rank = exact.echelon_rank_profile
        monkeypatch.setattr(exact, "echelon_rank_profile", lambda *args: calls.append(args) or rank(*args))
        chart = blowup_chart_2d()
        counted = [
            generic_arc(chart.source, [1, 0], 10),
            make_arc(chart.source, [GenericComponent(1, 1), sexpr(2, 1)], 10),
            make_arc(chart.source, [sexpr(0, 1), sexpr(3)], 10),
            make_arc(chart.source, [GenericComponent(1, 1), sexpr(fev("a"), 1)], 10),
            make_arc(chart.source, [sexpr(fev("a"), fev("b")), sexpr(fe(2) * fev("a"), fev("b") / fe(3))], 10),
        ]
        for arc in counted:
            arc.residue_dimension_profile(8)
        assert calls == []
        eliminated = [
            push_arc(chart, counted[0]),
            make_arc(chart.source, [GenericComponent(1, 1), sexpr(fev("a") * fev("b"), 1)], 10),
        ]
        for arc in eliminated:
            arc.residue_dimension_profile(8)
            assert len(calls) == 1
            calls.clear()


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

    def test_image_arc_refines_its_source_once(self, monkeypatch):
        # The A1 chart (u, u*v^2, u*v) onto x*y = z^2: three components, one source arc.
        source = affine_space(2, names=("u", "v"))
        x, y, z, u, v = (var(name) for name in "xyzuv")
        a1 = VarietyPresentation(Q, ("x", "y", "z"), (x * y - z * z,), declared_dim=2)
        alpha = push_arc(MorphismPresentation(source, a1, (u, u * v * v, u * v)), generic_arc(source, [1, 0], 8))
        built = []
        init = Arc.__init__
        monkeypatch.setattr(
            Arc, "__init__", lambda arc, variety, *rest: built.append(variety) or init(arc, variety, *rest)
        )
        finer = alpha.with_precision(16)
        assert sum(variety is source for variety in built) == 1
        assert finer.precision == 16
        assert [e.coeffs[:8] for e in finer.expansions] == [e.coeffs for e in alpha.expansions]

    def test_invalid_image_reported(self):
        src = affine_space(1, names=("u",))
        x, y = (SparsePolynomial.variable(Q, n) for n in ("x", "y"))
        target = cusp_variety()
        bad = MorphismPresentation(src, target, (SparsePolynomial.variable(Q, "u"), SparsePolynomial.variable(Q, "u")))
        beta = make_arc(src, [SeriesExpression.t_power(Q, 1)], 8)
        with pytest.raises(MorphismInvalidOnArc):
            push_arc(bad, beta)

    def test_refined_image_that_leaves_the_target_reports_an_invalid_morphism(self):
        # z^2 - x*y^2 = u^60 along u = t: zero mod t^24, first seen mod t^61.
        u = SparsePolynomial.variable(Q, "u")
        line = affine_space(1, names=("u",))
        f = MorphismPresentation(line, whitney_variety(), (u, SparsePolynomial.zero(Q), u**30))
        alpha = push_arc(f, make_arc(line, [SeriesExpression.t_power(Q, 1)], 24))
        with pytest.raises(MorphismInvalidOnArc) as info:
            alpha.with_precision(96)
        assert (info.value.generator_index, info.value.order) == (0, 60)
        with pytest.raises(MorphismInvalidOnArc):
            push_arc(f, make_arc(line, [SeriesExpression.t_power(Q, 1)], 64))


def _field_poly(rng, field, names):
    """A seeded polynomial of degree <= 3 in ``names``, with rational or mod-p coefficients."""
    poly = SparsePolynomial.zero(field)
    for _ in range(rng.randint(1, 4)):
        term = SparsePolynomial.constant(field, Fraction(rng.choice((1, -2, 3)), rng.choice((1, 1, 5))))
        for _ in range(rng.randint(0, 3)):
            term = term * SparsePolynomial.variable(field, rng.choice(names))
        poly = poly + term
    return poly


def _seeded_arcs(rng, field):
    """A k-rational, a generic, a mixed and three image arcs, by kind."""
    x, y, u, v = (SparsePolynomial.variable(field, name) for name in "xyuv")
    cusp = VarietyPresentation(field, ("x", "y"), (y * y - x ** 3,))
    plane = affine_space(2, field, names=("x", "y"))
    line = affine_space(1, field, names=("u",))
    chart = MorphismPresentation(affine_space(2, field, names=("u", "v")), plane, (u, u * v))
    normalization = MorphismPresentation(line, cusp, (u * u, u ** 3))
    s = SeriesExpression(field, [0, 1] + [rng.randint(-3, 3) for _ in range(3)])
    mixed = make_arc(chart.source, [GenericComponent(1, 1), SeriesExpression(field, [2, 1])], 8)
    return {
        "k-rational": make_arc(cusp, [s ** 2, s ** 3], 8),
        "generic": generic_arc(plane, [rng.randint(0, 2), rng.randint(0, 2)], 8),
        "mixed": mixed,
        "image-of-mixed": push_arc(chart, mixed),
        "image-of-generic": push_arc(normalization, generic_arc(line, [rng.randint(1, 2)], 8)),
        "image-of-k-rational": push_arc(normalization, make_arc(line, [s], 8)),
    }


class TestEvaluate:
    """``Arc.evaluate`` equals the evaluation on the expansions lifted to field elements."""

    @pytest.mark.parametrize("p", [None, 2, 3], ids=["Q", "GF2", "GF3"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_lifted_evaluation(self, p, seed):
        rng = random.Random(seed)
        field = Q if p is None else BaseField(p)
        arcs = _seeded_arcs(rng, field)
        for kind, arc in arcs.items():
            names = arc.variety.variables
            # On affine space a seeded polynomial stands in for the generators.
            generators = list(arc.variety.generators) or [_field_poly(rng, field, names)]
            jacobian = [g.derivative(v) for g in generators for v in names]
            polys = generators + jacobian + [_field_poly(rng, field, names)]
            lifted = {v: s.lifted() if s.is_scalar else s for v, s in zip(names, arc.expansions)}

            def const(c):
                return TruncatedSeries.from_coefficients(field, [fe(c, field)], arc.precision)

            for poly in polys:
                value = arc.evaluate(poly)
                assert value.is_scalar == arc.k_rational, kind
                assert value == poly.evaluate(lifted, const), (kind, str(poly))
        assert [kind for kind, arc in arcs.items() if arc.k_rational] == ["k-rational", "image-of-k-rational"]

    def test_an_arc_without_components_evaluates_on_scalars(self):
        point = make_arc(VarietyPresentation(Q, ()), [], 4)
        assert point.k_rational
        assert point.evaluate(SparsePolynomial.constant(Q, 3)).coeffs == (3, 0, 0, 0)


def test_generic_component_names_are_stable():
    comp = GenericComponent(2, 1)
    assert comp.coefficient_name(3) == "u2_3"
    assert GenericComponent.COEFFICIENT_NAME.fullmatch(comp.coefficient_name(3))
    expansion = comp.expand(Q, 4)
    assert not expansion.coeffs[0]
    assert str(expansion.coeffs[1]) == "u2_1"


@pytest.mark.parametrize(
    "build",
    [
        lambda: GenericComponent(0),
        lambda: GenericComponent(1, -1),
        lambda: GenericComponent(1, 1.5),
        lambda: GenericComponent(1.0),
        lambda: GenericComponent(True),
        lambda: GenericComponent(1, True),
        lambda: GenericComponent("1"),
        # A start of -1 would count names below t^0, and 1.5 half a name.
        lambda: generic_arc(affine_space(1), [-1], 6),
        lambda: generic_arc(affine_space(1), [1.5], 6),
    ],
    ids=[
        "index-0",
        "start-negative",
        "start-float",
        "index-float",
        "index-bool",
        "start-bool",
        "index-str",
        "generic-arc-negative-start",
        "generic-arc-float-start",
    ],
)
def test_generic_component_fields_are_checked(build):
    with pytest.raises(InputError, match="generic component"):
        build()


@pytest.mark.parametrize(
    "build, q",
    [
        (divisorial_arc, 1.5),
        (divisorial_arc, True),
        (divisorial_arc, 0),
        (divisorial_arc, "2"),
        (mather_discrepancy_check, 1.5),
        (mather_discrepancy_check, True),
    ],
    ids=["divisorial-float-q", "divisorial-bool-q", "divisorial-zero-q", "divisorial-str-q", "mather-float-q", "mather-bool-q"],
)
def test_contact_order_is_checked(monkeypatch, build, q):
    # The contact order is refused before any arc is built.
    monkeypatch.setattr(analysis, "generic_arc", None)
    with pytest.raises(InputError, match=rf"contact order q must be an int >= 1, got {q!r}$"):
        build(blow_up_chart(2), "y1", q, 8)
