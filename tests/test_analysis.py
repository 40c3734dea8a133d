"""Fiber dimensions, embedding dimensions, BTR, divisorial arcs."""

import itertools
from types import SimpleNamespace

import pytest
import sympy
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from conftest import (
    Q,
    affine_space,
    blowup_chart_2d,
    cusp_variety,
    fe,
    fev,
    level_profile,
    sexpr,
    to_sympy,
    var,
    whitney_variety,
)
from jetspace.analysis import (
    _stabilizations,
    btr_check,
    divisorial_arc,
    embdim_arc,
    embdim_jet,
    fiber_dim_formula,
    jet_codim,
    mather_discrepancy_check,
    oracle_check,
)
from jetspace.arcs import Arc, GenericComponent, generic_arc, make_arc
from jetspace.catalog import _catalog_arcs, blow_up_chart
from jetspace import invariants
from jetspace.errors import InputError, InternalInvariantViolation, MissingDeclaredDim, PrecisionLimited
from jetspace.exact import BaseField, SparsePolynomial, TranscendenceDegree
from jetspace.geometry import MorphismPresentation, VarietyPresentation
from jetspace.invariants import refined_profile_of_omega
from jetspace.jets import jet_jacobian_corank
from jetspace.series import OrderValue, SeriesExpression


def _cusp_arc(precision=12):
    return make_arc(
        cusp_variety(),
        [SeriesExpression.t_power(Q, 2), SeriesExpression.t_power(Q, 3)],
        precision,
    )


@pytest.mark.parametrize("level", [-1, True])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda n: fiber_dim_formula(_cusp_arc(), n), id="fiber_dim_formula"),
        pytest.param(lambda n: embdim_jet(_cusp_arc(), n), id="embdim_jet"),
        pytest.param(lambda n: refined_profile_of_omega(_cusp_arc(), 12)[0].at_level(n), id="at_level"),
        pytest.param(lambda n: _cusp_arc().truncate(n), id="truncate"),
        pytest.param(
            lambda n: generic_arc(affine_space(2, BaseField(2)), [0, 0], 8).residue_dimension_profile(n),
            id="residue_dimension_profile",
        ),
    ],
)
def test_level_below_zero_or_bool_is_an_input_error(call, level):
    with pytest.raises(InputError, match="jet level must be an int >= 0"):
        call(level)


class TestFiberDim:
    def test_cusp_level_three(self):
        fiber = fiber_dim_formula(_cusp_arc(), 3)
        assert fiber.value == 7
        assert fiber.jet_betti == 1
        assert fiber.fitting_order == OrderValue.finite(3)

    def test_cusp_level_one_uses_jet_betti(self):
        fiber = fiber_dim_formula(_cusp_arc(), 1)
        assert fiber.jet_betti == 2
        assert fiber.fitting_order == OrderValue.finite(0)
        assert fiber.value == 4

    def test_affine_plane(self):
        arc = generic_arc(affine_space(2), [0, 0], 12)
        assert fiber_dim_formula(arc, 5).value == 12


class TestEmbdimJet:
    def test_cusp(self):
        assert embdim_jet(_cusp_arc(), 3).value == 7

    def test_generic_line_jet_is_generic_point(self):
        arc = generic_arc(affine_space(1, names=("x",)), [0], 12)
        assert embdim_jet(arc, 2).value == 0

    def test_constant_origin_jet(self):
        arc = make_arc(affine_space(1, names=("x",)), [sexpr(0)], 12)
        assert embdim_jet(arc, 2).value == 3


class TestEmbdimArc:
    def test_divisorial_contact_one_stabilizes(self):
        chart = blowup_chart_2d()
        beta, _ = divisorial_arc(chart, "u", 1, 16)
        report = embdim_arc(beta, n_max=8)
        assert report.stabilized and report.value == 1
        assert report.codim_sequence() == [1] * 9

    def test_cusp_point_is_suspected_infinite(self):
        report = embdim_arc(_cusp_arc(16), n_max=8)
        assert not report.stabilized
        assert report.verdict() == "NotStabilizedUpTo(8)"
        assert report.codim_sequence() == list(range(1, 10))

    def test_singular_generic_arc_grows(self):
        arc = make_arc(
            whitney_variety(),
            [GenericComponent(1, 1), sexpr(0), sexpr(0)],
            16,
        )
        report = embdim_arc(arc, n_max=8, cap=48)
        assert not report.stabilized
        assert report.ambient_rank == 3
        seq = report.codim_sequence()
        assert all(b > a for a, b in zip(seq, seq[1:]))


    @pytest.mark.xfail(
        strict=True,
        reason="known wrong answer: the stabilization window reads a residue plateau as convergence",
    )
    def test_cusp_with_ten_transcendentals_does_not_stabilize(self):
        """x = s^2, y = s^3, s = t + sum (1 + a_i) t^(i+2) for i < 10: D = 1, so s_n grows.

        The residue dimension is bounded by the 10 transcendentals, so
        s_n >= (n+1) D - 10 grows without bound; today the sequence reads
        3 at levels 2-12 (residue dimensions 0,0,0,1,...,10) and the report
        says Stabilized(3).
        """
        s = sexpr(0, 1, *(fev(f"a{i}") + fe(1) for i in range(10)))
        report = embdim_arc(make_arc(cusp_variety(), [s ** 2, s ** 3], 16), n_max=12)
        assert report.ambient_rank == 1
        assert not report.stabilized, report.verdict()


class TestJetCodim:
    def test_blowup_image_contact_one(self):
        chart = blowup_chart_2d()
        _, alpha = divisorial_arc(chart, "u", 1, 16)
        report = jet_codim(alpha, "betti", n_max=8)
        assert report.stabilized and report.value == 2

    def test_cusp_matches_embdim(self):
        emb = embdim_arc(_cusp_arc(16), n_max=8)
        codim = jet_codim(_cusp_arc(16), "betti", n_max=8)
        assert emb.codim_sequence() == codim.codim_sequence()
        assert not codim.stabilized

    def test_generic_arc_of_line(self):
        arc = generic_arc(affine_space(1, names=("x",)), [0], 16)
        report = jet_codim(arc, "betti", n_max=8)
        assert report.stabilized and report.value == 0

    def test_declared_source(self):
        arc = generic_arc(affine_space(2), [0, 0], 16)
        report = jet_codim(arc, "declared", n_max=8)
        assert report.dim_source == "declared"
        assert report.stabilized and report.value == 0

    def test_missing_declared_dim(self):
        space = VarietyPresentation(Q, ("x",), ())
        arc = generic_arc(space, [0], 16)
        with pytest.raises(MissingDeclaredDim):
            jet_codim(arc, "declared", n_max=4)

    @pytest.mark.parametrize(
        "dim_source, n_max, window, error",
        [
            ("betti", -1, 3, InputError),
            ("betti", 8, 0, InputError),
            ("volume", 8, 3, InputError),
            ("declared", 8, 3, MissingDeclaredDim),
        ],
    )
    def test_inputs_are_checked_before_any_refinement(self, monkeypatch, dim_source, n_max, window, error):
        calls = []
        diagonalize = invariants.smith_orders

        def spy(*args, **kwargs):
            calls.append(args)
            return diagonalize(*args, **kwargs)

        monkeypatch.setattr(invariants, "smith_orders", spy)
        arc = generic_arc(VarietyPresentation(Q, ("x",), ()), [0], 16)
        with pytest.raises(error):
            _stabilizations(arc, [("jet-codim", dim_source)], n_max, window, 64)
        assert calls == []

    def test_a_decreasing_sequence_is_an_internal_violation(self, monkeypatch):
        # D = 1 on the arc t of the line, so residue dimensions 0, 3 give s_0 = 1, s_1 = -1.
        monkeypatch.setattr(
            Arc, "residue_dimension_profile", lambda self, n: TranscendenceDegree([0] + [3] * n, False)
        )
        arc = make_arc(affine_space(1, names=("x",)), [sexpr(0, 1)], 12)
        with pytest.raises(InternalInvariantViolation, match="decreased at level 1"):
            embdim_arc(arc, n_max=4)

    def test_several_sources_from_one_refinement_match_the_single_calls(self):
        requests = [("embdim-arc", "betti"), ("jet-codim", "betti"), ("jet-codim", "declared")]
        for arc in (_cusp_arc(16), generic_arc(affine_space(2), [1, 0], 16)):
            reports = _stabilizations(arc, requests, 8, 3, 64)
            singles = [embdim_arc(arc, 8, 3, 64), jet_codim(arc, "betti", 8, 3, 64)]
            singles.append(jet_codim(arc, "declared", 8, 3, 64))
            assert [r.kind for r in reports] == [kind for kind, _ in requests]
            assert [r.to_json() for r in reports] == [r.to_json() for r in singles]


class TestBtr:
    def test_blowup_contact_one(self):
        chart = blowup_chart_2d()
        beta, _ = divisorial_arc(chart, "u", 1, 16)
        report = btr_check(chart, beta, n_max=8)
        assert report.ord_jacobian == OrderValue.finite(1)
        assert report.source.value == 1
        assert report.target.value == 2
        assert report.smooth_at_center
        assert report.inequalities_hold and report.equality_holds

    def test_identity_morphism(self):
        plane = affine_space(2)
        target = affine_space(2, names=("z1", "z2"))
        ident = MorphismPresentation(
            plane, target, tuple(SparsePolynomial.variable(Q, v) for v in plane.variables)
        )
        beta = generic_arc(plane, [0, 0], 16)
        report = btr_check(ident, beta, n_max=8)
        assert report.ord_jacobian == OrderValue.finite(0)
        assert report.equality_holds
        assert report.source.value == report.target.value

    def test_contact_three_target(self):
        chart = blowup_chart_2d()
        beta, _ = divisorial_arc(chart, "u", 3, 16)
        report = btr_check(chart, beta, n_max=10)
        assert report.ord_jacobian == OrderValue.finite(3)
        assert report.target.value == 6
        assert report.equality_holds

    def test_constant_arc_consistent_infinities(self):
        chart = blowup_chart_2d()
        beta = make_arc(chart.source, [sexpr(0, 1), sexpr(2)], 16)
        report = btr_check(chart, beta, n_max=8)
        assert not report.source.stabilized
        assert not report.target.stabilized
        assert report.inequalities_hold and report.equality_holds


    def test_source_with_generators_smoothness_at_the_center(self):
        # the cusp y^2 = x^3 mapped into the plane by (x, y)
        cusp = cusp_variety()
        f = MorphismPresentation(cusp, affine_space(2, names=("x", "y")), (var("x"), var("y")))
        through_cusp = make_arc(cusp, [SeriesExpression.t_power(Q, 2), SeriesExpression.t_power(Q, 3)], 16)
        off_cusp = make_arc(cusp, [sexpr(1, 2, 1), sexpr(1, 3, 3, 1)], 16)  # ((1+t)^2, (1+t)^3)
        assert btr_check(f, through_cusp).smooth_at_center is False
        assert btr_check(f, off_cusp).smooth_at_center is True


class TestOneRefinement:
    """Every level, level 0 included, is read off one arc-level profile."""

    def test_oracle_levels_match_the_per_level_routes(self):
        cases = [(arc, 64) for _, _, arc in _catalog_arcs(16)]
        # refinement stops at the cap: the whitney arcs come out precision limited
        cases += [(arc, 4) for key, _, arc in _catalog_arcs(1) if key == "whitney"]
        for arc, cap in cases:
            variety = arc.variety
            checks = oracle_check(arc, range(7), cap)
            assert [check.fiber.level for check in checks] == list(range(7))
            for n, check in enumerate(checks):
                fiber = fiber_dim_formula(arc, n, cap)
                jet = fiber.arc.truncate(n)
                assert check.fiber.value == fiber.value, (variety.name, n)
                assert check.fiber.jet_betti == fiber.jet_betti
                assert check.fiber.fitting_order == fiber.fitting_order
                assert check.corank == jet_jacobian_corank(variety, n, jet.coordinates)

    def test_embdim_equals_jet_codim_refines_and_eliminates_once_per_arc(self, monkeypatch):
        from jetspace import catalog, invariants

        refines, eliminations = [], []
        refine, residue = invariants.refined_pullback_profile, Arc.residue_dimension_profile
        monkeypatch.setattr(
            invariants, "refined_pullback_profile", lambda *a: refines.append(a) or refine(*a)
        )
        monkeypatch.setattr(
            Arc, "residue_dimension_profile", lambda arc, n: eliminations.append(n) or residue(arc, n)
        )
        result = catalog.check_embdim_equals_jet_codim()
        assert result.passed and result.cases == 36
        assert (len(refines), len(eliminations)) == (18, 18)

    def test_oracle_equivalence_builds_one_jet_ideal_per_arc(self, monkeypatch):
        from jetspace import catalog, jets

        ideals = []
        build = jets.jet_ideal
        monkeypatch.setattr(jets, "jet_ideal", lambda X, n, square_zero: ideals.append(n) or build(X, n, square_zero))
        result = catalog.check_oracle_equivalence()
        assert result.passed and result.cases == 154
        assert ideals == [6] * 22  # one per arc, at the top level

    @pytest.mark.parametrize("name", ["truncation-compatibility", "betti-monotonicity"])
    def test_level_checks_pull_each_arc_back_once(self, name, monkeypatch):
        from jetspace import catalog

        pullbacks = []
        pull = catalog.pullback_matrix
        monkeypatch.setattr(catalog, "pullback_matrix", lambda *a: pullbacks.append(a) or pull(*a))
        result = dict(catalog._ALL_CHECKS)[name]()
        assert result.passed
        assert len(pullbacks) == 22  # one per arc, for all nine levels

    def test_level_zero_free_rank_is_the_corank_of_the_jacobian_at_the_center(self):
        for key, name, arc in _catalog_arcs(16):
            variety = arc.variety
            profile, arc = refined_profile_of_omega(arc, 64)
            names = [sympy.Symbol(v) for v in variety.variables]
            center = {x: to_sympy(c) for x, c in zip(names, arc.center())}
            jacobian = sympy.Matrix(
                [[sympy.diff(to_sympy(g), x).subs(center) for x in names] for g in variety.generators]
            )
            p = variety.base.p
            if p:
                rank = DomainMatrix.from_Matrix(jacobian).convert_to(GF(p)).rank()
            else:
                rank = jacobian.rank()
            assert profile.at_level(0).betti == len(names) - rank, (key, name)


def test_catalog_documents_are_parsed_once_per_process(monkeypatch):
    from jetspace import catalog

    parses = []
    parse = catalog.parse_document
    monkeypatch.setattr(catalog, "parse_document", lambda raw: parses.append(raw) or parse(raw))
    catalog.build_catalog.cache_clear()
    entries = catalog.build_catalog()
    assert len(parses) == len(entries) == 10  # one document per variety
    assert catalog.build_catalog() is entries
    assert len(parses) == 10
    with pytest.raises(TypeError):  # no caller can change the shared arcs
        entries[0].arc_specs["extra"] = entries[0].arc_specs["origin"]


class TestDivisorial:
    def test_contact_orders_on_identity_line(self):
        line = affine_space(1, names=("x",))
        target = affine_space(1, names=("z",))
        ident = MorphismPresentation(line, target, (var("x"),))
        for q, expected in ((1, 1), (2, 2)):
            _, alpha = divisorial_arc(ident, "x", q, 16)
            report = jet_codim(alpha, "betti", n_max=8)
            assert report.stabilized and report.value == expected

    def test_source_embdim_equals_q(self):
        chart = blowup_chart_2d()
        for q in (1, 2, 3, 4):
            beta, _ = divisorial_arc(chart, "u", q, 16)
            report = embdim_arc(beta, n_max=10)
            assert report.stabilized and report.value == q

    @pytest.mark.parametrize("divisor_var", [1.7, True, None])
    def test_divisor_var_is_a_name_or_an_int(self, divisor_var):
        with pytest.raises(InputError, match="name or a 1-based index"):
            divisorial_arc(blow_up_chart(2), divisor_var, 1, 8)

    def test_divisor_var_by_index(self):
        chart = blowup_chart_2d()
        beta, _ = divisorial_arc(chart, 1, 2, 12)
        assert not beta.expansions[0].coeffs[0]
        assert not beta.expansions[0].coeffs[1]

    def test_requires_smooth_chart(self):
        bad_source = cusp_variety()
        target = affine_space(1, names=("z",))
        f = MorphismPresentation(bad_source, target, (var("x"),))
        with pytest.raises(InputError):
            divisorial_arc(f, "x", 1, 8)


class TestMather:
    def test_plane_blowup(self):
        chart = blowup_chart_2d()
        for q in (1, 2, 3, 4):
            report = mather_discrepancy_check(chart, "u", q, precision=20)
            assert report.mather_discrepancy == 1
            assert report.expected_embdim == 2 * q
            assert report.passed
            assert report.center_is_closed_point
            assert report.dim_bound_holds

    def test_space_blowup(self):
        src = affine_space(3, names=("u", "v", "w"))
        tgt = affine_space(3, names=("x", "y", "z"))
        u = var("u")
        chart = MorphismPresentation(src, tgt, (u, u * var("v"), u * var("w")))
        for q in (1, 2):
            report = mather_discrepancy_check(chart, "u", q, precision=20)
            assert report.mather_discrepancy == 2
            assert report.expected_embdim == 3 * q
            assert report.passed
            # the lower bound on the discrepancy is tight here
            assert report.mather_discrepancy + 1 == report.target_dim

    def test_off_a_closed_point_the_dim_bound_does_not_apply(self):
        # Along v = 0 the image arc (u, u v) is centered at (u(0), 0), a generic point.
        report = mather_discrepancy_check(blowup_chart_2d(), "v", 1, precision=20)
        assert report.center_is_closed_point is False
        assert report.dim_bound_holds is None
        assert report.mather_discrepancy == 0
        assert report.passed

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_is_the_btr_at_the_divisorial_arc(self, dim, q):
        chart = blow_up_chart(dim)
        divisor = chart.source.variables[0]
        report = mather_discrepancy_check(chart, divisor, q, precision=20, n_max=8, cap=96)
        beta, _ = divisorial_arc(chart, divisor, q, 20)
        btr = btr_check(chart, beta, n_max=8, cap=96)
        assert btr.ord_jacobian == report.btr.ord_jacobian
        assert report.btr.source.to_json() == btr.source.to_json()
        assert report.btr.target.to_json() == btr.target.to_json()
        assert report.btr.ord_jacobian == OrderValue.finite(q * (dim - 1))

    def test_zero_jacobian_is_precision_limited_at_the_cap(self):
        chart = blowup_chart_2d()
        collapse = MorphismPresentation(chart.source, chart.target, (var("u"), var("u")))
        with pytest.raises(PrecisionLimited, match="morphism Jacobian is undetermined") as err:
            mather_discrepancy_check(collapse, "u", 1, precision=20, cap=48)
        assert err.value.bound == 48

    def test_requires_smooth_chart(self):
        f = MorphismPresentation(cusp_variety(), affine_space(1, names=("z",)), (var("x"),))
        with pytest.raises(InputError, match="divisorial arcs are built on a smooth affine-space chart"):
            mather_discrepancy_check(f, "x", 1, precision=20)


class TestExtendedVerdicts:
    """BTR and Mather verdicts for every mix of stabilized and suspected infinite sides.

    Stub reports stand in for ``embdim_arc`` and the Jacobian order, so the
    mixes that no catalog arc reaches are pinned too: a side that did not
    stabilize, and an order known only from below, count as infinity.
    """

    # (source, target, Jacobian order) -> (inequalities_hold, equality_holds when smooth);
    # None is a side that did not stabilize, "3+" the order AtLeast(3).
    BTR = {
        (2, 1, 3): (False, False),
        (2, 2, 3): (True, False),
        (2, 5, 3): (True, True),
        (2, 7, 3): (False, False),
        (2, None, 3): (False, False),
        (None, 1, 3): (False, False),
        (None, 2, 3): (False, False),
        (None, 5, 3): (False, False),
        (None, 7, 3): (False, False),
        (None, None, 3): (True, True),
        (2, 1, "3+"): (False, False),
        (2, 2, "3+"): (True, False),
        (2, 5, "3+"): (True, False),
        (2, 7, "3+"): (True, False),
        (2, None, "3+"): (True, True),
        (None, 1, "3+"): (False, False),
        (None, 2, "3+"): (False, False),
        (None, 5, "3+"): (False, False),
        (None, 7, "3+"): (False, False),
        (None, None, "3+"): (True, True),
    }

    @staticmethod
    def _stub(monkeypatch, source_variety, source, target, ord_jac, center_betti=1):
        """btr_check's Jacobian order and its two reports, each side a value or None.

        The source profile's level-0 free rank decides smoothness at the center.
        """
        from jetspace import analysis

        def embdim_arc(arc, *args):
            value = source if arc.variety == source_variety else target
            level0 = SimpleNamespace(betti=center_betti)
            profile = SimpleNamespace(at_level=lambda n: level0)
            return SimpleNamespace(stabilized=value is not None, value=value, arc=arc, arc_profile=profile)

        order = SimpleNamespace(fitting_invariant=lambda i: ord_jac)
        monkeypatch.setattr(analysis, "refined_pullback_profile", lambda relative, beta, cap: (order, beta))
        monkeypatch.setattr(analysis, "embdim_arc", embdim_arc)

    def test_btr(self, monkeypatch):
        # the cusp y^2 = x^3 mapped into the plane by (x, y): declared dimension 1
        cusp = cusp_variety()
        f = MorphismPresentation(cusp, affine_space(2, names=("x", "y")), (var("x"), var("y")))
        beta = _cusp_arc(4)
        for (source, target, order), (inequalities, equality) in self.BTR.items():
            ord_jac = OrderValue.finite(3) if order == 3 else OrderValue.at_least(3)
            for center_betti, smooth in ((1, True), (2, False)):
                self._stub(monkeypatch, cusp, source, target, ord_jac, center_betti)
                report = btr_check(f, beta)
                case = (source, target, order, smooth)
                assert report.smooth_at_center is smooth, case
                assert report.inequalities_hold is inequalities, case
                assert report.equality_holds is (equality if smooth else None), case

    def test_mather(self, monkeypatch):
        chart = blow_up_chart(2)  # discrepancy 1 along y1: q = 1 expects 2
        for source, target in itertools.product((None, 1, 2), (None, 2, 3)):
            self._stub(monkeypatch, chart.source, source, target, OrderValue.finite(1))
            report = mather_discrepancy_check(chart, "y1", 1, precision=4, n_max=2)
            assert report.expected_embdim == 2
            assert report.source_equals_q is (source == 1), (source, target)
            assert report.target_matches is (target == 2), (source, target)


def test_formula_vs_oracle_on_mixed_arcs():
    arcs = [
        _cusp_arc(10),
        make_arc(
            whitney_variety(),
            [sexpr(1), SeriesExpression.t_power(Q, 1), SeriesExpression.t_power(Q, 1)],
            10,
        ),
        generic_arc(affine_space(2), [1, 0], 10),
    ]
    for arc in arcs:
        assert all(check.match for check in oracle_check(arc, range(5)))


@pytest.mark.parametrize("levels", [[3, -1], [], [2.0]], ids=["negative", "empty", "float"])
def test_oracle_check_refuses_bad_levels(levels):
    with pytest.raises(InputError, match="jet level"):
        oracle_check(_cusp_arc(10), levels)


def test_formula_vs_oracle_random_monomial_curves():
    """y^a = x^b curves with reparametrized monomial arcs, all characteristics.

    Includes degenerate cases (non-reduced curves in characteristic p)
    where every gradient vanishes identically; the fiber formula and the
    jet Jacobian corank must still agree at every liftable jet.
    """
    import random

    from jetspace.exact import BaseField, FieldElement, SparsePolynomial

    rng = random.Random(777)
    for field in (Q, BaseField(2), BaseField(3)):
        for _ in range(6):
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            x = SparsePolynomial.variable(field, "x")
            y = SparsePolynomial.variable(field, "y")
            curve = VarietyPresentation(field, ("x", "y"), (y ** a - x ** b,), declared_dim=1)
            c = field.coerce(rng.choice((1, 2, 3)))
            # the arc s -> (s^a, s^b) reparametrized by s = c*t
            arc = make_arc(
                curve,
                [
                    SeriesExpression.t_power(
                        field, a, FieldElement.from_scalar(field, c**a)
                    ),
                    SeriesExpression.t_power(
                        field, b, FieldElement.from_scalar(field, c**b)
                    ),
                ],
                12,
            )
            for check in oracle_check(arc, range(4), cap=48):
                assert check.match, (field, a, b, check.fiber.level)
            profiles = [level_profile(arc, n) for n in range(5)]
            for m in range(1, 5):
                for n in range(m):
                    for i in range(3):
                        e_m = profiles[m].invariant_factor(i).value
                        e_n = profiles[n].invariant_factor(i).value
                        assert e_n == min(n + 1, e_m)
