"""Diagonalization over truncated series rings and Fitting invariants."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    Q,
    affine_space,
    cusp_variety,
    fe,
    fev,
    level_profile,
    sexpr,
    truncated_smith,
    tser,
    whitney_variety,
)
from jetspace.arcs import generic_arc, make_arc
from jetspace.errors import MatrixTooLarge, PrecisionTooLow
from jetspace.exact import BaseField, as_scalar
from jetspace.invariants import (
    fitting_minor_oracle,
    profile_of_omega,
    refined_profile_of_omega,
    smith_orders,
)
from jetspace.series import OrderValue, SeriesExpression, TruncatedSeries


def _t_power(e, precision):
    coeffs = [0] * e + [1]
    return tser(coeffs, precision)


class TestSmithOrders:
    def test_cusp_pullback_row(self):
        row = [tser([0, 0, 0, 0, -3], 12), tser([0, 0, 0, 2], 12)]
        profile = smith_orders([row], 2)
        assert profile.betti == 1
        assert profile.factors == (3,)
        assert not profile.precision_limited
        assert profile.fitting_invariant(0) == OrderValue.at_least(12)
        assert profile.fitting_invariant(1) == OrderValue.finite(3)
        assert profile.fitting_invariant(2) == OrderValue.finite(0)

    def test_empty_matrix_is_free(self):
        profile = smith_orders([], 2, precision=10)
        assert profile.betti == 2
        assert profile.factors == ()

    def test_precision_is_keyword_only(self):
        # A stale call that passes a level third must not read it as a precision.
        with pytest.raises(TypeError):
            smith_orders([], 2, 10)

    def test_diagonal(self):
        zero = tser([], 10)
        matrix = [[_t_power(1, 10), zero], [zero, _t_power(2, 10)]]
        profile = smith_orders(matrix, 2)
        assert profile.betti == 0
        assert profile.factors == (2, 1)
        assert profile.fitting_invariant(0) == OrderValue.finite(3)
        assert profile.fitting_invariant(1) == OrderValue.finite(1)
        assert profile.fitting_invariant(2) == OrderValue.finite(0)

    def test_finite_level_caps(self):
        row = [tser([0, 0, 0, 0, -3], 12), tser([0, 0, 0, 2], 12)]
        profile = truncated_smith([row], 2, 1)
        assert profile.betti == 2
        assert profile.factors == ()
        assert not profile.precision_limited  # vanishing mod t^2 is genuine
        assert profile.invariant_factor(0) == OrderValue.finite(2)
        assert profile.fitting_invariant(2) == OrderValue.finite(0)

    def test_unresolved_corner_is_flagged(self):
        zero = tser([], 8)
        profile = smith_orders([[_t_power(1, 8), zero], [zero, zero]], 2)
        assert profile.precision_limited
        assert profile.betti == 1


class TestFittingMinorOracle:
    def test_diagonal_minors(self):
        zero = tser([], 10)
        matrix = [[_t_power(1, 10), zero], [zero, _t_power(2, 10)]]
        orders = fitting_minor_oracle(matrix)
        assert orders[0] == OrderValue.finite(3)
        assert orders[1] == OrderValue.finite(1)

    def test_unit_ideal_above_column_count(self):
        matrix = [[_t_power(1, 10)]]
        orders = fitting_minor_oracle(matrix)
        assert orders[1] == OrderValue.finite(0)
        assert len(orders) == 2  # i = 0..N; every Fitting ideal from N on is the unit ideal

    def test_too_large(self):
        zero = tser([], 4)
        with pytest.raises(MatrixTooLarge):
            fitting_minor_oracle([[zero] * 9] * 9)

    # ``shape`` lists the row lengths; ragged rows raise as in ``smith_orders``.
    @pytest.mark.parametrize(
        "shape, kwargs, error, match",
        [
            pytest.param((9,) * 9, {}, MatrixTooLarge, None, id="shape0"),
            pytest.param((9,), {}, MatrixTooLarge, None, id="shape1"),
            pytest.param((1,) * 9, {}, MatrixTooLarge, None, id="shape2"),
            pytest.param((2, 3), {}, ValueError, "rows disagree with num_columns", id="ragged"),
            pytest.param((2, 2), {"num_columns": 3}, ValueError, "rows disagree with num_columns", id="num-columns"),
            pytest.param((1,), {"precision": 0}, ValueError, "precision >= 1", id="precision0"),
            pytest.param((1,), {"precision": -1}, ValueError, "precision >= 1", id="precision-1"),
        ],
    )
    def test_bound_is_checked_before_any_minor(self, shape, kwargs, error, match, monkeypatch):
        # The inputs and the bound hold for the whole call, whichever index needs no minor.
        from jetspace import invariants

        computed = []
        monkeypatch.setattr(invariants, "minors", lambda *a: computed.append(a) or [])
        matrix = [[tser([1], 4)] * cols for cols in shape]
        with pytest.raises(error, match=match):
            fitting_minor_oracle(matrix, **kwargs)
        assert computed == []

    def test_one_table_serves_every_index(self, monkeypatch):
        # Each minor of a 4x4 matrix once: 36 * 2 + 16 * 3 + 4 products.  The
        # factor t makes every residue minor vanish, so every size needs series.
        rng = random.Random(41)
        matrix = [
            [tser([0] + [rng.randint(-9, 9) for _ in range(6)], 24) for _ in range(4)] for _ in range(4)
        ]
        products = []
        mul = TruncatedSeries.__mul__
        monkeypatch.setattr(TruncatedSeries, "__mul__", lambda a, b: products.append(1) or mul(a, b))
        fitting_minor_oracle(matrix)
        assert 0 < len(products) <= 124

    def test_unit_minors_need_no_series_product(self, monkeypatch):
        # Residues forming the identity give a unit minor of every size.
        rng = random.Random(43)
        matrix = [
            [tser([int(i == j)] + [rng.randint(-9, 9) for _ in range(5)], 24) for j in range(4)]
            for i in range(4)
        ]
        products = []
        mul = TruncatedSeries.__mul__
        monkeypatch.setattr(TruncatedSeries, "__mul__", lambda a, b: products.append(1) or mul(a, b))
        assert fitting_minor_oracle(matrix) == [OrderValue.finite(0)] * 5
        assert products == []


def _cofactor_minor_orders(matrix, num_columns, precision):
    """Fitting orders i = 0..N by enumerating every minor, each expanded afresh."""

    def det(m):
        if len(m) == 1:
            return m[0][0]
        acc = None
        for j, top in enumerate(m[0]):
            term = top * det([[row[k] for k in range(len(m)) if k != j] for row in m[1:]])
            if j % 2 == 1:
                term = -term
            acc = term if acc is None else acc + term
        return acc

    orders = []
    for i in range(num_columns + 1):
        size = num_columns - i
        if size == 0:
            orders.append(OrderValue.finite(0))
            continue
        best = OrderValue.at_least(precision)
        for row_idx in itertools.combinations(range(len(matrix)), size):
            for col_idx in itertools.combinations(range(num_columns), size):
                minor = det([[matrix[r][c] for c in col_idx] for r in row_idx])
                best = best.min(minor.truncate(min(minor.precision, precision)).order())
        orders.append(best)
    return orders


def test_all_index_oracle_matches_a_brute_force_enumeration():
    rng = random.Random(1705)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        matrix = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                precision = rng.choice((3, 6, 10))
                if rng.random() < 0.25:
                    row.append(tser([], precision))  # zero to its precision
                else:
                    row.append(tser([rng.randint(-2, 2) for _ in range(4)], precision))
            matrix.append(row)
        precision = min(entry.precision for row in matrix for entry in row)
        assert fitting_minor_oracle(matrix) == _cofactor_minor_orders(matrix, cols, precision)


def _twin_matrix(rng, field, kind):
    """A seeded matrix whose constant terms are often zero or rank deficient.

    ``kind`` is "scalar" (raw base-field scalars) or "transcendental"
    (field elements, some involving the transcendental a).
    """
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    a = fev("a", field)
    zero = 0 if kind == "scalar" else field.fe_zero

    def coeff():
        c = rng.randint(-2, 2)
        if kind == "scalar":
            return c
        return fe(c, field) + a if rng.random() < 0.3 else fe(c, field)

    constants = rng.choice(("random", "zero", "deficient"))
    head = [coeff() for _ in range(cols)]
    matrix = []
    for _ in range(rows):
        if constants == "random":
            residues = [coeff() for _ in range(cols)]
        elif constants == "zero":
            residues = [zero] * cols
        else:  # every row's constant terms a multiple of the first row's
            scale = coeff()
            residues = [scale * c for c in head]
        row = []
        for residue in residues:
            precision = rng.choice((1, 3, 6, 10))
            if rng.random() < 0.2:
                coeffs = [zero]  # zero to its precision
            else:
                coeffs = [residue] + [coeff() for _ in range(4)]
            row.append(TruncatedSeries.from_coefficients(field, coeffs, precision))
        matrix.append(row)
    return matrix, cols


@pytest.mark.parametrize("kind", ["scalar", "transcendental"])
@pytest.mark.parametrize("p", [None, 2, 3], ids=["Q", "GF2", "GF3"])
def test_residue_decided_oracle_matches_the_cofactor_twin(p, kind):
    field = Q if p is None else BaseField(p)
    rng = random.Random(2207 + (p or 0) + len(kind))
    seen = set()
    for _ in range(80):
        matrix, cols = _twin_matrix(rng, field, kind)
        precision = min(entry.precision for row in matrix for entry in row)
        orders = fitting_minor_oracle(matrix)
        assert orders == _cofactor_minor_orders(matrix, cols, precision)
        for o in orders[:-1]:
            seen.add("unit" if o == OrderValue.finite(0) else "finite" if o.is_finite else "bound")
    # Units decided on residues, positive orders and bare bounds from series minors.
    assert seen == {"unit", "finite", "bound"}


@pytest.mark.parametrize("lift", [False, True], ids=["scalar", "field-element"])
def test_gf2_residue_minors_are_reduced(lift):
    # The residue matrix has integer determinant 2, which vanishes in GF(2).
    f2 = BaseField(2)
    residues = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    scalar = (lambda c: fe(c, f2)) if lift else int
    matrix = [[TruncatedSeries.from_coefficients(f2, [scalar(c), scalar(1)], 6) for c in row] for row in residues]
    assert fitting_minor_oracle(matrix)[0] == OrderValue.finite(1)


def _random_matrix(rng, precision=24):
    rows = rng.randint(1, 4)
    cols = rng.randint(1, 4)
    matrix = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            coeffs = [
                Fraction(rng.randint(-9, 9)) if rng.random() > 0.45 else Fraction(0)
                for _ in range(6)
            ]
            row.append(tser(coeffs, precision))
        matrix.append(row)
    return matrix, cols


def _orders_match(a, b):
    return a.is_finite == b.is_finite and (not a.is_finite or a.value == b.value)


def _as_scalar_series(matrix):
    return [[TruncatedSeries(Q, [as_scalar(c) for c in entry.coeffs]) for entry in row] for row in matrix]


@pytest.mark.parametrize("precision", [24, 4])
def test_scalar_and_field_element_coefficients_agree(precision):
    rng = random.Random(1703 + precision)
    for _ in range(40):
        matrix, cols = _random_matrix(rng, precision)
        scalar = _as_scalar_series(matrix)
        assert all(type(c) is int for row in scalar for entry in row for c in entry.coeffs)
        assert smith_orders(scalar, cols) == smith_orders(matrix, cols)
        for level in (1, precision - 1):
            assert truncated_smith(scalar, cols, level) == truncated_smith(matrix, cols, level)
        assert fitting_minor_oracle(scalar) == fitting_minor_oracle(matrix)


def test_smith_matches_minor_oracle_randomized():
    rng = random.Random(1234)
    for _ in range(60):
        matrix, cols = _random_matrix(rng)
        profile = smith_orders(matrix, cols)
        for i, minor_order in enumerate(fitting_minor_oracle(matrix)):
            assert _orders_match(profile.fitting_invariant(i), minor_order)


def _apply_random_unimodular(rng, matrix, precision):
    """Random elementary row/column operations over the series ring."""
    rows = len(matrix)
    cols = len(matrix[0])
    m = [list(r) for r in matrix]
    units = (tser([1], precision), tser([2], precision), tser([1, 1], precision))
    for _ in range(6):
        op = rng.randrange(4)
        if op == 0 and rows > 1:
            i, j = rng.sample(range(rows), 2)
            factor = rng.choice(units) * _t_power(rng.randint(0, 2), precision)
            m[i] = [a + factor * b for a, b in zip(m[i], m[j])]
        elif op == 1 and cols > 1:
            i, j = rng.sample(range(cols), 2)
            factor = rng.choice(units) * _t_power(rng.randint(0, 2), precision)
            for row in m:
                row[i] = row[i] + factor * row[j]
        elif op == 2:
            i = rng.randrange(rows)
            m[i] = [rng.choice(units) * a for a in m[i]]
        else:
            i = rng.randrange(cols)
            unit = rng.choice(units)
            for row in m:
                row[i] = unit * row[i]
    return m


def test_unimodular_invariance():
    rng = random.Random(99)
    for _ in range(25):
        matrix, cols = _random_matrix(rng, precision=20)
        base = smith_orders(matrix, cols)
        transformed = _apply_random_unimodular(rng, matrix, 20)
        other = smith_orders(transformed, cols)
        assert (base.betti, base.factors) == (other.betti, other.factors)


class TestProfileOfOmega:
    def test_affine_space(self):
        arc = generic_arc(affine_space(3), [0, 0, 0], 8)
        profile = profile_of_omega(arc)
        assert profile.betti == 3
        assert profile.factors == ()

    def test_cusp_arc(self):
        arc = make_arc(
            cusp_variety(),
            [SeriesExpression.t_power(Q, 2), SeriesExpression.t_power(Q, 3)],
            12,
        )
        profile, _ = refined_profile_of_omega(arc)
        assert (profile.betti, profile.factors) == (1, (3,))

    def test_singular_containment_is_precision_limited(self):
        arc = make_arc(
            whitney_variety(),
            [SeriesExpression.t_power(Q, 1), SeriesExpression.constant(Q, 0), SeriesExpression.constant(Q, 0)],
            12,
        )
        profile, refined = refined_profile_of_omega(arc, cap=48)
        assert profile.betti == 3
        assert profile.precision_limited
        assert refined.precision == 48  # refinement ran to the cap


def test_truncation_compatibility_cusp():
    arc = make_arc(
        cusp_variety(),
        [SeriesExpression.t_power(Q, 2), SeriesExpression.t_power(Q, 3)],
        12,
    )
    profiles = {n: level_profile(arc, n) for n in range(9)}
    for m in range(1, 9):
        for n in range(m):
            for i in range(3):
                e_m = profiles[m].invariant_factor(i).value
                e_n = profiles[n].invariant_factor(i).value
                assert e_n == min(n + 1, e_m)


def test_betti_monotone_cusp():
    arc = make_arc(
        cusp_variety(),
        [SeriesExpression.t_power(Q, 2), SeriesExpression.t_power(Q, 3)],
        12,
    )
    bettis = [level_profile(arc, n).betti for n in range(9)]
    assert all(a >= b for a, b in zip(bettis, bettis[1:]))
    assert bettis[0] == 2 and bettis[-1] == 1


# The level-n profile derived from the arc-level pivots equals a fresh
# diagonalization of the matrix truncated at t^(n+1): every catalog arc,
# every level below the refined precision, including precision-limited
# arcs at a low cap.
@pytest.mark.parametrize("start, cap", [(4, 4), (8, 16), (16, 64)])
def test_at_level_matches_profile_of_omega_on_catalog(start, cap):
    from jetspace.catalog import _catalog_arcs

    limited = 0
    for key, name, arc in _catalog_arcs(start):
        profile, arc = refined_profile_of_omega(arc, cap)
        limited += profile.precision_limited
        for n in range(profile.precision):
            assert profile.at_level(n) == level_profile(arc, n), (key, name, n)
    assert limited


@pytest.mark.parametrize("e", [1, 2])
def test_at_level_on_limited_whitney_arc_at_cap_4(e):
    arc = make_arc(whitney_variety(), [SeriesExpression.t_power(Q, e), sexpr(0), sexpr(0)], 4)
    profile, arc = refined_profile_of_omega(arc, 4)
    assert profile.precision_limited and profile.precision == 4
    for n in range(4):
        assert profile.at_level(n) == level_profile(arc, n)
    with pytest.raises(PrecisionTooLow):
        profile.at_level(4)


def test_at_level_beyond_precision_of_a_resolved_profile():
    # A profile with no undecided block serves every level.
    arc = make_arc(cusp_variety(), [SeriesExpression.t_power(Q, 2), SeriesExpression.t_power(Q, 3)], 6)
    profile = profile_of_omega(arc)
    assert not profile.precision_limited
    finer = arc.with_precision(13)
    for n in range(13):
        assert profile.at_level(n) == level_profile(finer, n)


def test_at_level_needs_an_arc_level_profile():
    arc = make_arc(cusp_variety(), [SeriesExpression.t_power(Q, 2), SeriesExpression.t_power(Q, 3)], 6)
    with pytest.raises(ValueError):
        profile_of_omega(arc).at_level(3).at_level(2)
