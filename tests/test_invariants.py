"""Diagonalization over truncated series rings and Fitting invariants."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import Q, affine_space, cusp_variety, sexpr, tser, whitney_variety
from jetspace.arcs import generic_arc, make_arc
from jetspace.errors import MatrixTooLarge, PrecisionTooLow
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
        profile = smith_orders([row], 2, level=1)
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

    @pytest.mark.parametrize("shape", [(9, 9), (1, 9), (9, 1)])
    def test_bound_is_checked_before_any_minor(self, shape, monkeypatch):
        # The bound holds for the whole call, whichever index needs no minor.
        from jetspace import invariants

        computed = []
        monkeypatch.setattr(invariants, "minors", lambda *a: computed.append(a) or [])
        rows, cols = shape
        with pytest.raises(MatrixTooLarge):
            fitting_minor_oracle([[tser([1], 4)] * cols] * rows)
        assert computed == []

    def test_one_table_serves_every_index(self, monkeypatch):
        # Each minor of a 4x4 matrix once: 36 * 2 + 16 * 3 + 4 products.
        rng = random.Random(41)
        matrix = [[tser([rng.randint(-9, 9) for _ in range(6)], 24) for _ in range(4)] for _ in range(4)]
        products = []
        mul = TruncatedSeries.__mul__
        monkeypatch.setattr(TruncatedSeries, "__mul__", lambda a, b: products.append(1) or mul(a, b))
        fitting_minor_oracle(matrix)
        assert len(products) <= 124


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
    return [[TruncatedSeries(Q, [c.constant_value() for c in entry.coeffs]) for entry in row] for row in matrix]


@pytest.mark.parametrize("precision", [24, 4])
def test_scalar_and_field_element_coefficients_agree(precision):
    rng = random.Random(1703 + precision)
    for _ in range(40):
        matrix, cols = _random_matrix(rng, precision)
        scalar = _as_scalar_series(matrix)
        assert all(type(c) is int for row in scalar for entry in row for c in entry.coeffs)
        assert smith_orders(scalar, cols) == smith_orders(matrix, cols)
        for level in (1, precision - 1):
            assert smith_orders(scalar, cols, level) == smith_orders(matrix, cols, level)
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
    profiles = {n: profile_of_omega(arc, n) for n in range(9)}
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
    bettis = [profile_of_omega(arc, n).betti for n in range(9)]
    assert all(a >= b for a, b in zip(bettis, bettis[1:]))
    assert bettis[0] == 2 and bettis[-1] == 1


# The level-n profile derived from the arc-level pivots equals a fresh
# diagonalization at level n: every catalog arc, every level below the
# refined precision, including precision-limited arcs at a low cap.
@pytest.mark.parametrize("start, cap", [(4, 4), (8, 16), (16, 64)])
def test_at_level_matches_profile_of_omega_on_catalog(start, cap):
    from jetspace.catalog import _catalog_arcs

    limited = 0
    for key, name, arc in _catalog_arcs(start):
        profile, arc = refined_profile_of_omega(arc, cap)
        limited += profile.precision_limited
        for n in range(profile.precision):
            assert profile.at_level(n) == profile_of_omega(arc, n), (key, name, n)
    assert limited


@pytest.mark.parametrize("e", [1, 2])
def test_at_level_on_limited_whitney_arc_at_cap_4(e):
    arc = make_arc(whitney_variety(), [SeriesExpression.t_power(Q, e), sexpr(0), sexpr(0)], 4)
    profile, arc = refined_profile_of_omega(arc, 4)
    assert profile.precision_limited and profile.precision == 4
    for n in range(4):
        assert profile.at_level(n) == profile_of_omega(arc, n)
    with pytest.raises(PrecisionTooLow):
        profile.at_level(4)


def test_at_level_beyond_precision_of_a_resolved_profile():
    # A profile with no undecided block serves every level.
    arc = make_arc(cusp_variety(), [SeriesExpression.t_power(Q, 2), SeriesExpression.t_power(Q, 3)], 6)
    profile = profile_of_omega(arc)
    assert not profile.precision_limited
    finer = arc.with_precision(13)
    for n in range(13):
        assert profile.at_level(n) == profile_of_omega(finer, n)


def test_at_level_needs_an_arc_level_profile():
    arc = make_arc(cusp_variety(), [SeriesExpression.t_power(Q, 2), SeriesExpression.t_power(Q, 3)], 6)
    with pytest.raises(ValueError):
        profile_of_omega(arc, 3).at_level(2)
