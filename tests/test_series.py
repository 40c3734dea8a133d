"""Truncated series: arithmetic, orders, inversion, exact expansion."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Q, fe, fev, sexpr, tser
from jetspace.errors import DenominatorNotUnit, NotAUnit, PrecisionTooLow
from jetspace.series import (
    OrderValue,
    SeriesExpression,
    TruncatedSeries,
)


class TestOrderValue:
    def test_min_mixed(self):
        assert OrderValue.finite(3).min(OrderValue.at_least(5)) == OrderValue.finite(3)
        assert OrderValue.finite(7).min(OrderValue.at_least(5)) == OrderValue.at_least(5)
        assert OrderValue.at_least(4).min(OrderValue.at_least(9)) == OrderValue.at_least(4)
        # boundary: anything at least 5 cannot beat an exact 5
        assert OrderValue.finite(5).min(OrderValue.at_least(5)) == OrderValue.finite(5)

    def test_saturating_sum(self):
        assert OrderValue.finite(2).plus(OrderValue.finite(3)) == OrderValue.finite(5)
        summed = OrderValue.finite(2).plus(OrderValue.at_least(5))
        assert not summed.is_finite
        assert summed.bound == 7


class TestSeriesArith:
    def test_difference_of_squares(self):
        a = tser([1, 1], 3)
        b = tser([1, -1], 3)
        assert a * b == tser([1, 0, -1], 3)

    def test_truncation_drops_high_terms(self):
        a = tser([0, 0, 1], 3)
        b = tser([0, 0, 0], 3)  # t^3 is already beyond precision 3
        total = a + b
        assert total == tser([0, 0, 1], 3)

    def test_transcendental_coefficients(self):
        u1, u2 = fev("u1"), fev("u2")
        a = TruncatedSeries.from_coefficients(Q, [fe(0), u1], 4)
        b = TruncatedSeries.from_coefficients(Q, [fe(0), u2], 4)
        prod = a * b
        assert prod.coeffs[2] == u1 * u2
        assert prod.order() == OrderValue.finite(2)

    def test_product_precision_rule(self):
        # order-2 factor times order-3 factor, both precision 6: the first
        # unknown contribution is t^2 * t^6, so the product is exact mod t^8.
        a = tser([0, 0, 1, 1], 6)
        b = tser([0, 0, 0, 2], 6)
        prod = a * b
        assert prod.precision == 8
        assert prod.order() == OrderValue.finite(5)


class TestInvert:
    def test_geometric_series(self):
        assert tser([1, -1], 3).invert() == tser([1, 1, 1], 3)

    def test_constant(self):
        assert tser([2], 2).invert() == tser([Fraction(1, 2), 0], 2)

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            tser([0, 1], 3).invert()


class TestExpand:
    def test_geometric(self):
        e = sexpr(1) / sexpr(1, -1)
        assert e.expand(4) == tser([1, 1, 1, 1], 4)

    def test_truncation_boundary(self):
        e = sexpr(0, 0, 1)
        expanded = e.expand(2)
        assert expanded.order() == OrderValue.at_least(2)

    def test_long_division_oracle(self):
        # (t + t^2)/(1 + t): expected coefficients from plain long division.
        num = [Fraction(0), Fraction(1), Fraction(1), Fraction(0), Fraction(0)]
        den = [Fraction(1), Fraction(1)]
        expected = []
        carry = list(num)
        for k in range(5):
            c = carry[k]
            expected.append(c)
            for i in range(1, len(den)):
                if k + i < len(carry):
                    carry[k + i] -= c * den[i]
        e = sexpr(0, 1, 1) / sexpr(1, 1)
        assert e.expand(5) == tser(expected, 5)
        assert expected == [0, 1, 0, 0, 0]

    def test_denominator_not_unit(self):
        with pytest.raises(DenominatorNotUnit):
            SeriesExpression(Q, [fe(1)], [fe(0), fe(1)])


class TestOrder:
    def test_finite(self):
        assert tser([0, 0, 0, 2, 1], 6).order() == OrderValue.finite(3)

    def test_all_zero(self):
        assert tser([], 6).order() == OrderValue.at_least(6)

    def test_exact_cancellation(self):
        u1 = fev("u1")
        a = TruncatedSeries.from_coefficients(Q, [fe(0), u1], 2)
        b = TruncatedSeries.from_coefficients(Q, [fe(0), u1], 2)
        assert (a - b).order() == OrderValue.at_least(2)


def _random_series(rng, precision):
    coeffs = []
    for _ in range(precision):
        coeffs.append(fe(0) if rng.random() < 0.4 else fe(Fraction(rng.randint(-5, 5))))
    return TruncatedSeries.from_coefficients(Q, coeffs, precision)


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=10**6))
def test_order_of_product_is_saturating_sum(seed):
    rng = random.Random(seed)
    a = _random_series(rng, rng.randint(2, 8))
    b = _random_series(rng, rng.randint(2, 8))
    assert (a * b).order() == a.order().plus(b.order()).min(
        OrderValue.at_least((a * b).precision)
    )


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_expand_prefix_consistency(seed):
    rng = random.Random(seed)
    num = [fe(Fraction(rng.randint(-4, 4))) for _ in range(rng.randint(1, 4))]
    den = [fe(Fraction(rng.choice((1, 2, 3, -1))))] + [
        fe(Fraction(rng.randint(-3, 3))) for _ in range(rng.randint(0, 3))
    ]
    e = SeriesExpression(Q, num, den)
    big = e.expand(12)
    for p in (1, 3, 7, 12):
        assert big.truncate(p) == e.expand(p)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_invert_twice_is_identity(seed):
    rng = random.Random(seed)
    series = _random_series(rng, rng.randint(2, 8))
    coeffs = list(series.coeffs)
    coeffs[0] = fe(Fraction(rng.choice((1, -1, 2, 3))))
    unit = TruncatedSeries(Q, coeffs)
    assert unit.invert().invert() == unit


def test_truncate_beyond_precision_raises():
    with pytest.raises(PrecisionTooLow):
        tser([1], 3).truncate(4)


def test_shift_down_requires_zero_prefix():
    with pytest.raises(ValueError):
        tser([1, 0, 0], 3).shift_down(1)
    shifted = tser([0, 0, 5], 4).shift_down(2)
    assert shifted == tser([5, 0], 2)
