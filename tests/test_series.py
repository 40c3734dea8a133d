"""Truncated series: arithmetic, orders, exact expansion."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from conftest import Q, count_calls, fe, fev, sexpr, to_sympy, tser, var
from jetspace.errors import DenominatorNotUnit, PrecisionTooLow
from jetspace.exact import BaseField, FieldElement, SparsePolynomial
from jetspace.exprs import parse_series_expression
from jetspace.series import (
    OrderValue,
    SeriesExpression,
    TruncatedSeries,
    truncated_product,
)


class TestOrderValue:
    def test_min_mixed(self):
        assert OrderValue.finite(3).min(OrderValue.at_least(5)) == OrderValue.finite(3)
        assert OrderValue.finite(7).min(OrderValue.at_least(5)) == OrderValue.at_least(5)
        assert OrderValue.at_least(4).min(OrderValue.at_least(9)) == OrderValue.at_least(4)
        # boundary: anything at least 5 cannot beat an exact 5
        assert OrderValue.finite(5).min(OrderValue.at_least(5)) == OrderValue.finite(5)


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
        # Never reduced: t^2/t is refused although the quotient is t.
        with pytest.raises(DenominatorNotUnit):
            SeriesExpression.t_power(Q, 2) / SeriesExpression.t_power(Q, 1)

    def test_coefficients_are_polynomials(self):
        u = fev("u")
        assert SeriesExpression(Q, [u / fe(2)]).num == SeriesExpression(Q, [fe(Fraction(1, 2)) * u]).num
        with pytest.raises(ValueError):
            SeriesExpression(Q, [u / (fe(1) + u)])


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
    # The saturating sum: an AtLeast operand keeps the sum an AtLeast.
    ord_a, ord_b = a.order(), b.order()
    summed = OrderValue(ord_a.bound + ord_b.bound, ord_a.is_finite and ord_b.is_finite)
    assert (a * b).order() == summed.min(OrderValue.at_least((a * b).precision))


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


@pytest.mark.parametrize("exponent, products", [(0, 0), (1, 1), (3, 3), (8, 4)])
def test_expression_power_squares_only_while_bits_remain(monkeypatch, exponent, products):
    """A power is the polynomial powers of numerator and denominator, no expression products."""
    s = sexpr(0, 1, 1) / sexpr(1, 1)
    expected = sexpr(1)
    for _ in range(exponent):
        expected = expected * s
    expression_products = count_calls(monkeypatch, SeriesExpression, ["__mul__"])
    polynomial_products = count_calls(monkeypatch, SparsePolynomial, ["__mul__"])
    power = s**exponent
    assert expression_products == []
    assert len(polynomial_products) == 2 * products
    assert power == expected


def test_truncate_beyond_precision_raises():
    with pytest.raises(PrecisionTooLow):
        tser([1], 3).truncate(4)


def test_truncate_below_precision_one_raises():
    # A precision below 1 must not slice coefficients off the end.
    for precision in (0, -1):
        with pytest.raises(ValueError):
            tser([1, 2, 3], 3).truncate(precision)


def test_from_coefficients_below_precision_one_raises():
    # A precision below 1 must not slice coefficients off the end.
    for precision in (0, -1):
        with pytest.raises(ValueError):
            TruncatedSeries.from_coefficients(Q, [1, 2, 3], precision)


def test_shift_down_by_a_negative_power_raises():
    # A negative power must not slice coefficients off the end.
    with pytest.raises(ValueError):
        tser([1, 2, 3], 3).shift_down(-1)


def test_t_power_with_a_negative_exponent_raises():
    # A negative exponent must not build the constant 1.
    with pytest.raises(ValueError):
        SeriesExpression.t_power(Q, -1)
    assert SeriesExpression.t_power(Q, 0).expand(2) == TruncatedSeries(Q, [1, 0])


def test_shift_down_requires_zero_prefix():
    with pytest.raises(ValueError):
        tser([1, 0, 0], 3).shift_down(1)
    shifted = tser([0, 0, 5], 4).shift_down(2)
    assert shifted == tser([5, 0], 2)


T = sympy.Symbol("t")


def _random_coefficient(rng, scalar=False):
    """Zero, a rational, or a rational multiple of the transcendental u.

    With ``scalar`` the same draws give a plain rational scalar instead
    (never a multiple of u).
    """
    roll = rng.random()
    if roll < 0.3:
        return 0 if scalar else fe(0)
    value = Q.coerce(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    if scalar:
        return value
    value = fe(value)
    return value * fev("u") if roll > 0.8 else value


def _sympy_series(coeffs):
    return sum(to_sympy(c) * T**i for i, c in enumerate(coeffs))


@pytest.mark.parametrize("seed", range(8))
def test_expand_matches_sympy_series(seed):
    rng = random.Random(seed)
    num = [_random_coefficient(rng) for _ in range(rng.randint(1, 5))]
    den = [fe(rng.choice([-3, -1, 1, 2]))] + [
        _random_coefficient(rng) for _ in range(rng.randint(0, 3))
    ]
    precision = rng.randint(1, 8)
    expanded = SeriesExpression(Q, num, den).expand(precision)
    reference = sympy.series(_sympy_series(num) / _sympy_series(den), T, 0, precision).removeO()
    reference = sympy.expand(reference)
    assert expanded.precision == precision
    for k, c in enumerate(expanded.coeffs):
        assert sympy.cancel(to_sympy(c) - reference.coeff(T, k)) == 0


@pytest.mark.parametrize(
    "seed, scalar",
    [pytest.param(seed, False, id=str(seed)) for seed in range(12)]
    + [pytest.param(seed, True, id=f"scalar-{seed}") for seed in range(12)],
)
def test_product_matches_sympy_with_zero_prefixes(seed, scalar):
    rng = random.Random(100 + seed)
    factors = []
    for _ in range(2):
        precision = rng.randint(1, 7)
        prefix = rng.randint(0, precision)
        zero, one = (0, 1) if scalar else (fe(0), fe(1))
        coeffs = [zero] * prefix + [_random_coefficient(rng, scalar) for _ in range(precision - prefix)]
        if prefix < precision and not coeffs[prefix]:
            coeffs[prefix] = one
        factors.append((coeffs, prefix))
    (a, za), (b, zb) = factors
    product = TruncatedSeries(Q, a) * TruncatedSeries(Q, b)
    expected_precision = min(len(a) + zb, len(b) + za)
    assert product.precision == expected_precision
    assert all(isinstance(c, FieldElement) != scalar for c in product.coeffs)
    reference = sympy.expand(_sympy_series(a) * _sympy_series(b))
    for k, c in enumerate(product.coeffs):
        assert sympy.cancel(to_sympy(c) - reference.coeff(T, k)) == 0


@pytest.mark.parametrize("p", [None, 2, 3, 5])
@pytest.mark.parametrize("seed", range(6))
def test_k_rational_expansion_matches_field_elements(seed, p, monkeypatch):
    """Constant coefficients expand on raw scalars, with the values of the field-element route."""
    field = BaseField(p)
    rng = random.Random(f"k-rational-{seed}-{p}")
    num = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
    den = [rng.choice([c for c in range(1, 7) if p is None or c % p])] + [
        rng.randint(-6, 6) for _ in range(rng.randint(1, 3))
    ]
    expression = SeriesExpression(field, [fe(c, field) for c in num], [fe(c, field) for c in den])
    assert expression.is_k_rational()
    precision = rng.randint(1, 30)
    scalar = expression.expand(precision)
    monkeypatch.setattr(SeriesExpression, "is_k_rational", lambda self: False)
    lifted = expression.expand(precision)
    assert scalar.is_scalar and not lifted.is_scalar
    assert scalar == lifted and str(scalar) == str(lifted)
    if p is not None:
        assert all(type(c) is int and 0 <= c < p for c in scalar.coeffs)


class TestScalarSeries:
    """Series over Q whose coefficients are plain rational scalars."""

    def test_padding_and_zero_are_scalars(self):
        series = TruncatedSeries.from_coefficients(Q, [0, 3], 4)
        assert series.coeffs == (0, 3, 0, 0)
        assert all(type(c) is int for c in series.coeffs)
        assert series.order() == OrderValue.finite(1)
        assert series.shift_down(1).coeffs == (3, 0, 0)
        assert TruncatedSeries.from_coefficients(Q, [0, 0], 3).order() == OrderValue.at_least(3)

    @pytest.mark.parametrize("coeffs", [[1, -1, 0], [0, Fraction(-1, 2), 3], [0, 0, 0], [Fraction(3, 4), 1, -2]])
    def test_rendering_matches_field_elements(self, coeffs):
        scalar = TruncatedSeries(Q, coeffs)
        lifted = TruncatedSeries(Q, [fe(c) for c in coeffs])
        assert str(scalar) == str(lifted)
        assert str(scalar - scalar * scalar) == str(lifted - lifted * lifted)

    def test_prime_field_scalars_reduce_when_built(self):
        f5 = BaseField(5)
        series = TruncatedSeries(f5, [7, 5])
        assert series.coeffs == (2, 0)
        assert series.order() == OrderValue.finite(0)
        assert TruncatedSeries.from_coefficients(f5, [10, -1], 3).coeffs == (0, 4, 0)
        # 3 * 4 = 12 wraps to 2 in GF(5).
        three = TruncatedSeries.from_coefficients(f5, [3], 2)
        four = TruncatedSeries.from_coefficients(f5, [4], 2)
        assert (three * four).coeffs == (2, 0)
        assert (three + four).coeffs == (2, 0)
        assert (three - four).coeffs == (4, 0)
        assert (-three).coeffs == (2, 0)
        # 4 * 4 = 16 wraps to 1, so 4 + 4t squares to 1 + 2t + t^2.
        square = TruncatedSeries(f5, [4, 4, 0]) * TruncatedSeries(f5, [4, 4, 0])
        assert square.coeffs == (1, 2, 1)
        assert TruncatedSeries(f5, [Fraction(1, 2), 0]).coeffs == (3, 0)

    def test_prime_field_elements_and_polynomials_reduce(self):
        f5 = BaseField(5)
        three = TruncatedSeries.from_coefficients(f5, [fe(3, f5)], 2)
        four = TruncatedSeries.from_coefficients(f5, [fe(4, f5)], 2)
        product = three * four
        assert product.coeffs[0] == fe(2, f5)
        assert product.coeffs[0].num.terms == {(): 2}
        # Polynomials reduce mod p themselves, so the kernel takes the jet
        # equations' plain coefficient lists as they are.
        p3, p4, p1 = (SparsePolynomial.constant(f5, c) for c in (3, 4, 1))
        zero = f5.fe_zero.num
        product = truncated_product([p3, p1], [p4, zero], 2, zero)
        assert product[0].terms == {(): 2}
        assert product[1] == p4


def _reference_product(a, b, length, zero):
    """The product term by term onto ``zero``, in (i ascending, j ascending) order."""
    out = [zero] * length
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            if i + j < length and ca and cb:
                out[i + j] = out[i + j] + ca * cb
    return out


def _random_polynomial(rng, field):
    """Zero, a constant, or a short sum of terms in u and v with small coefficients."""
    u, v = SparsePolynomial.variable(field, "u"), SparsePolynomial.variable(field, "v")
    poly = SparsePolynomial.zero(field)
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        coeff = Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3])) if field.p is None else rng.randint(-5, 5)
        poly = poly + SparsePolynomial.constant(field, coeff) * u ** rng.randint(0, 2) * v ** rng.randint(0, 2)
    return poly


def _kernel_factors(rng, field, kind):
    """Two coefficient lists of one kind, with zero prefixes and a product that cancels."""
    u, v = SparsePolynomial.variable(field, "u"), SparsePolynomial.variable(field, "v")
    zero = SparsePolynomial.zero(field)
    factors = [
        [zero] * rng.randint(0, 2) + [_random_polynomial(rng, field) for _ in range(rng.randint(1, 6))]
        for _ in range(2)
    ]
    if rng.random() < 0.3:
        # (u + v t)(u - v t) = u^2 - v^2 t^2: the t coefficient cancels to zero.
        factors = [[u, v], [u, -v]]
    if kind == "polynomial":
        return factors
    if kind == "unit-denominator":
        return [[FieldElement.from_poly(c) for c in coeffs] for coeffs in factors]
    one = SparsePolynomial.constant(field, 1)

    def denominator():
        scale = rng.choice([c for c in (1, 2, 3) if field.p is None or c % field.p])
        return one + (u if rng.random() < 0.5 else v * v).scale(scale)

    return [[FieldElement(c, denominator()) for c in coeffs] for coeffs in factors]


def _terms(poly):
    """A polynomial's terms with the type of each coefficient, so 2 and Fraction(2) differ."""
    return {mono: (type(c), c) for mono, c in poly.terms.items()}


@pytest.mark.parametrize("p", [None, 2, 3, 5])
@pytest.mark.parametrize("kind", ["polynomial", "unit-denominator", "other-denominator"])
@pytest.mark.parametrize("seed", range(8))
def test_product_kernel_matches_term_by_term_reference(seed, kind, p):
    """One dict per coefficient gives the term-by-term product, canonical and zero-free.

    Field elements with other denominators keep the term-by-term path, so
    their unreduced representatives are the reference's exactly.
    """
    field = BaseField(p)
    rng = random.Random(f"kernel-{seed}-{kind}-{p}")
    a, b = _kernel_factors(rng, field, kind)
    zero = field.fe_zero.num if kind == "polynomial" else field.fe_zero
    full = len(a) + len(b) - 1
    for length in {full, max(1, full - 2), 1}:
        got = truncated_product(a, b, length, zero)
        expected = _reference_product(a, b, length, zero)
        assert len(got) == length
        for g, e in zip(got, expected):
            if kind == "polynomial":
                assert _terms(g) == _terms(e)
            else:
                assert _terms(g.num) == _terms(e.num) and _terms(g.den) == _terms(e.den)
            for poly in (g,) if kind == "polynomial" else (g.num, g.den):
                assert all(_canonical(c, p) for c in poly.terms.values())


def _canonical(c, p):
    """A stored coefficient: nonzero, an int in range(p) over GF(p), an int when integral over Q."""
    if p:
        return type(c) is int and 0 < c < p
    return c != 0 and (type(c) is int or c.denominator > 1)


@pytest.mark.parametrize("lift", [False, True], ids=["polynomial", "unit-denominator"])
def test_polynomial_product_adds_no_polynomials(monkeypatch, lift):
    """Plain lists of polynomials (the jet equations' path), and series of field elements with denominator 1."""
    u, v = var("u"), var("v")
    a, b = [u, v, u * v, v], [v, u + v, u]
    if lift:
        a, b = [FieldElement.from_poly(c) for c in a], [FieldElement.from_poly(c) for c in b]
    zero = Q.fe_zero if lift else Q.fe_zero.num
    expected = _reference_product(a, b, 3, zero)
    adds = count_calls(monkeypatch, SparsePolynomial, ["__add__"])
    product = (TruncatedSeries(Q, a) * TruncatedSeries(Q, b)).coeffs if lift else truncated_product(a, b, 3, zero)
    assert adds == []
    assert list(product) == expected


def _unit_expression(rng):
    """An expression in t and u, unit at t = 0, with its numerator and denominator in sympy."""
    num = [fe(rng.choice([-1, 2, 3]))] + [_random_coefficient(rng) for _ in range(rng.randint(0, 3))]
    num.append(fe(rng.randint(1, 3)) * fev("u"))
    den = [fe(rng.choice([-3, 1, 2]))] + [_random_coefficient(rng) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.5:
        den = [fe(1)]
    return SeriesExpression(Q, num, den), _sympy_series(num), _sympy_series(den)


@pytest.mark.parametrize("seed", range(6))
def test_expression_arithmetic_matches_sympy(seed):
    """+ - * / ** give the unreduced numerator and denominator, and their expansion."""
    rng = random.Random(f"expression-arithmetic-{seed}")
    (x, xn, xd), (y, yn, yd) = _unit_expression(rng), _unit_expression(rng)
    k = rng.randint(0, 3)
    same = sympy.expand(xd - yd) == 0

    def plus(sign):
        return (xn + sign * yn, xd) if same else (xn * yd + sign * yn * xd, xd * yd)

    cases = [
        (x + y, plus(1)),
        (x - y, plus(-1)),
        (x * y, (xn * yn, xd * yd)),
        (x / y, (xn * yd, xd * yn)),
        (x**k, (xn**k, xd**k)),
    ]
    precision = rng.randint(1, 8)
    for value, (num, den) in cases:
        assert sympy.expand(to_sympy(value.num) - num) == 0
        assert sympy.expand(to_sympy(value.den) - den) == 0
        series = sympy.expand(sympy.series(num / den, T, 0, precision).removeO())
        expanded = value.expand(precision)
        assert all(sympy.cancel(to_sympy(c) - series.coeff(T, i)) == 0 for i, c in enumerate(expanded.coeffs))


def test_parsed_polynomial_expression_has_unit_denominator():
    value = parse_series_expression("t^2*(1 + a*t)^2", Q, ("a",))
    assert value.den == SparsePolynomial.constant(Q, 1)
    assert value.num == var("t") ** 2 * (SparsePolynomial.constant(Q, 1) + var("a") * var("t")) ** 2
    expanded = value.expand(6)
    assert all(c.den == SparsePolynomial.constant(Q, 1) for c in expanded.coeffs)
    assert [str(c) for c in expanded.coeffs] == ["0", "0", "1", "2*a", "a^2", "0"]
