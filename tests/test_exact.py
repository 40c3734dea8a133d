"""Exact arithmetic: scalars, polynomials, fractions, rank, transcendence degree."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import symbols
from sympy.polys.domains import GF, QQ
from sympy.polys.matrices import DomainMatrix

from conftest import Q, fe, fev, to_sympy, var
from jetspace.errors import DivisionByZero, InputError, NotPrime
from jetspace.exact import (
    BaseField,
    FieldElement,
    SparsePolynomial,
    echelon_rank_profile,
    matrix_rank,
    transcendence_degree,
)


class TestBaseField:
    def test_rationals(self):
        assert Q.characteristic == 0
        assert Q.coerce(3) == Fraction(3)

    def test_prime_field_arithmetic(self):
        f5 = BaseField(5)
        assert f5.mul(3, 2) == 1
        assert f5.inv(2) == 3
        assert f5.coerce(Fraction(1, 2)) == 3

    @pytest.mark.parametrize("p", [0, 1, 4, 9, 15])
    def test_composite_rejected(self, p):
        with pytest.raises(NotPrime):
            BaseField(p)

    def test_twenty_digit_prime_accepted(self):
        assert BaseField(100000000000000000039).characteristic == 100000000000000000039

    def test_strong_pseudoprime_rejected(self):
        # 151 * 751 * 28351 passes Miller-Rabin to the bases 2, 3, 5 and 7.
        with pytest.raises(NotPrime):
            BaseField(3215031751)

    def test_characteristic_ceiling(self):
        with pytest.raises(InputError):
            BaseField(3317044064679887385961981)

    def test_coerce_bad_denominator(self):
        with pytest.raises(DivisionByZero):
            BaseField(3).coerce(Fraction(1, 3))


class TestFieldElement:
    def test_rational_add(self):
        assert fe(Fraction(1, 2)) + fe(Fraction(1, 3)) == fe(Fraction(5, 6))

    def test_inverse_pair(self):
        u1 = fev("u1")
        assert u1 * u1.inverse() == fe(1)

    def test_prime_field_product(self):
        f5 = BaseField(5)
        assert fe(3, f5) * fe(2, f5) == fe(1, f5)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            fe(1) / fe(0)

    def test_unreduced_equality(self):
        u = fev("u")
        one = fe(1)
        # u/u equals 1 without any gcd computation
        assert u / u == one
        # (u^2 - 1)/(u - 1) equals u + 1 by cross-multiplication
        lhs = (u * u - one) / (u - one)
        assert lhs == u + one

    def test_equality_is_transitive_across_representatives(self):
        u = fev("u")
        one, two = fe(1), fe(2)
        a = (u * u - one) / (u - one)
        b = u + one
        c = ((u + one) * (u + two)) / (u + two)
        assert a == b and b == c and a == c
        assert a == a


def _random_field_element(rng, names=("u1", "u2")):
    def rand_poly():
        poly = SparsePolynomial.zero(Q)
        for _ in range(rng.randint(1, 3)):
            term = SparsePolynomial.constant(Q, Fraction(rng.randint(-4, 4)))
            for name in names:
                term = term * SparsePolynomial.variable(Q, name) ** rng.randint(0, 2)
            poly = poly + term
        return poly

    num = rand_poly()
    den = rand_poly()
    while den.is_zero():
        den = rand_poly()
    return FieldElement(num, den)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_field_axioms_randomized(seed):
    rng = random.Random(seed)
    a, b, c = (_random_field_element(rng) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == fe(0)
    if not b.is_zero():
        assert (a / b) * b == a


class TestPolyDerivative:
    def test_power_rule(self):
        x, y = var("x"), var("y")
        f = y * y - x ** 3
        assert f.derivative("x") == SparsePolynomial.constant(Q, -3) * x * x
        assert f.derivative("y") == SparsePolynomial.constant(Q, 2) * y

    def test_char_p_vanishing(self):
        f2 = BaseField(2)
        x = SparsePolynomial.variable(f2, "x")
        assert (x * x).derivative("x").is_zero()

    def test_absent_variable_is_zero(self):
        y = var("y")
        assert y.derivative("x").is_zero()


class TestMatrixRank:
    def test_identity(self):
        one, zero = fe(1), fe(0)
        m = [[one if i == j else zero for j in range(3)] for i in range(3)]
        assert matrix_rank(m) == 3

    def test_proportional_rows(self):
        u1 = fev("u1")
        assert matrix_rank([[u1, u1 * u1], [fe(1), u1]]) == 1

    def test_zero_matrix(self):
        zero = fe(0)
        assert matrix_rank([[zero, zero], [zero, zero]]) == 0

    def test_transpose_invariance_randomized(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = [[_random_field_element(rng) for _ in range(cols)] for _ in range(rows)]
            mt = [[m[i][j] for i in range(rows)] for j in range(cols)]
            assert matrix_rank(m) == matrix_rank(mt)

    def test_agrees_with_echelon_profile(self):
        # Reference: sympy's rank over the same rational function field.
        # Sparse-ish rows, the shape this helper actually sees in use.
        rng = random.Random(11)
        for field, domain in ((Q, QQ), (BaseField(5), GF(5))):
            reference = domain.frac_field(*symbols("u1 u2 u3"))
            for _ in range(15):
                rows = rng.randint(1, 4)
                cols = rng.randint(1, 4)
                m = [[_random_sparse_poly(rng, field) for _ in range(cols)] for _ in range(rows)]
                expected = [_sympy_rank(m[:k], cols, reference) for k in range(1, rows + 1)]
                assert echelon_rank_profile([[row] for row in m], field) == expected
                as_elements = [[FieldElement.from_poly(p) for p in row] for row in m]
                assert matrix_rank(as_elements) == expected[-1]


def _random_sparse_poly(rng, field=Q):
    poly = SparsePolynomial.zero(field)
    for _ in range(rng.randint(0, 2)):
        term = SparsePolynomial.constant(field, Fraction(rng.randint(-3, 3)))
        name = rng.choice(("u1", "u2", "u3"))
        term = term * SparsePolynomial.variable(field, name) ** rng.randint(0, 1)
        poly = poly + term
    return poly


def _sympy_rank(rows, cols, domain):
    entries = [[domain.from_sympy(to_sympy(p)) for p in row] for row in rows]
    return DomainMatrix(entries, (len(rows), cols), domain).rank()


class TestTranscendenceDegree:
    def test_two_independent(self):
        u1, u2 = fev("u1"), fev("u2")
        assert transcendence_degree([u1, u2, u1 * u2]).value == 2

    def test_constants(self):
        assert transcendence_degree([fe(3), fe(Fraction(1, 2))]).value == 0

    def test_powers_of_one_variable(self):
        u1 = fev("u1")
        assert transcendence_degree([u1 * u1, u1 * u1 * u1]).value == 1

    def test_char_p_flag(self):
        f3 = BaseField(3)
        u = FieldElement.variable(f3, "u")
        result = transcendence_degree([u])
        assert result.value == 1
        assert result.char_p_jacobian
        assert not transcendence_degree([fev("u")]).char_p_jacobian

    def test_invariance_under_permutation_and_combination(self):
        rng = random.Random(3)
        for _ in range(10):
            elems = [_random_field_element(rng) for _ in range(3)]
            base = transcendence_degree(elems).value
            shuffled = list(elems)
            rng.shuffle(shuffled)
            assert transcendence_degree(shuffled).value == base
            extended = elems + [elems[0] * elems[1] + elems[2]]
            assert transcendence_degree(extended).value == base


def test_polynomial_rendering_is_deterministic():
    x, y = var("x"), var("y")
    p = y * y - x ** 3 + SparsePolynomial.constant(Q, Fraction(1, 2))
    assert str(p) == "-x^3 + y^2 + 1/2"
