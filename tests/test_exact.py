"""Exact arithmetic: scalars, polynomials, fractions, rank, transcendence degree."""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, isprime, symbols
from sympy.polys.domains import GF, QQ
from sympy.polys.matrices import DomainMatrix

from conftest import Q, count_calls, eliminated_transcendence_degree, fe, fev, to_sympy, var
from jetspace import exact
from jetspace.errors import DivisionByZero, InputError, NotPrime, UnknownVariable
from jetspace.exprs import parse_series_expression
from jetspace.exact import (
    BaseField,
    FieldElement,
    PowerTable,
    SparsePolynomial,
    as_scalar,
    echelon_rank_profile,
    matrix_rank,
    transcendence_degree,
)


class TestBaseField:
    def test_rationals(self):
        assert Q.p is None
        assert Q.coerce(3) == Fraction(3)

    def test_prime_field_arithmetic(self):
        f5 = BaseField(5)
        assert f5.inv(2) == 3
        assert f5.coerce(Fraction(1, 2)) == 3

    @pytest.mark.parametrize("p", [0, 1, 4, 9, 15])
    def test_composite_rejected(self, p):
        with pytest.raises(NotPrime):
            BaseField(p)

    def test_twenty_digit_prime_accepted(self):
        assert BaseField(100000000000000000039).p == 100000000000000000039

    def test_strong_pseudoprime_rejected(self):
        # 151 * 751 * 28351 passes Miller-Rabin to the bases 2, 3, 5 and 7.
        with pytest.raises(NotPrime):
            BaseField(3215031751)

    # n - 1 = 2^s * d with s >= 2, so the witness loop squares; the last is
    # the largest prime below the characteristic ceiling.
    @pytest.mark.parametrize("p", [61, 97, 65537, 998244353, 3317044064679887385961813])
    def test_prime_whose_witness_loop_squares_accepted(self, p):
        assert BaseField(p).p == p

    def test_strong_pseudoprime_to_bases_below_41_rejected(self):
        # A strong pseudoprime to every prime base from 2 to 37: only base 41 refutes it.
        with pytest.raises(NotPrime):
            BaseField(318665857834031151167461)

    def test_primality_matches_sympy(self):
        rng = random.Random(20170721)
        sample = [rng.randrange(42, 10**7) for _ in range(3000)]
        sample += [10**18 + 2 * rng.randrange(10**6) + 1 for _ in range(300)]
        assert [exact._is_prime(n) for n in sample] == [isprime(n) for n in sample]

    def test_characteristic_ceiling(self):
        with pytest.raises(InputError):
            BaseField(3317044064679887385961981)

    def test_coerce_bad_denominator(self):
        with pytest.raises(DivisionByZero):
            BaseField(3).coerce(Fraction(1, 3))


class TestCanonicalRationals:
    """Over Q a scalar is an int exactly when it is integral."""

    def test_coerce_integral_fraction_is_int(self):
        two = Q.coerce(Fraction(6, 3))
        assert type(two) is int and two == 2
        half = Q.coerce(Fraction(2, 4))
        assert type(half) is Fraction and half == Fraction(1, 2)

    def test_inverse_is_exact(self):
        third = Q.inv(3)
        assert third == Fraction(1, 3)
        assert type(third) is Fraction
        three = Q.inv(Fraction(1, 3))
        assert type(three) is int and three == 3

    def test_integral_results_are_stored_as_ints(self):
        x = var("x")
        half_x = x.scale(Fraction(1, 2))
        total = half_x + half_x
        assert total.terms == {(("x", 1),): 1}
        assert type(total.terms[(("x", 1),)]) is int
        assert type((x * x).scale(Fraction(1, 2)).derivative("x").terms[(("x", 1),)]) is int
        assert type((half_x * x.scale(2)).terms[(("x", 2),)]) is int
        assert type((x.scale(Fraction(3, 2)) - half_x).terms[(("x", 1),)]) is int
        assert str(total) == "x"


class TestFieldElement:
    def test_rational_add(self):
        assert fe(Fraction(1, 2)) + fe(Fraction(1, 3)) == fe(Fraction(5, 6))

    def test_inverse_pair(self):
        u1 = fev("u1")
        assert u1 * (fe(1) / u1) == fe(1)

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

    def test_equality_with_base_field_scalars_is_by_value(self):
        u = fev("u")
        assert fe(2) == 2 and 2 == fe(2)
        assert fe(Fraction(-1, 2)) == Fraction(-1, 2) and Fraction(-1, 2) == fe(Fraction(-1, 2))
        assert fe(0) == 0 and fe(3) == Fraction(6, 2)
        assert fe(2) != 3 and fe(Fraction(1, 2)) != 2
        assert (u + fe(1)) / (u + fe(1)) == 1
        assert u != 0 and u / fev("v") != 1
        assert fe(2) != "2"
        assert [fe(1), fe(0)] == [1, 0]

    def test_equality_with_scalars_is_mod_p(self):
        f5 = BaseField(5)
        assert fe(2, f5) == 7 and 12 == fe(2, f5) and fe(4, f5) == -1
        assert fe(3, f5) == Fraction(1, 2)  # 2 * 3 = 6 = 1 mod 5
        assert fe(2, f5) != 3
        # No element of GF(5) has denominator 5.
        assert fe(1, f5) != Fraction(1, 5)
        assert fe(1, BaseField(2)) == 3 and fe(0, BaseField(2)) == 2

    @pytest.mark.parametrize("field", [Q, BaseField(2), BaseField(3)], ids=["Q", "GF2", "GF3"])
    def test_numerator_equal_to_denominator_is_stored_as_one(self, field):
        a, one = fev("a", field), fe(1, field)
        for p in (a * a + a + one, (a * a + a + one) * fe(5, field), a * fev("b", field) + a):
            ratio = FieldElement(p.num, p.num)
            assert ratio._den_is_one() and str(ratio) == "1"
            assert ratio.num.terms == one.num.terms

    def test_ci_arc_coefficient_equal_to_one_prints_without_a_fraction(self):
        # (t + t^2/(1 + a))^2: the t^2 coefficient used to be stored as
        # (a^2 + 2*a + 1)/(a^2 + 2*a + 1).
        s = parse_series_expression("(t + t^2/(1 + a))^2", Q, ["a"])
        coeff = s.expand(6).coeffs[2]
        assert coeff._den_is_one() and str(coeff) == "1"
        assert str(s.expand(4)).startswith("t^2 + ((2*a + 2)/(a^2 + 2*a + 1))*t^3")

    def test_as_polynomial_reads_a_constant_denominator(self):
        a = fev("a") + fe(1)
        assert a.as_polynomial() is a.num  # denominator 1: no copy
        two_thirds_a = FieldElement(var("a").scale(2), SparsePolynomial.constant(Q, 3))
        assert two_thirds_a.as_polynomial() == var("a").scale(Fraction(2, 3))
        f5 = BaseField(5)
        a5 = SparsePolynomial.variable(f5, "a")
        # Over GF(p) the light normalization makes a constant denominator 1; a raw pair keeps it.
        assert FieldElement._raw(a5, SparsePolynomial.constant(f5, 2)).as_polynomial() == a5.scale(3)
        assert (fe(1) / fev("a")).as_polynomial() is None
        assert (fev("a") / (fev("a") + fe(1))).as_polynomial() is None

    # field, numerator, nonzero denominator, their quotient; 2 is zero in GF(2), 3 and 5 are 1.
    # An integral quotient over Q is an int.
    AS_SCALAR_CASES = [(Q, 2, 4, Fraction(1, 2)), (Q, 6, 3, 2), (BaseField(5), 3, 2, 4), (BaseField(2), 3, 5, 1)]

    @pytest.mark.parametrize("field, num, den, scalar", AS_SCALAR_CASES, ids=["Q", "Q-integral", "GF5", "GF2"])
    def test_as_scalar_reads_a_constant_denominator(self, field, num, den, scalar):
        const = partial(SparsePolynomial.constant, field)
        u = SparsePolynomial.variable(field, "u")
        for value in (FieldElement(const(num), const(den)), FieldElement._raw(const(num), const(den))):
            got = as_scalar(value)
            assert got == scalar and type(got) is type(scalar)
        assert as_scalar(FieldElement(const(0), const(3))) == 0
        assert as_scalar(FieldElement(u, const(den))) is None
        assert as_scalar(FieldElement(const(1), const(1) + u)) is None
        for raw in (0, 1, scalar):
            assert as_scalar(raw) is raw

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
    while not den:
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
    if b:
        assert (a / b) * b == a


@pytest.mark.parametrize("exponent, products", [(0, 0), (1, 1), (2, 2), (3, 3), (8, 4), (11, 6)])
def test_power_squares_only_while_bits_remain(monkeypatch, exponent, products):
    x, y = var("x"), var("y")
    base = x + y
    expected = SparsePolynomial.constant(Q, 1)
    for _ in range(exponent):
        expected = expected * base
    calls = []
    multiply = SparsePolynomial.__mul__

    def counting(self, other):
        calls.append(other)
        return multiply(self, other)

    monkeypatch.setattr(SparsePolynomial, "__mul__", counting)
    assert base**exponent == expected
    assert len(calls) == products


class TestPolyDerivative:
    def test_power_rule(self):
        x, y = var("x"), var("y")
        f = y * y - x ** 3
        assert f.derivative("x") == SparsePolynomial.constant(Q, -3) * x * x
        assert f.derivative("y") == SparsePolynomial.constant(Q, 2) * y

    def test_char_p_vanishing(self):
        f2 = BaseField(2)
        x = SparsePolynomial.variable(f2, "x")
        assert not (x * x).derivative("x")

    def test_absent_variable_is_zero(self):
        y = var("y")
        assert not y.derivative("x")


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
                assert matrix_rank(m) == expected[-1]
                as_elements = [[FieldElement.from_poly(p) for p in row] for row in m]
                assert matrix_rank(as_elements) == expected[-1]
        # Residue-shaped blocks: several rows each, 6-10 columns, at least 70%
        # zero entries, with empty blocks, zero rows and duplicate rows.
        for field, domain in ((Q, QQ), (BaseField(2), GF(2)), (BaseField(3), GF(3)), (BaseField(5), GF(5))):
            reference = domain.frac_field(*symbols("u1 u2 u3 u4"))
            for _ in range(12):
                cols = rng.randint(6, 10)
                blocks = _residue_blocks(rng, field, cols)
                rows = [row for block in blocks for row in block]
                zeros = sum(not p for row in rows for p in row)
                assert zeros >= 0.7 * cols * len(rows)
                expected, seen = [], []
                for block in blocks:
                    seen += block
                    expected.append(_sympy_rank(seen, cols, reference) if seen else 0)
                assert echelon_rank_profile(blocks, field) == expected
                assert matrix_rank(rows) == expected[-1]
                as_elements = [[FieldElement.from_poly(p) for p in row] for row in rows]
                assert matrix_rank(as_elements) == expected[-1]

    def test_denominator_one_rows_are_not_rescaled(self, monkeypatch):
        # Integer content 1 and no common monomial, so no stripping rescales either.
        u1, u2 = var("u1"), var("u2")
        rows = [[u1, u2 + u1 * u1, SparsePolynomial.zero(Q)], [u2, u1 + u2, u1 * u2]]
        as_elements = [[FieldElement.from_poly(p) for p in row] for row in rows]
        calls = count_calls(monkeypatch, SparsePolynomial, ("scale",))
        cleared = exact._clear_row_denominators(as_elements[0])
        assert all(poly is entry.num for poly, entry in zip(cleared, as_elements[0]))
        assert matrix_rank(as_elements) == 2
        assert calls == []

    @pytest.mark.parametrize("denominators", ["constant", "nonconstant"])
    def test_rows_with_denominators_rank_as_sympy(self, denominators):
        # Each second row is a multiple of the first, and its entries' denominators
        # differ from the first row's.
        a, b, u1, u2, two = fev("a"), fev("b"), fev("u1"), fev("u2"), fe(2)
        if denominators == "constant":
            pinned = [[a / two, b], [a, two * b]]
        else:
            pinned = [[fe(1) / u1, fe(1) / u2], [fe(1), u1 / u2]]
        assert matrix_rank(pinned) == _sympy_rank(pinned, 2, QQ.frac_field(*symbols("a b u1 u2"))) == 1
        rng = random.Random(f"denominators-{denominators}")
        for field, domain in ((Q, QQ), (BaseField(3), GF(3)), (BaseField(5), GF(5))):
            reference = domain.frac_field(*symbols("u1 u2 u3"))
            for _ in range(12):
                rows, cols = rng.randint(1, 4), rng.randint(1, 4)
                m = []
                for _ in range(rows):
                    if m and rng.random() < 0.4:
                        # A combination of earlier rows: a rank drop that needs each
                        # entry's own denominator.
                        c1, c2 = (
                            rng.choice((field.fe_one, fev("u1", field), fev("u2", field)))
                            * fe(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 4))), field)
                            for _ in range(2)
                        )
                        r1, r2 = rng.choice(m), rng.choice(m)
                        m.append([c1 * x + c2 * y for x, y in zip(r1, r2)])
                        continue
                    row = []
                    for _ in range(cols):
                        num = _random_sparse_poly(rng, field)
                        if denominators == "constant":
                            den = SparsePolynomial.constant(field, rng.choice((1, 2, 4, -2)))
                        else:
                            den = _random_sparse_poly(rng, field) or SparsePolynomial.constant(field, 1)
                        row.append(FieldElement(num, den))
                    m.append(row)
                if denominators == "constant" and field.p is None:
                    assert all(entry.den.is_constant() for row in m for entry in row)
                assert matrix_rank(m) == _sympy_rank(m, cols, reference)

    def test_reduces_only_nonzero_columns(self, monkeypatch):
        # Lower-bidiagonal: u_i on the diagonal, u_(100+i) below it.  Each
        # update meets two nonzero columns, so the work must not scale with
        # the twelve columns of a dense row (264 products).
        zero = SparsePolynomial.zero(Q)
        rows = [
            [var(f"u{i}") if j == i else var(f"u{100 + i}") if j == i - 1 else zero for j in range(12)]
            for i in range(12)
        ]
        calls = []
        mul = SparsePolynomial.__mul__
        monkeypatch.setattr(SparsePolynomial, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        assert echelon_rank_profile([rows], Q) == [12]
        assert len(calls) <= 33


def _residue_blocks(rng, field, cols):
    """Blocks of sparse rows: a row has at most 30% nonzero entries."""
    zero = SparsePolynomial.zero(field)
    blocks, rows = [], []
    for _ in range(rng.randint(2, 4)):
        block = []
        for _ in range(rng.choice((0, 2, 3))):
            draw = rng.random()
            if rows and draw < 0.15:
                row = list(rng.choice(rows))
            elif draw < 0.25:
                row = [zero] * cols
            else:
                row = [zero] * cols
                for j in rng.sample(range(cols), rng.randint(1, cols * 3 // 10)):
                    row[j] = _residue_entry(rng, field)
            rows.append(row)
            block.append(row)
        blocks.append(block)
    return blocks


def _residue_entry(rng, field):
    """A nonzero polynomial of degree <= 2 in u1..u4, like a gradient entry."""
    poly = SparsePolynomial.zero(field)
    while not poly:
        for _ in range(rng.randint(1, 3)):
            coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3) if field.p is None else 1)
            term = SparsePolynomial.constant(field, coeff)
            for _ in range(rng.randint(0, 2)):
                term = term * var(rng.choice(("u1", "u2", "u3")), field)
            poly = poly + term
    return poly


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


def _trdeg(elements, field=Q):
    """Transcendence degree of one block of elements."""
    return transcendence_degree([elements], field)


class TestTranscendenceDegree:
    def test_two_independent(self):
        u1, u2 = fev("u1"), fev("u2")
        assert _trdeg([u1, u2, u1 * u2]).ranks == [2]

    def test_constants(self):
        assert _trdeg([fe(3), fe(Fraction(1, 2))]).ranks == [0]

    def test_powers_of_one_variable(self):
        u1 = fev("u1")
        assert _trdeg([u1 * u1, u1 * u1 * u1]).ranks == [1]

    def test_char_p_flag(self):
        f3 = BaseField(3)
        u = FieldElement.variable(f3, "u")
        result = _trdeg([u], f3)
        assert result.ranks == [1]
        assert result.char_p_jacobian
        assert not _trdeg([fev("u")]).char_p_jacobian

    def test_invariance_under_permutation_and_combination(self):
        rng = random.Random(3)
        for _ in range(10):
            elems = [_random_field_element(rng) for _ in range(3)]
            base = _trdeg(elems).ranks
            shuffled = list(elems)
            rng.shuffle(shuffled)
            assert _trdeg(shuffled).ranks == base
            extended = elems + [elems[0] * elems[1] + elems[2]]
            assert _trdeg(extended).ranks == base

    def test_rank_after_each_block(self):
        u1, u2 = fev("u1"), fev("u2")
        blocks = [[fe(2)], [u1 * u1], [u1 + fe(1)], [u1 * u2, u2]]
        result = transcendence_degree(blocks, Q)
        assert result == ([0, 1, 1, 2], False)

    def test_names_are_read_from_the_elements(self):
        # Every variable of the elements counts; no caller lists them.
        assert _trdeg([fev("u1"), fev("u2")]).ranks == [2]
        assert _trdeg([fev("u1") * fev("u2"), fev("u2")]).ranks == [2]

    def test_raw_scalars_are_constants(self):
        assert transcendence_degree([[3, Fraction(1, 2)], [fe(2), fev("a")]], Q) == ([0, 1], False)
        assert transcendence_degree([[1, 0]], BaseField(3)) == ([0], False)


def _counted_cases(field):
    """Blocks of scaled variables c*v/d and constants, one case per shape."""
    a, b, c = (fev(name, field) for name in "abc")
    third = fe(3 if field.p != 3 else 2, field)
    return {
        "generic": [[a, b], [c]],
        "mixed": [[a, fe(1, field)], [fe(2, field), b], [fe(0, field)]],
        "repeated-index": [[a], [a, b], [b, a]],
        "a-plus-b-t": [[a], [b]],
        "twice-a": [[fe(2, field) * a], [b]],
        "a-over-three": [[a / third], [b, c / third]],
    }


_COUNTED_CASES = sorted(_counted_cases(Q))


@pytest.mark.parametrize("case", _COUNTED_CASES)
@pytest.mark.parametrize("p", [None, 2, 3], ids=["Q", "GF2", "GF3"])
def test_count_equals_an_elimination(case, p, monkeypatch):
    field = Q if p is None else BaseField(p)
    blocks = _counted_cases(field)[case]
    expected = eliminated_transcendence_degree(blocks, field)
    calls = []
    monkeypatch.setattr(exact, "echelon_rank_profile", lambda *args: calls.append(args))
    assert transcendence_degree(blocks, field) == expected
    assert calls == []


def _power(name, e, field):
    return FieldElement.from_poly(SparsePolynomial.variable(field, name) ** e)


@pytest.mark.parametrize(
    "p, elements, rank",
    [
        (None, lambda f: [_power("a", 2, f)], 1),
        (None, lambda f: [fev("a", f) * fev("b", f)], 1),
        (None, lambda f: [fev("a", f) + fe(1, f)], 1),
        (3, lambda f: [fev("a", f) + fe(1, f)], 1),
        (2, lambda f: [_power("a", 2, f)], 0),
        (3, lambda f: [_power("a", 3, f)], 0),
        (None, lambda f: [fe(1, f) / fev("a", f)], 1),
        (None, lambda f: [fev("a", f) / fev("b", f), fev("a", f)], 2),
    ],
    ids=["a^2", "a*b", "a+1", "a+1-GF3", "a^2-GF2", "a^3-GF3", "1/a", "a/b-and-a"],
)
def test_other_elements_eliminate_once(p, elements, rank, monkeypatch):
    field = Q if p is None else BaseField(p)
    calls = []
    elimination = exact.echelon_rank_profile
    monkeypatch.setattr(exact, "echelon_rank_profile", lambda *args: calls.append(args) or elimination(*args))
    assert transcendence_degree([elements(field)], field) == ([rank], p is not None)
    assert len(calls) == 1


def test_polynomial_rendering_is_deterministic():
    x, y = var("x"), var("y")
    p = y * y - x ** 3 + SparsePolynomial.constant(Q, Fraction(1, 2))
    assert str(p) == "-x^3 + y^2 + 1/2"


# Independent oracle for the polynomial kernel: every operation against
# sympy.Poly over the same field, plus the stored-form invariants (no zero
# coefficient, prime-field coefficients reduced, monomials sorted).
KERNEL_FIELDS = [Q, BaseField(2), BaseField(3), BaseField(5)]
KERNEL_NAMES = ("u1", "u2", "x")


def _assert_well_formed(poly):
    p = poly.field.p
    for mono, coeff in poly.terms.items():
        assert coeff != 0, f"stored zero coefficient at {mono} in {poly}"
        if p is None:
            # Canonical rational: an int exactly when integral.
            assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1)
        else:
            assert type(coeff) is int and 0 < coeff < p
        assert list(mono) == sorted(mono) and all(exp > 0 for _, exp in mono)
        assert len({name for name, _ in mono}) == len(mono)


def _kernel_poly(rng, field):
    poly = SparsePolynomial.zero(field)
    for _ in range(rng.randint(0, 4)):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if field.p is None else rng.randint(-6, 6)
        term = SparsePolynomial.constant(field, coeff)
        for name in KERNEL_NAMES:
            term = term * SparsePolynomial.variable(field, name) ** rng.randint(0, 2)
        poly = poly + term
    return poly


def _sympy_poly(poly):
    gens = symbols(KERNEL_NAMES)
    if poly.field.p is None:
        return Poly(to_sympy(poly), *gens, domain=QQ)
    return Poly(to_sympy(poly), *gens, modulus=poly.field.p)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_kernel_matches_sympy_poly(field, seed):
    rng = random.Random(seed)
    a, b = _kernel_poly(rng, field), _kernel_poly(rng, field)
    sa, sb = _sympy_poly(a), _sympy_poly(b)
    scalar = rng.randint(-3, 3)
    exponent = rng.randint(0, 3)
    cases = [
        (a + b, sa + sb),
        (a - b, sa - sb),
        (a * b, sa * sb),
        (-a, -sa),
        (a.scale(scalar), sa * scalar),
        (a ** exponent, sa ** exponent),
    ]
    cases += [(a.derivative(name), sa.diff(sympy_gen)) for name, sympy_gen in zip(KERNEL_NAMES, sa.gens)]
    for ours, reference in cases:
        _assert_well_formed(ours)
        # Compared as expressions: sympy's diff over GF(p) can leave
        # unstripped zero rows in its representation, which breaks ==.
        assert _sympy_poly(ours).as_expr() == reference.as_expr()
    # value_and_gradient against sympy's diff and subs at a scalar point.
    point = {name: _kernel_scalar(rng, field) for name in KERNEL_NAMES}
    value, partials = a.value_and_gradient(PowerTable(point), lambda c: c)
    assert set(partials) == {name for name in KERNEL_NAMES if a.derivative(name)}
    at_point = dict(zip(sa.gens, point.values()))
    pairs = [(value, sa.as_expr().subs(at_point))]
    pairs += [(partials.get(name, 0), sa.diff(gen).as_expr().subs(at_point)) for name, gen in zip(KERNEL_NAMES, sa.gens)]
    for ours, reference in pairs:
        # Over GF(p) the scalar evaluation runs over Z; it agrees mod p.
        difference = ours - reference
        assert (difference % field.p if field.p else difference) == 0


def _kernel_scalar(rng, field):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if field.p is None else rng.randrange(field.p)


def _kernel_field_element(rng, field):
    """A rational function in u1, u2, u3 over the field, with a nonzero denominator."""
    den = SparsePolynomial.zero(field)
    while not den:
        den = _random_sparse_poly(rng, field)
    return FieldElement(_random_sparse_poly(rng, field), den)


# ring: (a random coordinate, the coordinate that is exactly zero, const)
KERNEL_RINGS = {
    "scalar": (_kernel_scalar, lambda rng, field: 0, lambda field: lambda c: c),
    "polynomial": (
        _random_sparse_poly,
        lambda rng, field: SparsePolynomial.zero(field),
        lambda field: partial(SparsePolynomial.constant, field),
    ),
    "field-element": (
        _kernel_field_element,
        lambda rng, field: FieldElement(SparsePolynomial.zero(field), _kernel_field_element(rng, field).den),
        lambda field: partial(FieldElement.from_scalar, field),
    ),
}


def _zero_order_terms(rng, field, zeros, other):
    """Two sums of terms at a point where the two ``zeros`` vanish and ``other`` need not.

    The first has only terms of zero order >= 2; the second adds terms of
    zero order 1 and a p-th power.
    """
    z1, z2 = (SparsePolynomial.variable(field, name) for name in zeros)
    w = SparsePolynomial.variable(field, other)
    p = field.p or 3
    # Zero order p + 1, 2 and 2; over GF(p) the first has no partial in z1.
    order_two = [z1 ** p * z2, z2 * z2 * w, z1 * z2 * w]
    lower = [z1 * w, z2, w ** p]  # zero order 1, 1 and 0
    scalars = [rng.choice([c for c in range(1, 7) if not field.p or c % field.p]) for _ in range(6)]
    polys = [m.scale(c) for m, c in zip(order_two + lower, scalars)]
    return sum(polys[:2], SparsePolynomial.zero(field)), sum(polys, SparsePolynomial.zero(field))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
@pytest.mark.parametrize("ring", list(KERNEL_RINGS))
@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_value_and_gradient_matches_evaluate_and_derivative(field, ring, seed):
    """One pass gives evaluate's value and derivative(v).evaluate for every v.

    At a dense point and at a sparse one (two of the three coordinates
    exactly zero), with terms of zero order >= 2 there: the kernel forms
    every term, whatever its zero order.
    """
    rng = random.Random(seed)
    coordinate, zero, lift = KERNEL_RINGS[ring]
    const = lift(field)
    zeros = rng.sample(KERNEL_NAMES, 2)
    other = next(name for name in KERNEL_NAMES if name not in zeros)
    dense = {name: coordinate(rng, field) for name in KERNEL_NAMES}
    sparse = {name: zero(rng, field) if name in zeros else coordinate(rng, field) for name in KERNEL_NAMES}
    only_order_two, mixed = _zero_order_terms(rng, field, zeros, other)
    for point, polys in (
        (dense, [_kernel_poly(rng, field) for _ in range(3)]),
        (sparse, [_kernel_poly(rng, field) for _ in range(3)] + [only_order_two, mixed, mixed + _kernel_poly(rng, field)]),
    ):
        powers = PowerTable(point)  # one table, shared by every polynomial at the point
        for a in polys:
            value, partials = a.value_and_gradient(powers, const)
            assert value == a.evaluate(point, const)
            assert set(partials) == {name for name in KERNEL_NAMES if a.derivative(name)}
            for name in KERNEL_NAMES:
                assert partials.get(name, const(0)) == a.derivative(name).evaluate(point, const)
            if ring != "scalar":  # every entry is an element of the ring
                assert all(type(entry) is type(const(0)) for entry in (value, *partials.values()))


def test_power_table_computes_each_power_once():
    x = FieldElement.variable(Q, "x")
    powers = PowerTable({"x": x})
    assert powers["x", 3] == x * x * x
    cubed = powers["x", 3]
    assert powers["x", 3] is cubed and set(powers) == {("x", 1), ("x", 2), ("x", 3)}
    with pytest.raises(UnknownVariable):
        powers["y", 1]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_full_cancellation_stores_nothing(field, seed):
    a = _kernel_poly(random.Random(seed), field)
    for zero in (a + (-a), a - a, -a + a, a.scale(0), a * SparsePolynomial.zero(field)):
        assert zero.terms == {}
        assert not zero


def test_cancelling_products_delete_terms():
    f2, f5 = BaseField(2), BaseField(5)
    x2, one2 = SparsePolynomial.variable(f2, "x"), SparsePolynomial.constant(f2, 1)
    square = (x2 + one2) * (x2 + one2)
    assert square.terms == {(("x", 2),): 1, (): 1}
    assert str(square) == "x^2 + 1"
    x5 = SparsePolynomial.variable(f5, "x")
    product = (x5 + SparsePolynomial.constant(f5, 1)) * (x5 + SparsePolynomial.constant(f5, 4))
    assert product.terms == {(("x", 2),): 1, (): 4}
    x, y = var("x"), var("y")
    assert ((x + y) * (x - y)).terms == {(("x", 2),): 1, (("y", 2),): -1}
    # d/dx x^2 = 2x vanishes in characteristic 2; x^3 -> 3x^2 = x^2 survives.
    assert (x2 * x2 + x2 * x2 * x2).derivative("x").terms == {(("x", 2),): 1}


def test_gradient_drops_partials_that_vanish_in_characteristic_p():
    """value_and_gradient has no entry for a partial that is zero in characteristic p."""
    f2, f3 = BaseField(2), BaseField(3)
    x3, y3 = var("x", f3), var("y", f3)
    # d/dx x^3 = 3x^2 = 0 over GF(3): x has no entry, though x^2 = 1 at x = 2.
    assert (x3 ** 3 + y3).value_and_gradient(PowerTable({"x": 2, "y": 1}), lambda c: c) == (9, {"y": 1})
    x2, y2 = var("x", f2), var("y", f2)
    # d/dx (x^2 y + x) = 2xy + 1 = 1 over GF(2); d/dy = x^2.  Over Z: 1 + 1, 1.
    assert (x2 * x2 * y2 + x2).value_and_gradient(PowerTable({"x": 1, "y": 1}), lambda c: c) == (2, {"x": 1, "y": 1})
