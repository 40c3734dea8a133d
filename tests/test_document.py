"""Expression grammar and problem-document loading."""

import gc
import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import Q, fe, var
from jetspace.catalog import _CATALOG_DOCUMENTS
from jetspace.cli import main
from jetspace.document import PRIME_FIELDS_KEPT, _prime_field, load_document, parse_document
from jetspace.errors import DenominatorNotUnit, InputError, ParseError
from jetspace.exact import RATIONALS, BaseField, SparsePolynomial
from jetspace.exprs import (
    MAX_COEFFICIENT_BITS,
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_POWER_TERMS,
    parse_polynomial,
    parse_series_expression,
)
from jetspace.series import PRECISION_CAP, OrderValue, SeriesExpression


class TestParsePolynomial:
    def test_cusp_generator(self):
        p = parse_polynomial("y^2 - x^3", Q, ("x", "y"))
        x, y = var("x"), var("y")
        assert p == y * y - x ** 3

    def test_rational_coefficients(self):
        p = parse_polynomial("3/2*x^2*y - 1/2", Q, ("x", "y"))
        x, y = var("x"), var("y")
        expected = (x * x * y).scale(Fraction(3, 2)) - SparsePolynomial.constant(Q, Fraction(1, 2))
        assert p == expected

    def test_unknown_symbol_reports_column(self):
        with pytest.raises(ParseError) as info:
            parse_polynomial("x + qq", Q, ("x", "y"), context="variety.generators[0]")
        assert info.value.column == 5
        assert "variety.generators[0]" in str(info.value)

    def test_scalar_division_only(self):
        assert parse_polynomial("x/2", Q, ("x",)) == var("x").scale(Fraction(1, 2))
        # Any nonzero constant divides, not only an integer literal.
        assert parse_polynomial("x/(2*3)", Q, ("x",)) == var("x").scale(Fraction(1, 6))
        f5 = BaseField(5)
        assert parse_polynomial("x/(2*3)", f5, ("x",)) == SparsePolynomial.variable(f5, "x")
        assert parse_polynomial("x/(1/2)", Q, ("x",)) == var("x").scale(2)
        for text in ("x/y", "x/(x + 1)"):
            with pytest.raises(ParseError, match="division is only allowed by a constant here") as info:
                parse_polynomial(text, Q, ("x", "y"))
            assert info.value.column == 3
        with pytest.raises(ParseError, match="division by zero") as info:
            parse_polynomial("x/(3 - 3)", Q, ("x",))
        assert info.value.column == 3

    @pytest.mark.parametrize("text", ["x/5", "x/10", "1 + x/0"])
    def test_literal_divisor_that_vanishes_in_the_field_is_a_parse_error(self, text):
        # Over GF(5) every multiple of 5 is zero, not only the literal 0.
        with pytest.raises(ParseError, match="division by zero") as info:
            parse_polynomial(text, BaseField(5), ("x",), context="variety.generators[0]")
        assert info.value.column == text.index("/") + 2

    def test_parentheses_and_unary_minus(self):
        p = parse_polynomial("-(x - 2)*(x + 2)", Q, ("x",))
        x = var("x")
        assert p == SparsePolynomial.constant(Q, 4) - x * x

    def test_prime_field_coefficients(self):
        f5 = BaseField(5)
        p = parse_polynomial("7*x + 1/2", f5, ("x",))
        x5 = SparsePolynomial.variable(f5, "x")
        assert p == x5.scale(2) + SparsePolynomial.constant(f5, 3)
        assert parse_polynomial("x/2", f5, ("x",)) == x5.scale(3)

    def test_rendered_polynomials_reparse(self):
        x, y = var("x"), var("y")
        original = y * y - x ** 3 + SparsePolynomial.constant(Q, Fraction(1, 2))
        assert parse_polynomial(str(original), Q, ("x", "y")) == original

    def test_bad_syntax(self):
        for text in ("x +", "^2", "(x", "x ^ y", "2 3"):
            with pytest.raises(ParseError):
                parse_polynomial(text, Q, ("x", "y"))


class TestParseSeriesExpression:
    def test_rational_in_t(self):
        e = parse_series_expression("(t + t^2)/(1 + t)", Q, ())
        expanded = e.expand(5)
        assert expanded.order() == OrderValue.finite(1)
        assert expanded.coeffs[1] == fe(1)
        assert all(expanded.coeffs[i] == 0 for i in (0, 2, 3, 4))

    def test_transcendental_coefficients(self):
        e = parse_series_expression("u1*t + t^2", Q, ("u1",))
        assert str(e.expand(3).coeffs[1]) == "u1"

    def test_t_reserved(self):
        with pytest.raises(ParseError):
            parse_series_expression("t + u", Q, ("t", "u"))
        # t is never a name: a polynomial may not declare it, and does not know it.
        with pytest.raises(ParseError, match="'t' is reserved"):
            parse_polynomial("t + u", Q, ("t", "u"))
        with pytest.raises(ParseError, match="unknown symbol 't'"):
            parse_polynomial("t + u", Q, ("u",))

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse_series_expression("t + x", Q, ("u",))

    def test_non_unit_denominator(self):
        with pytest.raises(DenominatorNotUnit):
            parse_series_expression("1/t", Q, ())


class TestExponentCeiling:
    # Single-monomial bases, so even a parser without the ceiling would
    # finish quickly instead of expanding a huge power.
    def test_polynomial_exponent_above_ceiling_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_polynomial("y - x^1000000000", Q, ("x", "y"), context="variety.generators[0]")
        assert info.value.column == 7
        assert "1000000000" in str(info.value)

    def test_polynomial_exponent_at_ceiling_accepted(self):
        p = parse_polynomial(f"x^{MAX_EXPONENT}", Q, ("x",))
        assert p.terms == {(("x", MAX_EXPONENT),): 1}
        with pytest.raises(ParseError):
            parse_polynomial(f"x^{MAX_EXPONENT + 1}", Q, ("x",))

    def test_series_exponent_above_ceiling_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_series_expression("2*u^1000000000", Q, ("u",), context="arcs.main.components[0]")
        assert info.value.column == 5
        assert "arcs.main.components[0]" in str(info.value)

    @pytest.mark.parametrize(
        "text, column, degree",
        [("((x)^256)^256", 11, 65536), ("((x*y)^200)^2", 8, 400), ("(x^2*y)^100", 9, 300)],
    )
    def test_nested_polynomial_power_above_ceiling_rejected(self, text, column, degree):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, Q, ("x", "y"))
        assert info.value.column == column
        assert f"power of degree {degree}" in str(info.value)

    def test_nested_polynomial_power_at_ceiling_accepted(self):
        p = parse_polynomial("((x)^2)^128", Q, ("x",))
        assert p.terms == {(("x", MAX_EXPONENT),): 1}

    @pytest.mark.parametrize("text, column", [("((t)^256)^256", 11), ("((u*t)^128)^3", 13), ("((u)^256)^2", 11)])
    def test_nested_series_power_above_ceiling_rejected(self, text, column):
        with pytest.raises(ParseError) as info:
            parse_series_expression(text, Q, ("u",))
        assert info.value.column == column

    @pytest.mark.parametrize(
        "text, column, message",
        [
            ("(a+b+c+d+e+f)^256", 15, "power 256 of a 6-term base"),
            ("(a+b+c)^44", 9, "power 44 of a 3-term base"),
            ("((a+b)^8)^8", 11, "power 8 of a 9-term base"),
        ],
    )
    def test_polynomial_power_above_term_ceiling_rejected(self, text, column, message):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, Q, tuple("abcdef"))
        assert info.value.column == column
        assert message in str(info.value) and str(MAX_POWER_TERMS) in str(info.value)

    def test_series_power_above_term_ceiling_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_series_expression("t*(1 + a*t + b*t^2 + c*t^3)^60", Q, ("a", "b", "c"))
        assert info.value.column == 29
        assert "power 60 of a 4-term base" in str(info.value)

    def test_series_power_at_ceiling_accepted(self):
        expr = parse_series_expression("((t/(1 - t))^2)^128", Q, ())
        assert expr.expand(3).coeffs == (fe(0), fe(0), fe(0))

    # n * (numerator bits + denominator bits) of the base's largest coefficient:
    # 2 * (2048 + 2048) at the ceiling, 3 * (2730 + 1) one bit above it.
    AT_BITS = f"x + ({2**2047}/{2**2047 + 1})^2"
    ABOVE_BITS = f"x + ({2**2729})^3"

    @pytest.mark.parametrize("field", [Q, BaseField(5)], ids=["Q", "GF5"])
    @pytest.mark.parametrize("parse", [parse_polynomial, parse_series_expression], ids=["polynomial", "series"])
    def test_coefficient_bits_at_and_above_ceiling(self, parse, field):
        assert 2 * (2048 + 2048) == MAX_COEFFICIENT_BITS == 3 * (2730 + 1) - 1
        at = parse(self.AT_BITS, field, ("x",))
        if parse is parse_polynomial:
            assert at.constant_value() == field.coerce(Fraction(2**2047, 2**2047 + 1) ** 2)
        if field.p:
            parse(self.ABOVE_BITS, field, ("x",))  # GF(p) reduces every product
            return
        with pytest.raises(ParseError) as info:
            parse(self.ABOVE_BITS, field, ("x",), context="variety.generators[0]")
        assert info.value.column == len(self.ABOVE_BITS)
        assert f"coefficient size {MAX_COEFFICIENT_BITS + 1} bits exceeds the maximum" in str(info.value)

    # A sum, product or quotient is bounded by its value, at its operator:
    # 2^8190 is 8191 + 1 bits and 1/2^8190 is 1 + 8191, at the ceiling.
    # (2^256)^31 = 2^7936 passes the power bound, 31 * (257 + 1) bits.
    OPERATOR_BITS = [
        ("product", "*", "x - (2^256)^31*2^254", -(2**8190), "x - (2^256)^31*2^255"),
        ("quotient", "/", "x + 1/(2^256)^31/2^254", Fraction(1, 2**8190), "x + 1/(2^256)^31/2^255"),
        ("sum", "+", "x + (2^256)^31*2^253 + (2^256)^31*2^253", 2**8190, "x + (2^256)^31*2^254 + (2^256)^31*2^254"),
    ]

    @pytest.mark.parametrize("what, operator, at, value, above", OPERATOR_BITS, ids=[case[0] for case in OPERATOR_BITS])
    @pytest.mark.parametrize("field", [Q, BaseField(5)], ids=["Q", "GF5"])
    @pytest.mark.parametrize("parse", [parse_polynomial, parse_series_expression], ids=["polynomial", "series"])
    def test_operator_coefficient_bits_at_and_above_ceiling(self, parse, field, what, operator, at, value, above):
        assert 8190 + 2 == MAX_COEFFICIENT_BITS
        parsed = parse(at, field, ("x",))
        if parse is parse_polynomial:
            assert parsed.constant_value() == field.coerce(value)
        if field.p:
            parse(above, field, ("x",))  # GF(p) reduces every product
            return
        with pytest.raises(ParseError) as info:
            parse(above, field, ("x",), context="variety.generators[0]")
        assert info.value.column == above.rindex(operator) + 1
        assert f"{what} of coefficient size {MAX_COEFFICIENT_BITS + 1} bits exceeds the maximum" in str(info.value)

    def test_degree_and_term_bounds_are_checked_first(self):
        with pytest.raises(ParseError, match="power of degree 400"):
            parse_polynomial(f"({2**2729}*x^2)^200", Q, ("x",))
        with pytest.raises(ParseError, match="power 44 of a 3-term base"):
            parse_polynomial(f"({2**2729}*x + y + 1)^44", Q, ("x", "y"))

    @pytest.mark.parametrize("field", [Q, BaseField(5)], ids=["Q", "GF5"])
    @pytest.mark.parametrize("parse", [parse_polynomial, parse_series_expression], ids=["polynomial", "series"])
    def test_literal_digits_at_and_above_ceiling(self, parse, field):
        at = parse("x + " + "9" * MAX_LITERAL_DIGITS, field, ("x",))
        if parse is parse_polynomial:
            assert at.constant_value() == field.coerce(10**MAX_LITERAL_DIGITS - 1)
        with pytest.raises(ParseError) as info:
            parse("x + " + "9" * (MAX_LITERAL_DIGITS + 1), field, ("x",))
        assert info.value.column == 5
        assert f"integer literal of {MAX_LITERAL_DIGITS + 1} digits exceeds the maximum" in str(info.value)

    @pytest.mark.parametrize("opener, closer", [("(", ")"), ("-", ""), ("-(", ")")], ids=["parentheses", "minus", "both"])
    @pytest.mark.parametrize("field", [Q, BaseField(5)], ids=["Q", "GF5"])
    @pytest.mark.parametrize("parse", [parse_polynomial, parse_series_expression], ids=["polynomial", "series"])
    def test_nesting_at_and_above_ceiling(self, parse, field, opener, closer):
        # An even depth of minus signs leaves x itself.
        k = MAX_NESTING // len(opener)
        at = parse(opener * k + "x" + closer * k, field, ("x",))
        assert at == parse("x", field, ("x",))
        with pytest.raises(ParseError) as info:
            parse("(" + opener * k + "x" + closer * k + ")", field, ("x",))
        assert info.value.column == MAX_NESTING + 1
        assert f"nesting deeper than the maximum {MAX_NESTING}" in str(info.value)


def _sum_of_symbols(names):
    return "(" + " + ".join(names) + ")"


class TestProductCeiling:
    """A product is refused at its operator, before it is formed, when its degree or terms can pass the bounds."""

    # 8 * 125 = 1000 terms at the ceiling, 7 * 143 = 1001 one above it: sums of
    # distinct symbols, whose products have exactly that many terms.
    NAMES = tuple(f"s{i}" for i in range(151))
    AT_TERMS = _sum_of_symbols(NAMES[:8]) + "*" + _sum_of_symbols(NAMES[8:133])
    ABOVE_TERMS = _sum_of_symbols(NAMES[:7]) + "*" + _sum_of_symbols(NAMES[7:150])

    @pytest.mark.parametrize("field", [Q, BaseField(5)], ids=["Q", "GF5"])
    @pytest.mark.parametrize("parse", [parse_polynomial, parse_series_expression], ids=["polynomial", "series"])
    def test_product_terms_at_and_above_ceiling(self, parse, field):
        assert 8 * 125 == MAX_POWER_TERMS == 7 * 143 - 1
        at = parse(self.AT_TERMS, field, self.NAMES)
        assert len((at if parse is parse_polynomial else at.num).terms) == MAX_POWER_TERMS
        with pytest.raises(ParseError) as info:
            parse(self.ABOVE_TERMS, field, self.NAMES, context="variety.generators[0]")
        assert info.value.column == self.ABOVE_TERMS.index("*") + 1
        assert f"product may have {MAX_POWER_TERMS + 1} terms, over the maximum {MAX_POWER_TERMS}" in str(info.value)

    @pytest.mark.parametrize("field", [Q, BaseField(5)], ids=["Q", "GF5"])
    @pytest.mark.parametrize("parse", [parse_polynomial, parse_series_expression], ids=["polynomial", "series"])
    def test_product_degree_at_and_above_ceiling(self, parse, field):
        half = MAX_EXPONENT // 2
        at = parse(f"x^{half}*(x + 1)^{half}", field, ("x",))
        expected = parse_polynomial(f"x^{half}*(x + 1)^{half}", field, ("x",))
        assert (at if parse is parse_polynomial else at.num) == expected
        above = f"x^{half}*(x + 1)^{half + 1}"
        with pytest.raises(ParseError) as info:
            parse(above, field, ("x",))
        assert info.value.column == above.index("*") + 1
        assert f"product of degree {MAX_EXPONENT + 1} exceeds the maximum {MAX_EXPONENT}" in str(info.value)

    @pytest.mark.parametrize("field", [Q, BaseField(5)], ids=["Q", "GF5"])
    def test_series_quotient_degree_and_t_degree(self, field):
        half = MAX_EXPONENT // 2
        parse_series_expression(f"t^{half}*t^{half}", field, ())
        parse_series_expression(f"1/(1 - a^{half})/(1 - a^{half})", field, ("a",))
        above = f"1/(1 - a^{half})/(1 - a^{half + 1})"
        with pytest.raises(ParseError) as info:
            parse_series_expression(above, field, ("a",))
        assert info.value.column == above.rindex("/") + 1
        assert f"quotient of degree {MAX_EXPONENT + 1}" in str(info.value)
        with pytest.raises(ParseError, match=f"product of degree {MAX_EXPONENT + 1}"):
            parse_series_expression(f"t^{half}*t^{half + 1}", field, ())
        # Degrees in t and in the other symbols are bounded apart, as in a power.
        parse_series_expression(f"t^{MAX_EXPONENT}*a^{MAX_EXPONENT}", field, ("a",))

    def test_factor_by_factor_product_is_bounded_like_a_power(self):
        base, names = "(a+b+c+d+e+f)", tuple("abcdef")
        assert parse_polynomial("*".join([base] * 7), Q, names) == parse_polynomial(f"{base}^7", Q, names)
        with pytest.raises(ParseError, match="power 8 of a 6-term base"):
            parse_polynomial(f"{base}^8", Q, names)
        text = "*".join([base] * 16)
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, Q, names)
        # The eighth factor would give C(8 + 5, 5) = 1287 terms.
        assert info.value.column == 7 * len(base) + 7
        assert "product may have 1287 terms" in str(info.value)

    def test_product_bound_through_the_cli(self, tmp_path, capsys):
        path = tmp_path / "product.json"
        generator = "x - " + "*".join(["(a+b+c+d+e+f)"] * 16)
        path.write_text(json.dumps({"variety": {"variables": list("abcdefx"), "generators": [generator]}}))
        assert main(["jet-ideal", str(path), "--n", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[ParseError]")
        assert f"column {4 + 7 * 14}" in err and "product may have 1287 terms" in err


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _doc(**overrides):
    raw = {
        "field": "rationals",
        "variety": {
            "name": "cusp",
            "variables": ["x", "y"],
            "generators": ["y^2 - x^3"],
            "declared_dim": 1,
        },
        "arcs": {"main": {"components": ["t^2", "t^3"]}},
    }
    raw.update(overrides)
    return raw


class TestParseDocument:
    def test_round_trip(self):
        doc = parse_document(_doc())
        arc = doc.build_arc("main", 10)
        assert arc.precision == 10
        assert doc.default_arc_name() == "main"

    def test_prime_field(self):
        raw = _doc(field={"prime": 5})
        raw["variety"]["generators"] = ["y^2 - x^3"]
        doc = parse_document(raw)
        assert doc.field.characteristic == 5

    def test_one_field_per_characteristic(self):
        assert parse_document(_doc()).field is RATIONALS
        path = str(PROBLEMS / "umbrella-char2.json")
        assert load_document(path).field is load_document(path).field
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
        assert len(primes) > PRIME_FIELDS_KEPT
        for p in primes:
            assert parse_document(_doc(field={"prime": p})).field.p == p
        assert _prime_field.cache_info().currsize == PRIME_FIELDS_KEPT

    def test_cli_call_leaves_no_field_to_the_cycle_collector(self, capsys):
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(["fiber-dim", str(PROBLEMS / "cusp.json")]) == 0
            gc.collect()
            leaked = [obj for obj in gc.garbage if isinstance(obj, BaseField)]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        capsys.readouterr()
        assert leaked == []

    def test_generic_component(self):
        raw = _doc()
        raw["variety"] = {"variables": ["x"], "declared_dim": 1}
        raw["arcs"] = {"g": {"components": [{"generic": {"start": 2}}]}}
        doc = parse_document(raw)
        arc = doc.build_arc("g", 8)
        assert arc.expansions[0].coeffs[1].is_zero()
        assert not arc.expansions[0].coeffs[2].is_zero()

    @pytest.mark.parametrize("declared", [-2, 3, True, 1.0])
    def test_declared_dim_outside_zero_to_variable_count_rejected(self, declared):
        raw = _doc()
        raw["variety"]["declared_dim"] = declared
        with pytest.raises(InputError, match="variety.declared_dim"):
            parse_document(raw)

    @pytest.mark.parametrize("start", [True, -1, "2"])
    def test_generic_start_must_be_a_natural_number(self, start):
        raw = _doc()
        raw["arcs"] = {"g": {"components": [{"generic": {"start": start}}, "t^3"]}}
        with pytest.raises(InputError, match=r"generic\.start"):
            parse_document(raw)

    def test_generic_start_above_ceiling_rejected(self):
        raw = _doc()
        raw["arcs"] = {"g": {"components": [{"generic": {"start": PRECISION_CAP}}, "t^3"]}}
        with pytest.raises(InputError, match=rf"generic\.start: {PRECISION_CAP} is not in 0\.\.191"):
            parse_document(raw)

    def test_component_count_checked(self):
        raw = _doc()
        raw["arcs"]["main"]["components"] = ["t^2"]
        with pytest.raises(InputError):
            parse_document(raw)

    def test_arc_on_morphism_source(self):
        raw = _doc(
            variety={"variables": ["x", "y"], "declared_dim": 2, "name": "plane"},
            morphism={
                "source": {"variables": ["u", "v"], "declared_dim": 2},
                "components": ["u", "u*v"],
            },
            arcs={"beta": {"on": "source", "components": ["t", "1"]}},
        )
        doc = parse_document(raw)
        beta = doc.build_arc("beta", 8)
        assert beta.variety is doc.morphism.source

    def test_unknown_param_rejected(self):
        with pytest.raises(InputError):
            parse_document(_doc(params={"bogus": 1}))

    def test_reserved_t_variable(self):
        raw = _doc()
        raw["variety"]["variables"] = ["t", "y"]
        with pytest.raises(InputError):
            parse_document(raw)

    def test_transcendental_collision(self):
        with pytest.raises(InputError):
            parse_document(_doc(transcendentals=["x"]))

    def test_generic_coefficient_name_is_not_a_transcendental(self):
        # A declared u2_0 would alias the t^0 coefficient of a second generic component.
        plane = {"variables": ["x", "y"]}
        arcs = {"main": {"components": ["w", {"generic": {}}]}}
        doc = parse_document(_doc(variety=plane, transcendentals=["w"], arcs=arcs))
        assert doc.build_arc("main", 8).residue_dimension_profile(3).ranks == [2, 3, 4, 5]
        arcs = {"main": {"components": ["u2_0", {"generic": {}}]}}
        with pytest.raises(InputError, match=r"^transcendentals: 'u2_0' is reserved"):
            parse_document(_doc(variety=plane, transcendentals=["u2_0"], arcs=arcs))
        parse_document(_doc(transcendentals=["u2", "u_0", "U2_0", "u2_0a"]))

    @pytest.mark.parametrize("name", ["x y", "1x", "", "x-1"])
    def test_names_are_symbols_of_the_grammar(self, name):
        with pytest.raises(InputError, match=r"^variety\.variables: .* is not a symbol"):
            parse_document(_doc(variety={"variables": ["x", name]}, arcs={}))
        with pytest.raises(InputError, match=r"^transcendentals: .* is not a symbol"):
            parse_document(_doc(transcendentals=[name]))

    @pytest.mark.parametrize("arcs", [{"main": {"components": ["t^2", "t^3"]}}, {}])
    def test_t_transcendental_reported_at_transcendentals(self, arcs):
        with pytest.raises(InputError, match=r"^transcendentals: 't' is reserved"):
            parse_document(_doc(transcendentals=["t"], arcs=arcs))

    def test_bad_field_spec(self):
        with pytest.raises(InputError):
            parse_document(_doc(field="reals"))

    @pytest.mark.parametrize(
        "field, components, precision, expected",
        [
            (
                "rationals",
                ["(t + t^2/(1 + a))^2", "(t + t^2/(1 + a))^3"],
                8,
                "Arc(cusp; t^2 + ((2*a + 2)/(a^2 + 2*a + 1))*t^3 + (1/(a^2 + 2*a + 1))*t^4 + O(t^8), "
                "t^3 + ((3*a^2 + 6*a + 3)/(a^3 + 3*a^2 + 3*a + 1))*t^4 + ((3*a + 3)/(a^3 + 3*a^2 + 3*a + 1))*t^5 "
                "+ (1/(a^3 + 3*a^2 + 3*a + 1))*t^6 + O(t^8))",
            ),
            (
                {"prime": 3},
                ["(2*t + t^2/(2*a + 1))^2", "(2*t + t^2/(2*a + 1))^3"],
                6,
                "Arc(cusp; t^2 + ((2*a + 1)/(a^2 + a + 1))*t^3 + (1/(a^2 + a + 1))*t^4 + O(t^6), "
                "((2*a^3 + 1)/(a^3 + 2))*t^3 + O(t^6))",
            ),
            (
                "rationals",
                ["(t + t^2/(1 - a))^2", "(t + t^2/(1 - a))^3"],
                5,
                "Arc(cusp; t^2 + ((-2*a + 2)/(a^2 - 2*a + 1))*t^3 + (1/(a^2 - 2*a + 1))*t^4 + O(t^5), "
                "t^3 + ((-3*a^2 + 6*a - 3)/(a^3 - 3*a^2 + 3*a - 1))*t^4 + O(t^5))",
            ),
        ],
        ids=["Q-ci-arc", "GF3", "Q-negative-leading-denominator"],
    )
    def test_quotient_arcs_keep_their_representatives(self, field, components, precision, expected):
        # The light normalization fixes every stored numerator and denominator.
        raw = _doc(field=field, transcendentals=["a"], arcs={"main": {"components": components}})
        assert repr(parse_document(raw).build_arc("main", precision)) == expected

    @pytest.mark.parametrize("prime", [True, False, 3.0, "3"])
    def test_prime_that_is_not_an_integer_rejected(self, prime):
        # A JSON true or false is never an integer, although Python's bool is an int.
        with pytest.raises(InputError, match=r"^field\.prime: expected an integer$"):
            parse_document(_doc(field={"prime": prime}))

    @pytest.mark.parametrize(
        "text, column", [("1/0", 3), ("t/(a - a)", 3), ("t + t^2/(2*t - t - t)", 9), ("1/3", 3)]
    )
    def test_series_division_by_zero_is_a_parse_error(self, text, column):
        field = {"prime": 3} if text == "1/3" else "rationals"
        raw = _doc(field=field, transcendentals=["a"], arcs={"main": {"components": [text, "t^3"]}})
        with pytest.raises(ParseError, match="division by zero") as info:
            parse_document(raw)
        assert info.value.column == column
        # t^2/t divides by a nonzero series that is no unit.
        raw["arcs"]["main"]["components"][0] = "t^2/t"
        with pytest.raises(DenominatorNotUnit):
            parse_document(raw)

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_json_integer_digits_at_and_above_ceiling(self, tmp_path, sign):
        path = tmp_path / "doc.json"
        at = int(sign + "9" * MAX_LITERAL_DIGITS)
        path.write_text(json.dumps(_doc(params={"n": at})))
        assert load_document(str(path)).params == {"n": at}
        path.write_text(json.dumps(_doc(params={"n": at * 10})))
        message = f"{path}: integer of {MAX_LITERAL_DIGITS + 1} digits exceeds the maximum {MAX_LITERAL_DIGITS}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            load_document(str(path))

    def test_unknown_arc_name(self):
        doc = parse_document(_doc())
        with pytest.raises(InputError):
            doc.build_arc("missing")

    @pytest.mark.parametrize("block", [5, None, "components"])
    def test_arc_entry_that_is_not_an_object_rejected(self, block):
        with pytest.raises(InputError, match=r"^arcs\.main: expected an object$"):
            parse_document(_doc(arcs={"main": block}))


class TestUnknownKeys:
    """A misspelt key is an input error that names the key, never a silent default."""

    def test_root(self):
        with pytest.raises(InputError, match=r"^document\.param: unknown key"):
            parse_document(_doc(param={"n": 3}))

    def test_variety(self):
        raw = _doc()
        raw["variety"]["generator"] = raw["variety"].pop("generators")
        with pytest.raises(InputError, match=r"^variety\.generator: unknown key"):
            parse_document(raw)

    def test_morphism(self):
        morphism = {"source": {"variables": ["u"]}, "components": ["u^2", "u^3"], "nmae": "f"}
        with pytest.raises(InputError, match=r"^morphism\.nmae: unknown key"):
            parse_document(_doc(morphism=morphism))

    def test_arc(self):
        with pytest.raises(InputError, match=r"^arcs\.main\.component: unknown key"):
            parse_document(_doc(arcs={"main": {"component": ["t^2", "t^3"]}}))

    def test_generic_spec(self):
        arcs = {"g": {"components": [{"generic": {"strat": 2}}, "t^3"]}}
        with pytest.raises(InputError, match=r"^arcs\.g\.components\[0\]\.generic\.strat: unknown"):
            parse_document(_doc(arcs=arcs))


# The documents of the CI console-script checks that parse.
CI_DOCUMENTS = (
    {"transcendentals": ["a", "b"], "variety": {"variables": ["x"]}, "arcs": {"main": {"components": ["a + b*t"]}}},
    {
        "variety": {"variables": ["x", "y", "z"], "generators": ["x*y^2 - z^2"]},
        "morphism": {"source": {"variables": ["u"]}, "components": ["u", "0", "u^30"]},
        "arcs": {"main": {"on": "source", "components": ["t"]}},
    },
    {
        "variety": {"variables": ["x", "y"]},
        "morphism": {"source": {"variables": ["u", "v"]}, "components": ["u", "u*v"]},
        "arcs": {"main": {"on": "source", "components": ["t", "0"]}},
    },
    {
        "field": {"prime": 3},
        "variety": {"variables": ["x", "y"]},
        "morphism": {"source": {"variables": ["u", "v"]}, "components": ["u", "u*v"]},
        "arcs": {"main": {"on": "source", "components": [{"generic": {"start": 1}}, "2 + t"]}},
    },
    *(
        {
            "transcendentals": ["a"],
            "variety": {"variables": ["x", "y"], "generators": ["y^2 - x^3"]},
            "arcs": {"main": {"components": components}},
        }
        for components in (
            ["(t + t^2/(1 + a))^2", "(t + t^2/(1 + a))^3"],
            ["(t/(1 - t))^2", "(t/(1 - t))^3"],
            ["(1 + a*t)^2*t^2/(2 + t)^2", "(1 + a*t)^3*t^3/(2 + t)^3"],
        )
    ),
)

# sha256 of every parsed generator and morphism component, and of the
# numerator and denominator of every series-expression arc component.
PARSED_VALUES_SHA256 = "5450bc608470cd0bc9a83c82c7c1c68ab8fd75cd7583dd1c4cc7a1fb99dacea4"


def test_parsed_values_are_pinned():
    raws = [json.loads(path.read_text()) for path in sorted(PROBLEMS.glob("*.json"))]
    raws += [*_CATALOG_DOCUMENTS, *CI_DOCUMENTS]
    digest = hashlib.sha256()
    for raw in raws:
        doc = parse_document(raw)
        values = list(doc.variety.generators)
        if doc.morphism is not None:
            m = doc.morphism
            values += [*m.source.generators, *m.target.generators, *m.components]
        for _, components in doc.arc_specs.values():
            for c in components:
                if isinstance(c, SeriesExpression):
                    values += [c.num, c.den]
        for value in values:
            digest.update(f"{value}\n".encode())
    assert digest.hexdigest() == PARSED_VALUES_SHA256
