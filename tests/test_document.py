"""Expression grammar and problem-document loading."""

import gc
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import Q, fe, var
from jetspace.cli import main
from jetspace.document import PRIME_FIELDS_KEPT, _prime_field, load_document, parse_document
from jetspace.errors import DenominatorNotUnit, InputError, ParseError
from jetspace.exact import RATIONALS, BaseField, SparsePolynomial
from jetspace.exprs import MAX_EXPONENT, MAX_POWER_TERMS, parse_polynomial, parse_series_expression
from jetspace.series import PRECISION_CAP, OrderValue


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
        with pytest.raises(ParseError):
            parse_polynomial("x/y", Q, ("x", "y"))

    def test_parentheses_and_unary_minus(self):
        p = parse_polynomial("-(x - 2)*(x + 2)", Q, ("x",))
        x = var("x")
        assert p == SparsePolynomial.constant(Q, 4) - x * x

    def test_prime_field_coefficients(self):
        f5 = BaseField(5)
        p = parse_polynomial("7*x + 1/2", f5, ("x",))
        x5 = SparsePolynomial.variable(f5, "x")
        assert p == x5.scale(2) + SparsePolynomial.constant(f5, 3)

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
