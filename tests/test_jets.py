"""Jet-scheme equations and the Jacobian corank oracle."""

import random
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
import sympy

from sympy.polys.matrices import DomainMatrix

from conftest import Q, affine_space, count_calls, cusp_variety, fe, fev, to_sympy, var, whitney_variety
from jetspace.analysis import fiber_dim_formula
from jetspace.arcs import generic_arc, make_arc
from jetspace.catalog import build_catalog
from jetspace.document import load_document
from jetspace.errors import InputError, PointNotOnJetScheme
from jetspace import jets
from jetspace.exact import BaseField, FieldElement, PowerTable, SparsePolynomial, as_scalar, matrix_rank
from jetspace.geometry import VarietyPresentation
from jetspace.jets import _evaluation_ring, jet_ideal, jet_jacobian_corank, jet_variable
from jetspace.series import SeriesExpression


def _jv(name, p):
    return SparsePolynomial.variable(Q, jet_variable(name, p))


class TestJetIdeal:
    def test_cusp_level_one(self):
        ideal = jet_ideal(cusp_variety(), 1)
        x0, x1, y0, y1 = _jv("x", 0), _jv("x", 1), _jv("y", 0), _jv("y", 1)
        assert ideal.generators[0][0] == y0 * y0 - x0 ** 3
        assert ideal.generators[0][1] == (y0 * y1).scale(2) - (x0 * x0 * x1).scale(3)

    def test_affine_line_has_no_equations(self):
        ideal = jet_ideal(affine_space(1, names=("x",)), 4)
        assert ideal.generators == ()
        assert ideal.jet_variables == tuple(jet_variable("x", p) for p in range(5))

    def test_linear_generator(self):
        line_in_plane = VarietyPresentation(Q, ("x", "y"), (var("x"),))
        ideal = jet_ideal(line_in_plane, 2)
        assert ideal.generators[0] == (_jv("x", 0), _jv("x", 1), _jv("x", 2))

    def test_truncation_compatibility(self):
        """Level-n equations are exactly the first n+1 of any higher level."""
        X = cusp_variety()
        high = jet_ideal(X, 6)
        for n in range(6):
            low = jet_ideal(X, n)
            assert low.generators[0] == high.generators[0][: n + 1]


def test_leibniz_consistency():
    """Coefficient extraction respects products of random polynomials."""
    rng = random.Random(23)
    X_vars = ("x", "y")

    def rand_poly():
        poly = SparsePolynomial.zero(Q)
        for _ in range(rng.randint(1, 3)):
            term = SparsePolynomial.constant(Q, Fraction(rng.randint(-3, 3)))
            for name in X_vars:
                term = term * SparsePolynomial.variable(Q, name) ** rng.randint(0, 2)
            poly = poly + term
        return poly

    n = 4
    for _ in range(8):
        f, g = rand_poly(), rand_poly()
        Xf = VarietyPresentation(Q, X_vars, (f,))
        Xg = VarietyPresentation(Q, X_vars, (g,))
        Xfg = VarietyPresentation(Q, X_vars, (f * g,))
        Df = jet_ideal(Xf, n).generators[0]
        Dg = jet_ideal(Xg, n).generators[0]
        Dfg = jet_ideal(Xfg, n).generators[0]
        for p in range(n + 1):
            convolution = SparsePolynomial.zero(Q)
            for a in range(p + 1):
                convolution = convolution + Df[a] * Dg[p - a]
            assert Dfg[p] == convolution


def _umbrella_gf2():
    f2 = BaseField(2)
    x, y, z = (var(name, f2) for name in "xyz")
    return VarietyPresentation(f2, ("x", "y", "z"), (x * y * y - z * z,), declared_dim=2, name="umbrella2")


@pytest.mark.parametrize("variety", [cusp_variety(), whitney_variety(), _umbrella_gf2()], ids=lambda X: X.name)
def test_jet_ideal_matches_sympy_expansion(variety):
    """Coefficients of g(sum_p x[p] t^p) mod t^(n+1), expanded by sympy; over GF(p), mod p."""
    t = sympy.Symbol("t")
    modulus = variety.base.p
    for n in range(6):
        ideal = jet_ideal(variety, n)
        curve = {
            sympy.Symbol(v): sum(sympy.Symbol(jet_variable(v, p)) * t**p for p in range(n + 1))
            for v in variety.variables
        }
        for g, row in zip(variety.generators, ideal.generators):
            expanded = sympy.expand(to_sympy(g).subs(curve, simultaneous=True))
            assert len(row) == n + 1
            for p, equation in enumerate(row):
                difference = sympy.expand(to_sympy(equation) - expanded.coeff(t, p))
                if modulus:
                    difference = sum(c % modulus * m for m, c in difference.as_coefficients_dict().items())
                assert difference == 0


class TestJetJacobianCorank:
    def test_affine_line_free(self):
        line = affine_space(1, names=("x",))
        for n in (0, 2, 5):
            point = [fe(Fraction(k)) for k in range(n + 1)]
            assert jet_jacobian_corank(line, n, point) == n + 1

    def test_cusp_arc_level_three(self):
        arc = make_arc(cusp_variety(), [SeriesExpression.t_power(Q, 2), SeriesExpression.t_power(Q, 3)], 8)
        jet = arc.truncate(3)
        assert jet_jacobian_corank(cusp_variety(), 3, jet.coordinates) == 7

    def test_cusp_origin_jet_level_one(self):
        zero = fe(0)
        assert jet_jacobian_corank(cusp_variety(), 1, [zero] * 4) == 4

    def test_point_not_on_jet_scheme(self):
        with pytest.raises(PointNotOnJetScheme):
            jet_jacobian_corank(cusp_variety(), 0, [fe(1), fe(2)])


# A parametrization of each catalog variety by series u, v in t: every
# choice of u and v gives an arc, so truncations are seeded k-rational
# points of the jet schemes.
T = sympy.Symbol("t")
PARAMETRIZATIONS = {
    "affine-line": lambda u, v: (u,),
    "affine-plane": lambda u, v: (u, v),
    "cusp": lambda u, v: (u**2, u**3),
    "node": lambda u, v: (u**2 - 1, u**3 - u),
    "whitney": lambda u, v: (u**2, v, u * v),
    "a1": lambda u, v: (u**2, v**2, u * v),
    "a2": lambda u, v: (u**3, v**3, u * v),
    "a3": lambda u, v: (u**4, v**4, u * v),
    "umbrella2": lambda u, v: (u**2, v, u * v),
    "umbrella3": lambda u, v: (u**3, v, u * v),
}


def _random_series(rng, n, rational):
    coeffs = [sympy.Rational(rng.randint(-3, 3), rng.randint(1, 3) if rational else 1) for _ in range(n + 1)]
    if rng.random() < 0.5:
        coeffs[0] = 0  # through the singular locus, for most of the catalog
    return sum(c * T**k for k, c in enumerate(coeffs))


def _seeded_jet(X, n, rng):
    """Coordinates of a seeded k-rational level-n jet, as sympy numbers."""
    u, v = (_random_series(rng, n, X.base.p is None) for _ in range(2))
    coords = []
    for component in PARAMETRIZATIONS[X.name](u, v):
        expanded = sympy.expand(component)
        coords += [expanded.coeff(T, k) % X.base.p if X.base.p else expanded.coeff(T, k) for k in range(n + 1)]
    return coords


def _sympy_jacobian_rank(X, n, coords):
    ideal = jet_ideal(X, n)
    equations = [to_sympy(eq) for row in ideal.generators for eq in row]
    if not equations:
        return 0
    symbols = [sympy.Symbol(v) for v in ideal.jet_variables]
    at_point = sympy.Matrix(equations).jacobian(symbols).subs(dict(zip(symbols, coords)))
    matrix = DomainMatrix.from_list_sympy(*at_point.shape, at_point.tolist())
    return matrix.convert_to(sympy.GF(X.base.p)).rank() if X.base.p else matrix.rank()


def test_catalog_parametrizations_cover_the_catalog():
    assert {document.variety.name for document in build_catalog()} == set(PARAMETRIZATIONS)


@pytest.mark.parametrize("document", build_catalog(), ids=lambda document: document.variety.name)
def test_jet_equation_uses_no_higher_jet_variable(document):
    # Each level's corank ranks its rows on every column, so its rows must be
    # zero past the columns of t-power <= the level.
    ideal = jet_ideal(document.variety, 8)
    powers = {jet_variable(v, p): p for v in document.variety.variables for p in range(9)}
    for row in ideal.generators:
        for p, equation in enumerate(row):
            assert all(powers[u] <= p for u in equation.variables()), (p, str(equation))


@pytest.mark.parametrize("document", build_catalog(), ids=lambda document: document.variety.name)
def test_corank_at_rational_jets_matches_sympy_rank(document):
    """(n+1)N minus sympy's rank of the differentiated jet equations, n <= 5."""
    X = document.variety
    rng = random.Random(f"rational-jets-{X.name}")
    for n in range(6):
        for _ in range(2):
            coords = _seeded_jet(X, n, rng)
            point = [fe(Fraction(int(c.p), int(c.q)), X.base) for c in coords]
            assert all(c.is_constant() for c in point)
            expected = (n + 1) * len(X.variables) - _sympy_jacobian_rank(X, n, coords)
            assert jet_jacobian_corank(X, n, point) == expected, (X.name, n, coords)
    # One multi-level call at the last level-5 jet: every level against sympy.
    coranks = jet_jacobian_corank(X, range(6), point)
    for k in range(6):
        truncated = [coords[i * 6 + q] for i in range(len(X.variables)) for q in range(k + 1)]
        expected = (k + 1) * len(X.variables) - _sympy_jacobian_rank(X, k, truncated)
        assert coranks[k] == expected, (X.name, k, coords)


@pytest.mark.parametrize("document", build_catalog(), ids=lambda document: document.variety.name)
def test_multi_level_corank_equals_the_single_level_calls(document):
    """Over Q, GF(2) and GF(3), at k-rational and transcendental jets."""
    X = document.variety
    for name in document.arc_specs:
        arc = document.build_arc(name, 16)
        coranks = jet_jacobian_corank(X, range(7), arc.truncate(6).coordinates)
        singles = [jet_jacobian_corank(X, n, arc.truncate(n).coordinates) for n in range(7)]
        assert coranks == singles, (X.name, name)
        assert jet_jacobian_corank(X, [4, 1], arc.truncate(4).coordinates) == [singles[4], singles[1]]


def _unit_branch():
    cusp = next(document for document in build_catalog() if document.variety.name == "cusp")
    return cusp.build_arc("unit-branch", 16)


def test_corank_at_transcendental_jets_matches_the_formula():
    """Cusp unit-branch jets are not k-rational: the polynomial ring."""
    arc = _unit_branch()
    for n in range(3, 7):
        fiber = fiber_dim_formula(arc, n)
        point = fiber.arc.truncate(n).coordinates
        assert not all(c.is_constant() for c in point)
        assert jet_jacobian_corank(arc.variety, n, point) == fiber.value


def test_point_off_the_jet_scheme_raises_the_same_error_on_both_paths():
    # x = 0, y = c t: y^2 - x^3 vanishes at t^0 and t^1, not at t^2.
    for c in (fe(1), fev("a"), fev("a") / (fev("a") + fe(1))):
        point = [fe(0)] * 3 + [fe(0), c, fe(0)]
        for levels in (2, [2], range(3)):
            with pytest.raises(PointNotOnJetScheme) as raised:
                jet_jacobian_corank(cusp_variety(), levels, point)
            assert (raised.value.generator_index, raised.value.level_index) == (0, 2)


def test_rational_jet_point_runs_on_scalars(monkeypatch):
    points = [
        (document.variety, 6, document.build_arc(name, 8).truncate(6).coordinates)
        for document in build_catalog()
        if document.variety.name in ("whitney", "umbrella2")
        for name in document.arc_specs
    ]
    a = fev("a")
    c = a / (a + fe(1))
    # The level-1 jet of x = (c + t)^2, y = (c + t)^3, a smooth point.
    dense = [c * c, fe(2) * c, c * c * c, fe(3) * c * c]
    calls = count_calls(monkeypatch, FieldElement, ("__add__", "__mul__"))
    for X, n, point in points:
        if all(as_scalar(x) is not None for x in point):
            jet_jacobian_corank(X, n, point)
    assert calls == []
    # Every term of the cusp's level-1 equations vanishes to order 2 at
    # x = c t, y = 0, so the oracle's equations are zero; so is the Jacobian.
    assert jet_jacobian_corank(cusp_variety(), 1, [fe(0), c, fe(0), fe(0)]) == 4
    assert calls == []
    assert jet_jacobian_corank(cusp_variety(), 1, dense) == 2
    assert calls  # the wrapper sees the FieldElement ring


def test_each_jet_equation_is_differentiated_once(monkeypatch):
    """One value_and_gradient per equation, no other evaluation or derivative, on scalars and on polynomials."""
    assert not hasattr(SparsePolynomial, "gradient")
    whitney = next(document for document in build_catalog() if document.variety.name == "whitney")
    rational = whitney.build_arc(next(iter(whitney.arc_specs)), 8).truncate(6).coordinates
    cusp_arc = _unit_branch().with_precision(8)
    transcendental = cusp_arc.truncate(4).coordinates
    assert all(as_scalar(c) is not None for c in rational)
    assert not all(as_scalar(c) is not None for c in transcendental)
    calls = count_calls(monkeypatch, SparsePolynomial, ("derivative", "evaluate", "value_and_gradient"))
    ideals = []
    build = jets.jet_ideal
    monkeypatch.setattr(jets, "jet_ideal", lambda X, n, square_zero: ideals.append(n) or build(X, n, square_zero))
    for X, levels, top, point in ((whitney.variety, [6, 2], 6, rational), (cusp_arc.variety, 4, 4, transcendental)):
        calls.clear()
        ideals.clear()
        jet_jacobian_corank(X, levels, point)
        # jet_ideal expands each generator once, on the generic curve, with
        # the product kernel: no polynomial evaluation.
        assert ideals == [top]
        equations = len(X.generators) * (top + 1)
        assert calls == ["value_and_gradient"] * equations


class _ZeroOrderSpy:
    """A raw scalar with a lower bound on its zero order at the jet point.

    A coordinate that is zero has order 1; a product adds the orders and
    logs the sum, a sum keeps the smaller.
    """

    __slots__ = ("value", "order", "log")

    def __init__(self, value, order, log):
        self.value, self.order, self.log = value, order, log

    def __mul__(self, other):
        self.log.append(self.order + other.order)
        return _ZeroOrderSpy(self.value * other.value, self.order + other.order, self.log)

    def __add__(self, other):
        return _ZeroOrderSpy(self.value + other.value, min(self.order, other.order), self.log)

    def __bool__(self):
        return bool(self.value)


def test_no_product_is_formed_for_a_term_of_zero_order_two(monkeypatch):
    """At the cusp's (t^2, t^3) jet, every ring product vanishes to order <= 1 at the point."""
    cusp = next(document for document in build_catalog() if document.variety.name == "cusp")
    point = cusp.build_arc("main", 16).truncate(12).coordinates
    expected = jet_jacobian_corank(cusp.variety, 12, point)
    log = []
    original = jets._evaluation_ring

    def spied(point, field):
        coordinates, const, to_entry = original(point, field)
        assert to_entry is not None  # raw scalars

        def spy(c):
            return _ZeroOrderSpy(c, 0 if c else 1, log)

        def entry(s):  # the oracle's zero entry is a raw 0
            return to_entry(s.value if isinstance(s, _ZeroOrderSpy) else s)

        return [spy(c) for c in coordinates], lambda c: spy(const(c)), entry

    monkeypatch.setattr(jets, "_evaluation_ring", spied)
    assert jet_jacobian_corank(cusp.variety, 12, point) == expected
    assert log and max(log) <= 1


@pytest.mark.parametrize(
    "levels, length",
    [([3, -1], 8), (-1, 0), ([], 8), ([2.0], 6), (2, 5), ([1, 2], 4)],
    ids=["negative-in-list", "negative", "empty", "float", "short-point", "point-of-lower-level"],
)
def test_bad_levels_and_points_are_input_errors(levels, length):
    with pytest.raises(InputError):
        jet_jacobian_corank(cusp_variety(), levels, [fe(0)] * length)


def test_jet_ideal_refuses_a_negative_level():
    with pytest.raises(InputError, match="jet level"):
        jet_ideal(cusp_variety(), -1)


# The three rings of jet_jacobian_corank against the same point with every
# coordinate lifted to a FieldElement and ranked as FieldElement rows.
F2, F3 = BaseField(2), BaseField(3)
RING_FIELDS = [Q, F2, F3]
RING_VARIETIES = {
    # name: (generators of x, y, z; a parametrization by series u, v)
    "cusp": (lambda x, y, z: y * y - x ** 3, lambda u, v, mul: (mul(u, u), mul(u, mul(u, u)))),
    "whitney": (lambda x, y, z: x * y * y - z * z, lambda u, v, mul: (mul(u, u), v, mul(u, v))),
    "umbrella": (lambda x, y, z: x * y ** 3 - z ** 3, lambda u, v, mul: (mul(u, mul(u, u)), v, mul(u, v))),
}


def _ring_variety(name, field):
    generator, _ = RING_VARIETIES[name]
    names = ("x", "y") if name == "cusp" else ("x", "y", "z")
    x, y, z = (var(v, field) for v in "xyz")
    return VarietyPresentation(field, names, (generator(x, y, z),), name=name)


def _ring_jet(name, field, n, u, v):
    """Coordinates of the level-n jet of the parametrization at series u, v of field elements."""
    zero = field.fe_zero

    def mul(f, g):
        return [sum((f[i] * g[k - i] for i in range(k + 1)), zero) for k in range(n + 1)]

    return [c for component in RING_VARIETIES[name][1](u, v, mul) for c in component]


def _mixed(point, rng):
    """The point with each visibly constant coordinate, at random, as its raw scalar."""
    return [as_scalar(c) if as_scalar(c) is not None and rng.random() < 0.5 else c for c in point]


def _corank_on_field_elements(X, levels, point):
    """Coranks with every coordinate lifted to a FieldElement and FieldElement rows ranked."""
    field, width = X.base, len(X.variables)
    lift = partial(FieldElement.from_scalar, field)
    ideal = jet_ideal(X, max(levels))
    powers = PowerTable(dict(zip(ideal.jet_variables, [c if isinstance(c, FieldElement) else lift(c) for c in point])))
    column = {v: k for k, v in enumerate(ideal.jet_variables)}
    rows_by_power = [[] for _ in range(max(levels) + 1)]
    for generator_rows in ideal.generators:
        for p, equation in enumerate(generator_rows):
            value, partials = equation.value_and_gradient(powers, lift)
            assert not value
            entries = [field.fe_zero] * len(column)
            for v, slope in partials.items():
                entries[column[v]] = slope
            rows_by_power[p].append(entries)
    return [(k + 1) * width - matrix_rank([row for rows in rows_by_power[: k + 1] for row in rows]) for k in levels]


def _ring_of(point, field):
    coordinates = _evaluation_ring(point, field)[0]
    kinds = {type(c) for c in coordinates}
    return "scalars" if kinds <= {int, Fraction} else kinds.pop().__name__


def _check_twin(X, point, ring):
    assert _ring_of(point, X.base) == ring
    levels = list(range(9))
    assert jet_jacobian_corank(X, levels, point) == _corank_on_field_elements(X, levels, point)
    # A lower level's own jet, on its own.
    low = [c for i in range(len(X.variables)) for c in point[i * 9 : i * 9 + 4]]
    assert jet_jacobian_corank(X, 3, low) == _corank_on_field_elements(X, [3], low)[0]


def _scalar_series(rng, field):
    coeffs = [rng.randint(-3, 3) for _ in range(9)]
    if field.p is None:
        coeffs = [Fraction(c, rng.randint(1, 3)) for c in coeffs]
    if rng.random() < 0.5:
        coeffs[0] = 0
    return [fe(c, field) for c in coeffs]


@pytest.mark.parametrize("field", RING_FIELDS, ids=repr)
@pytest.mark.parametrize("name", RING_VARIETIES)
def test_k_rational_points_rank_on_scalars(name, field):
    X = _ring_variety(name, field)
    rng = random.Random(f"scalar-ring-{name}-{field}")
    for _ in range(2):
        point = _ring_jet(name, field, 8, _scalar_series(rng, field), _scalar_series(rng, field))
        _check_twin(X, _mixed(point, rng), "scalars")
        raw = [as_scalar(c) for c in point]
        if field.p:
            # Unreduced ints: the same point mod p, such as 2 and 4 over GF(2).
            raw = [c + field.p * rng.randint(0, 2) for c in raw]
        _check_twin(X, raw, "scalars")


def _polynomial_series(rng, field, kind, index):
    a, b = fev("a", field), fev("b", field)
    half = a / fe(3 if field.p == 2 else 2, field)
    choices = {
        "generic": lambda k: fev(f"u{index}_{k}", field),
        "transcendental": lambda k: rng.choice([fe(rng.randint(-2, 2), field), a, b, a + b, a * fe(2, field)]),
        "constant-denominator": lambda k: rng.choice([fe(rng.randint(-2, 2), field), half, half * b]),
    }
    coeffs = [choices[kind](k) for k in range(9)]
    if rng.random() < 0.5:
        coeffs[0] = field.fe_zero
    return coeffs


@pytest.mark.parametrize("kind", ["generic", "transcendental", "constant-denominator"])
@pytest.mark.parametrize("field", RING_FIELDS, ids=repr)
@pytest.mark.parametrize("name", RING_VARIETIES)
def test_polynomial_points_rank_on_polynomials(name, field, kind):
    X = _ring_variety(name, field)
    rng = random.Random(f"polynomial-ring-{name}-{field}-{kind}")
    u, v = (_polynomial_series(rng, field, kind, i) for i in (1, 2))
    point = _ring_jet(name, field, 8, u, v)
    if kind == "constant-denominator" and field.p is None:
        assert any(c.den.constant_value() != 1 for c in point)
    _check_twin(X, _mixed(point, rng), "SparsePolynomial")


@pytest.mark.parametrize("field", RING_FIELDS, ids=repr)
def test_rational_points_rank_on_field_elements(field):
    # The cusp at (t + t^2/(1 + a))^2, (t + t^2/(1 + a))^3.
    X = _ring_variety("cusp", field)
    s = [field.fe_zero, field.fe_one, field.fe_one / (field.fe_one + fev("a", field))] + [field.fe_zero] * 6
    point = _ring_jet("cusp", field, 8, s, None)
    assert not all(c.den.is_constant() for c in point)
    _check_twin(X, _mixed(point, random.Random(f"rational-ring-{field}")), "FieldElement")


@pytest.mark.parametrize("field", [Q, F3], ids=repr)
def test_mixed_points_give_the_corank_of_field_element_points(field):
    # x = a t, y = 0 lies on the level-1 jet scheme of the cusp; so does x = a/(a + 1) t.
    X = _ring_variety("cusp", field)
    zero, a = field.fe_zero, fev("a", field)
    for c in (a, a / (a + fe(1, field))):
        lifted = [zero, c, zero, zero]
        expected = _corank_on_field_elements(X, [1], lifted)
        assert jet_jacobian_corank(X, 1, lifted) == expected[0] == 4
        for point in ([0, c, 0, 0], [zero, c, 0, 0], [0, c, zero, 0]):
            assert jet_jacobian_corank(X, [1], point) == expected


def test_generic_jet_takes_its_numerators_as_they_are(monkeypatch):
    """A generic jet's coordinates have denominator 1: their numerators are the entries, unscaled."""
    X = affine_space(2, names=("x", "y"))
    point = generic_arc(X, [0, 1], 6).truncate(4).coordinates
    calls = count_calls(monkeypatch, SparsePolynomial, ("scale",))
    coordinates, _, to_entry = _evaluation_ring(point, Q)
    assert calls == [] and to_entry is None
    assert all(poly is c.num for poly, c in zip(coordinates, point))


def test_scalar_and_polynomial_points_build_no_field_element(monkeypatch):
    whitney = next(document for document in build_catalog() if document.variety.name == "whitney")
    rational = whitney.build_arc(next(iter(whitney.arc_specs)), 8).truncate(6).coordinates
    polynomial = _unit_branch().with_precision(8).truncate(6).coordinates
    assert _ring_of(rational, Q) == "scalars" and _ring_of(polynomial, Q) == "SparsePolynomial"
    built = count_calls(monkeypatch, FieldElement, ("__init__",))
    raw = FieldElement._raw
    monkeypatch.setattr(FieldElement, "_raw", classmethod(lambda cls, num, den: built.append("_raw") or raw(num, den)))
    ranked = []
    rank = jets.matrix_rank
    monkeypatch.setattr(jets, "matrix_rank", lambda matrix: ranked.append(matrix) or rank(matrix))
    for X, point in ((whitney.variety, rational), (cusp_variety(), polynomial)):
        ranked.clear()
        coranks = jet_jacobian_corank(X, [6, 2, 4], point)
        assert len(ranked) == len(coranks) == 3
        assert all(isinstance(entry, SparsePolynomial) for matrix in ranked for row in matrix for entry in row)
    assert built == []


# The oracle builds the jet equations modulo (Z)^2, Z the jet variables whose
# coordinate at the point is zero; a full-equation reference builds them whole.
PROBLEMS = sorted((Path(__file__).resolve().parent.parent / "problems").glob("*.json"))


def _built_equations(X, levels, point):
    """The Z and the equations that jet_jacobian_corank builds at the point."""
    built = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(
            jets, "jet_ideal", lambda X, n, square_zero: built.append((square_zero, jet_ideal(X, n, square_zero))) or built[-1][1]
        )
        jet_jacobian_corank(X, levels, point)
    [(square_zero, ideal)] = built
    return square_zero, ideal.generators


def _full_equation_coranks(X, levels, point):
    """The oracle's coranks from the unreduced jet equations."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(jets, "jet_ideal", lambda X, n, square_zero: jet_ideal(X, n))
        return jet_jacobian_corank(X, levels, point)


def _check_cut(X, point, ring):
    """The oracle's equations are jet_ideal's with every term of Z-degree >= 2 removed; returns Z."""
    assert _ring_of(point, X.base) == ring
    top = len(point) // len(X.variables) - 1
    square_zero, equations = _built_equations(X, top, point)
    ideal = jet_ideal(X, top)
    coordinates = _evaluation_ring(point, X.base)[0]
    assert square_zero == {v for v, c in zip(ideal.jet_variables, coordinates) if not c}

    def cut(equation):
        terms = equation.terms.items()
        return SparsePolynomial(X.base, {mono: c for mono, c in terms if sum(e for v, e in mono if v in square_zero) < 2})

    expected = tuple(tuple(cut(equation) for equation in row) for row in ideal.generators)
    assert equations == expected
    assert all(equation.field == X.base for row in equations for equation in row)
    return square_zero


def _seeded_point(name, field, ring, rng):
    if ring == "scalars":
        u, v = _scalar_series(rng, field), _scalar_series(rng, field)
    elif ring == "SparsePolynomial":
        u, v = (_polynomial_series(rng, field, "generic", i) for i in (1, 2))
    else:
        u = [field.fe_zero, field.fe_one, field.fe_one / (field.fe_one + fev("a", field))] + [field.fe_zero] * 6
        v = _scalar_series(rng, field)
    return _ring_jet(name, field, 8, u, v)


@pytest.mark.parametrize("ring", ["scalars", "SparsePolynomial", "FieldElement"])
@pytest.mark.parametrize("field", RING_FIELDS, ids=repr)
@pytest.mark.parametrize("name", RING_VARIETIES)
def test_oracle_equations_are_the_jet_equations_modulo_the_square_of_the_zero_coordinates(name, field, ring):
    X = _ring_variety(name, field)
    rng = random.Random(f"square-zero-{name}-{field}-{ring}")
    point = _seeded_point(name, field, ring, rng)
    assert _check_cut(X, point, ring)  # some coordinate is zero, so Z is not empty
    # The same point with its scalars raw where they can be: the same Z, the same cut.
    _check_cut(X, _mixed(point, rng), ring)


def test_a_point_with_no_zero_coordinate_keeps_the_full_equations():
    # The cusp at u = 1 + t + t^2 + ...: every coefficient of u^2 and u^3 is positive.
    X = _ring_variety("cusp", Q)
    point = _ring_jet("cusp", Q, 8, [fe(1)] * 9, None)
    assert _check_cut(X, point, "scalars") == frozenset()
    assert _built_equations(X, 8, point)[1] == jet_ideal(X, 8).generators


@pytest.mark.parametrize("path", PROBLEMS, ids=lambda path: path.stem)
def test_cut_equations_give_the_full_equation_coranks_on_problem_arcs(path):
    document = load_document(str(path))
    for name in document.arc_specs:
        arc = document.build_arc(name, 32)
        point = arc.truncate(24).coordinates
        coranks = jet_jacobian_corank(arc.variety, range(25), point)
        assert coranks == _full_equation_coranks(arc.variety, range(25), point), (path.stem, name)


@pytest.mark.parametrize("document", build_catalog(), ids=lambda document: document.variety.name)
def test_cut_equations_give_the_full_equation_coranks_on_catalog_arcs(document):
    X = document.variety
    for name in document.arc_specs:
        point = document.build_arc(name, 16).truncate(6).coordinates
        assert jet_jacobian_corank(X, range(7), point) == _full_equation_coranks(X, range(7), point), (X.name, name)
