"""k-rational arcs: the raw-scalar route against the field-element route.

An arc whose components are series expressions with base-field constant
coefficients, or mapped components of such an arc, expands on raw
scalars.  Each test here builds the same arc a second time with
``SeriesExpression.is_k_rational`` patched to False, which sends every
expansion through field elements, and requires the two routes to agree.
Anything that refines an arc of the field-element route must run while
the patch holds, since refinement re-expands the components.
"""

from pathlib import Path

import pytest

from conftest import count_calls, level_profile, sexpr
from jetspace.arcs import GenericComponent, make_arc, push_arc
from jetspace.catalog import blow_up_chart, build_catalog
from jetspace.document import load_document
from jetspace.errors import NotOnVariety
from jetspace.exact import RATIONALS, BaseField, FieldElement, SparsePolynomial
from jetspace.geometry import MorphismPresentation, VarietyPresentation
from jetspace.invariants import profile_of_omega
from jetspace.jets import jet_jacobian_corank
from jetspace.series import PRECISION_CAP, SeriesExpression

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _document_arcs():
    """(id, space, components) for every k-rational arc of problems/*.json and the catalog."""
    documents = [(path.stem, load_document(str(path))) for path in sorted(PROBLEMS.glob("*.json"))]
    documents += [(f"catalog-{document.variety.name}", document) for document in build_catalog()]
    return [
        (f"{label}:{name}", space, components)
        for label, document in documents
        for name, (space, components) in document.arc_specs.items()
        if all(isinstance(c, SeriesExpression) and c.is_k_rational() for c in components)
    ]


def _plane_chart(field):
    """The blow-up chart (u, v) -> (u, u*v) of the affine plane over ``field``."""
    source = VarietyPresentation(field, ("u", "v"), (), declared_dim=2, name="chart")
    target = VarietyPresentation(field, ("x", "y"), (), declared_dim=2, name="plane")
    u, v = (SparsePolynomial.variable(field, name) for name in ("u", "v"))
    return MorphismPresentation(source, target, (u, u * v), name="blowup")


DOCUMENT_ARCS = _document_arcs()
# Image arcs: mapped components of a k-rational source arc, over Q, GF(2) and GF(3).
IMAGE_ARCS = [
    ("blowup-plane:image", _plane_chart(RATIONALS), [(0, 1), (2, -1, 0, 3)]),
    ("blowup-plane-gf2:image", _plane_chart(BaseField(2)), [(0, 1, 1), (1, 0, 1)]),
    ("blowup-plane-gf3:image", _plane_chart(BaseField(3)), [(0, 2), (1, 1, 0, 2)]),
    ("blowup-3:image", blow_up_chart(3), [(0, 1), (1, 2), (0, 0, -1)]),
]


def _document_builder(space, components):
    return lambda precision: make_arc(space, components, precision)


def _image_builder(f, coefficients):
    field = f.source.base
    components = [sexpr(*coeffs, field=field) for coeffs in coefficients]
    return lambda precision: push_arc(f, make_arc(f.source, components, precision))


BUILDERS = [pytest.param(_document_builder(space, comps), id=label) for label, space, comps in DOCUMENT_ARCS]
BUILDERS += [pytest.param(_image_builder(f, coeffs), id=label) for label, f, coeffs in IMAGE_ARCS]


def _both_routes(monkeypatch, build):
    """The result of ``build()`` on the scalar route, then on the field-element route."""
    scalar = build()
    with monkeypatch.context() as patched:
        patched.setattr(SeriesExpression, "is_k_rational", lambda self: False)
        lifted = build()
    return scalar, lifted


def test_the_cases_cover_q_gf2_and_gf3():
    fields = {space.base.p for _, space, _ in DOCUMENT_ARCS}
    assert fields == {None, 2, 3}
    labels = {label for label, _, _ in DOCUMENT_ARCS}
    assert {"cusp:main", "whitney:singular-jet", "umbrella-char2:singular-jet", "catalog-umbrella3:off"} <= labels
    assert len(DOCUMENT_ARCS) == 23


@pytest.mark.parametrize("build", BUILDERS)
def test_expansions_agree(build, monkeypatch):
    for precision in (1, 25, PRECISION_CAP):
        scalar, lifted = _both_routes(monkeypatch, lambda: build(precision))
        assert scalar.k_rational and not lifted.k_rational
        p = scalar.variety.base.p
        for series in scalar.expansions:
            assert not any(isinstance(c, (FieldElement, SparsePolynomial)) for c in series.coeffs)
            assert p is None or all(type(c) is int and 0 <= c < p for c in series.coeffs)
        assert all(isinstance(c, FieldElement) for series in lifted.expansions for c in series.coeffs)
        assert scalar.precision == lifted.precision == precision
        assert scalar.expansions == lifted.expansions
        assert [str(s) for s in scalar.expansions] == [str(s) for s in lifted.expansions]
        assert scalar.center() == lifted.center()
        assert scalar.transcendentals() == lifted.transcendentals() == []


@pytest.mark.parametrize(
    "space, components", [pytest.param(space, comps, id=label) for label, space, comps in DOCUMENT_ARCS]
)
def test_an_arc_off_the_variety_fails_alike(space, components, monkeypatch):
    """Adding t^2 to one component: the same NotOnVariety (or none) on both routes."""
    bump = SeriesExpression.t_power(space.base, 2)
    outcomes = []
    for i in range(len(components)):
        moved = list(components)
        moved[i] = moved[i] + bump

        def build():
            try:
                make_arc(space, moved, 25)
            except NotOnVariety as err:
                return err.generator_index, err.order
            return None

        scalar, lifted = _both_routes(monkeypatch, build)
        assert scalar == lifted
        outcomes.append(scalar)
    if space.generators:
        assert any(outcome is not None for outcome in outcomes)


@pytest.mark.parametrize("build", BUILDERS)
def test_invariants_agree(build, monkeypatch):
    """Omega profiles at arc level and levels 0-8, jet coranks, residue profiles."""
    scalar, lifted = _both_routes(monkeypatch, lambda: build(25))
    X = scalar.variety
    assert profile_of_omega(scalar) == profile_of_omega(lifted)
    for n in range(9):
        assert level_profile(scalar, n) == level_profile(lifted, n)
    coranks = jet_jacobian_corank(X, range(5), scalar.truncate(4).coordinates)
    assert coranks == jet_jacobian_corank(X, range(5), lifted.truncate(4).coordinates)
    for arc in (scalar, lifted):
        residue = arc.residue_dimension_profile(8)
        assert residue.ranks == [0] * 9
        assert not residue.char_p_jacobian


def test_building_validating_and_refining_makes_no_field_element_arithmetic(monkeypatch):
    builders = [_document_builder(space, comps) for _, space, comps in DOCUMENT_ARCS]
    builders += [_image_builder(f, coeffs) for _, f, coeffs in IMAGE_ARCS]
    calls = count_calls(monkeypatch, FieldElement, ("__add__", "__mul__"))
    for build in builders:
        arc = build(24)
        for precision in (48, 96, PRECISION_CAP):
            arc = arc.with_precision(precision)
        assert arc.k_rational and arc.precision == PRECISION_CAP
        profile_of_omega(arc)
    assert calls == []


def test_a_mixed_arc_lifts_its_scalar_components(monkeypatch):
    plane = VarietyPresentation(RATIONALS, ("x", "y"), (), declared_dim=2)
    components = [GenericComponent(1, 1), sexpr(1, 2, 0, -1)]
    scalar, lifted = _both_routes(monkeypatch, lambda: make_arc(plane, components, 8))
    assert not scalar.k_rational
    assert all(isinstance(c, FieldElement) for series in scalar.expansions for c in series.coeffs)
    assert [str(s) for s in scalar.expansions] == [str(s) for s in lifted.expansions]
    assert scalar.transcendentals() == [f"u1_{p}" for p in range(1, 8)]
