"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every tolerance is exact (integer equality); there are no numeric
slacks anywhere.  Randomized criteria run from fixed seeds.
"""

import hashlib
import json
import time

from conftest import Q
from jetspace.analysis import embdim_arc, embdim_jet, fiber_dim_formula, oracle_check
from jetspace.arcs import make_arc
from jetspace.catalog import (
    blow_up_chart,
    build_catalog,
    check_btr,
    check_codim_monotonicity,
    check_embdim_equals_jet_codim,
    check_fitting_oracle,
    check_oracle_equivalence,
    check_truncation_compatibility,
)
from jetspace.cli import main
from jetspace.geometry import jacobian_ideal_generators
from jetspace.invariants import refined_profile_of_omega
from jetspace.analysis import mather_discrepancy_check
from jetspace.series import OrderValue, SeriesExpression

# sha256 of the 23778 bytes `jetspace catalog` prints; a change that alters
# the report on purpose updates this pin and says so.
CATALOG_SHA256 = "04725e0659fd4e221a1fe459be88a02b1120b577689340a807c066f7c5f1f475"


def _report(criterion, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {criterion}{tail}")
    return ok


def test_criterion_1_oracle_equivalence():
    started = time.monotonic()
    result = check_oracle_equivalence()
    elapsed = time.monotonic() - started
    ok = result.passed and elapsed < 60.0
    assert _report(
        "criterion 1: formula = jet Jacobian corank on the catalog, n <= 6",
        ok,
        f"{result.cases} cases in {elapsed:.1f}s",
    )


def test_criterion_2_cusp_numbers():
    catalog = {e.key: e for e in build_catalog()}
    entry = catalog["cusp"]
    arc = make_arc(entry.variety, entry.arcs[0].components, 16)
    profile, arc = refined_profile_of_omega(arc)
    ord_jac = arc.ord_ideal(jacobian_ideal_generators(entry.variety, 1))
    fiber = fiber_dim_formula(arc, 3)
    corank = oracle_check(arc, 3).corank
    emb = embdim_jet(arc, 3)
    ok = (
        profile.betti == 1
        and profile.factors == (3,)
        and ord_jac == OrderValue.finite(3)
        and profile.fitting_invariant(1) == OrderValue.finite(3)
        and fiber.value == 7
        and corank == 7
        and emb.value == 7
    )
    assert _report(
        "criterion 2: cusp arc (t^2, t^3) invariants",
        ok,
        f"d={profile.betti} factors={list(profile.factors)} fiber={fiber.value} corank={corank} embdim={emb.value}",
    )


def test_criterion_3_fitting_oracle():
    result = check_fitting_oracle(trials=200)
    assert _report(
        "criterion 3: smith c_i = minor oracle on 200 random matrices",
        result.passed,
        f"{result.cases} comparisons",
    )


def test_criterion_4_truncation_compatibility():
    result = check_truncation_compatibility()
    assert _report(
        "criterion 4: e_i(level n) = min(n+1, e_i(level m)) for n < m <= 8",
        result.passed,
        f"{result.cases} comparisons",
    )


def test_criterion_5_monotonicity_and_lower_bound():
    result = check_codim_monotonicity()
    assert _report(
        "criterion 5: codim sequences non-decreasing and above the center bound",
        result.passed,
        f"{result.cases} checks",
    )


def test_criterion_6_btr():
    result = check_btr(trials=20)
    assert _report(
        "criterion 6: BTR inequalities and smooth-center equality, 20 arcs per chart",
        result.passed,
        f"{result.cases} arcs",
    )


def test_criterion_7_mather_discrepancy():
    ok = True
    details = []
    for dim, q_range in ((2, (1, 2, 3, 4)), (3, (1, 2))):
        chart = blow_up_chart(dim)
        for q in q_range:
            report = mather_discrepancy_check(chart, chart.source.variables[0], q, precision=20)
            expected = dim * q
            good = (
                report.target.stabilized
                and report.target.value == expected
                and report.expected_embdim == expected
                and report.source_equals_q
                and report.dim_bound_holds is True
            )
            ok = ok and good
            details.append(f"A{dim} q={q}: {report.target.value}")
    assert _report("criterion 7: divisorial embedding dimensions q(discrepancy+1)", ok, "; ".join(details))


def test_criterion_8_infinite_dimension_detection():
    catalog = {e.key: e for e in build_catalog()}
    ok = True
    details = []
    for vkey, arc_name in (("whitney", "singular-generic"), ("cusp", "main")):
        entry = catalog[vkey]
        spec = next(a for a in entry.arcs if a.name == arc_name)
        arc = make_arc(entry.variety, spec.components, 16)
        report = embdim_arc(arc, n_max=12, cap=96)
        seq = report.codim_sequence()
        strictly = all(b > a for a, b in zip(seq, seq[1:]))
        good = (not report.stabilized) and report.verdict() == "NotStabilizedUpTo(12)" and strictly
        ok = ok and good
        details.append(f"{vkey}/{arc_name}: {report.verdict()}")
    assert _report("criterion 8: suspected-infinite arcs never stabilize", ok, "; ".join(details))


def test_criterion_9_embdim_equals_jet_codim():
    result = check_embdim_equals_jet_codim()
    assert _report(
        "criterion 9: embedding dimension = jet codimension off the singular arcs",
        result.passed,
        f"{result.cases} comparisons",
    )


def test_criterion_10_deterministic_catalog(capsys):
    code_a = main(["catalog", "--format", "json"])
    out_a = capsys.readouterr().out
    code_b = main(["catalog", "--format", "json"])
    out_b = capsys.readouterr().out
    digest = hashlib.sha256(out_a.encode()).hexdigest()
    ok = (
        code_a == 0
        and code_b == 0
        and out_a == out_b
        and json.loads(out_a)["passed"]
        and digest == CATALOG_SHA256
    )
    with capsys.disabled():
        _report(
            "criterion 10: catalog output is byte-identical across runs and to the pin",
            ok,
            f"{len(out_a)} bytes, sha256 {digest[:8]}",
        )
    assert ok
