"""Built-in verification catalog.

A fixed family of varieties and arcs with independently computable
invariants, plus the cross-checks the package promises: closed formulas
against the jet Jacobian corank, diagonalization against raw minors,
truncation compatibility, monotonicity, the birational transformation
rule on blow-up charts, the discrepancy formula at divisorial arcs, and
detection of suspected-infinite embedding dimensions.

The catalog varieties and their arcs are written as problem documents
(the input format of ``jetspace.document``) and parsed once per
process; the blow-up charts are morphism documents too.  The parsed
documents are the catalog: every check builds its arcs with
``ProblemDocument.build_arc``, the route of the command line.  Only the
choice of arcs that lie on the singular locus is kept beside them.

Everything here is deterministic: randomized checks draw from fixed
seeds, and the report layout is stable, so two runs emit identical
bytes.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

from .analysis import (
    ORACLE_LEVELS,
    _stabilizations,
    btr_check,
    embdim_arc,
    embdim_jet,
    mather_discrepancy_check,
    oracle_check,
)
from .arcs import Arc, GenericComponent, make_arc
from .document import ProblemDocument, parse_document
from .exact import RATIONALS
from .geometry import MorphismPresentation, jacobian_ideal_generators, omega_presentation
from .invariants import InvariantProfile, fitting_minor_oracle, pullback_matrix, smith_orders
from .series import OrderValue, SeriesExpression, TruncatedSeries

_Q = RATIONALS
_TRUNCATION_MAX_LEVEL = 8
_STAB_N_MAX = 12
_FITTING_TRIALS = 200
_FITTING_SEED = 94301
_BTR_SEED = 52972
_BTR_TRIALS = 20

_XYZ = ["x", "y", "z"]

# The regression family: smooth spaces, plane curves, surfaces, char p.
_CATALOG_DOCUMENTS = (
    {
        "transcendentals": ["w1_0", "w1_1", "w1_2"],
        "variety": {"name": "affine-line", "variables": ["x"], "declared_dim": 1},
        "arcs": {
            "origin": {"components": ["0"]},
            "line": {"components": ["t"]},
            "window": {"components": ["w1_0 + w1_1*t + w1_2*t^2"]},
            "generic": {"components": [{"generic": {}}]},
        },
    },
    {
        "variety": {"name": "affine-plane", "variables": ["x", "y"], "declared_dim": 2},
        "arcs": {
            "origin": {"components": ["0", "0"]},
            "mono": {"components": ["t", "t^2"]},
            "generic": {"components": [{"generic": {}}, {"generic": {}}]},
        },
    },
    {
        "transcendentals": ["a1"],
        "variety": {
            "name": "cusp",
            "variables": ["x", "y"],
            "generators": ["y^2 - x^3"],
            "declared_dim": 1,
        },
        "arcs": {
            "main": {"components": ["t^2", "t^3"]},
            "unit-branch": {"components": ["t^2*(1 + t*a1)^2", "t^3*(1 + t*a1)^3"]},
        },
    },
    {
        "variety": {
            "name": "node",
            "variables": ["x", "y"],
            "generators": ["y^2 - x^3 - x^2"],
            "declared_dim": 1,
        },
        "arcs": {"branch": {"components": ["2*t + t^2", "2*t + 3*t^2 + t^3"]}},
    },
    {
        "variety": {
            "name": "whitney",
            "variables": _XYZ,
            "generators": ["x*y^2 - z^2"],
            "declared_dim": 2,
        },
        "arcs": {
            "off-axis": {"components": ["1", "t", "t"]},
            "through-origin": {"components": ["t^2", "t", "t^2"]},
            "singular-jet": {"components": ["t", "0", "0"]},
            "singular-generic": {"components": [{"generic": {"start": 1}}, "0", "0"]},
        },
    },
    *(
        {
            "variety": {
                "name": f"a{k}",
                "variables": _XYZ,
                "generators": [f"x*y - z^{k + 1}"],
                "declared_dim": 2,
            },
            "arcs": {
                "diag": {"components": ["t", f"t^{k}", "t"]},
                **({"fat": {"components": ["t^3", "t^3", "t^2"]}} if k == 2 else {}),
            },
        }
        for k in (1, 2, 3)
    ),
    *(
        {
            "field": {"prime": p},
            "variety": {
                "name": f"umbrella{p}",
                "variables": _XYZ,
                "generators": [f"x*y^{p} - z^{p}"],
                "declared_dim": 2,
            },
            "arcs": {
                "off": {"components": [f"t^{p}", "t", "t^2"]},
                "singular-jet": {"components": ["t", "0", "0"]},
            },
        }
        for p in (2, 3)
    ),
)

# (variety, arc) pairs whose arc lies in the singular locus of its variety.
_ON_SINGULAR_LOCUS = {
    ("whitney", "singular-jet"),
    ("whitney", "singular-generic"),
    ("umbrella2", "singular-jet"),
    ("umbrella3", "singular-jet"),
}


@functools.cache
def build_catalog() -> tuple[ProblemDocument, ...]:
    """The catalog's problem documents, parsed once per process."""
    return tuple(parse_document(raw) for raw in _CATALOG_DOCUMENTS)


def _catalog_document(name: str) -> ProblemDocument:
    return next(d for d in build_catalog() if d.variety.name == name)


def _catalog_arcs(precision: int, skip=frozenset()):
    """(variety name, arc name, arc) per catalog arc, built at ``precision``.

    Arcs are built afresh on each call, the way the command line builds
    them (``ProblemDocument.build_arc``); an arc whose (variety name, arc
    name) pair is in ``skip`` is never built.
    """
    for document in build_catalog():
        key = document.variety.name
        for name in document.arc_specs:
            if (key, name) not in skip:
                yield key, name, document.build_arc(name, precision)


def blow_up_chart(dim: int) -> MorphismPresentation:
    """Chart of the blow-up of the origin of affine dim-space."""
    if dim < 2:
        raise ValueError("blow-up chart needs dimension >= 2")
    targets = [f"x{i}" for i in range(1, dim + 1)]
    sources = [f"y{i}" for i in range(1, dim + 1)]
    document = {
        "variety": {"name": f"space{dim}", "variables": targets, "declared_dim": dim},
        "morphism": {
            "name": f"blowup{dim}",
            "source": {"name": f"chart{dim}", "variables": sources, "declared_dim": dim},
            "components": ["y1"] + [f"y1*{v}" for v in sources[1:]],
        },
    }
    return parse_document(document).morphism


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cases: int
    details: dict

    def to_json(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "cases": self.cases,
            "details": self.details,
        }


def check_oracle_equivalence() -> CheckResult:
    """Fiber-dimension formula vs. jet Jacobian corank, levels 0..6."""
    failures = []
    values = {}
    cases = 0
    for key, name, arc in _catalog_arcs(16):
        row = []
        for result in oracle_check(arc, ORACLE_LEVELS, cap=64):
            cases += 1
            row.append(result.fiber.value)
            if not result.match:
                failures.append(
                    {
                        "variety": key,
                        "arc": name,
                        "level": result.fiber.level,
                        "formula": result.fiber.value,
                        "corank": result.corank,
                    }
                )
        values[f"{key}/{name}"] = row
    return CheckResult(
        "oracle-equivalence",
        not failures,
        cases,
        {"fiber_dims": values, "failures": failures},
    )


def check_cusp_numbers() -> CheckResult:
    """Pinned invariants of the cuspidal arc (t^2, t^3)."""
    oracle3 = oracle_check(_catalog_document("cusp").build_arc("main", 16), [3])[0]
    profile, arc = oracle3.fiber.arc_profile, oracle3.fiber.arc
    jac_gens = jacobian_ideal_generators(arc.variety, 1)
    ord_jac = arc.ord_ideal(jac_gens)
    emb = embdim_jet(arc, 3)
    got = {
        "free_rank": profile.betti,
        "factors": list(profile.factors),
        "ord_jacobian_ideal": ord_jac.to_json(),
        "ord_jacobian_via_fitting": profile.fitting_invariant(1).to_json(),
        "fiber_dim_n3": oracle3.fiber.value,
        "jet_jacobian_corank_n3": oracle3.corank,
        "embdim_jet_n3": emb.value,
    }
    passed = (
        profile.betti == 1
        and list(profile.factors) == [3]
        and ord_jac == OrderValue.finite(3)
        and profile.fitting_invariant(1) == OrderValue.finite(3)
        and oracle3.fiber.value == 7
        and oracle3.corank == 7
        and emb.value == 7
    )
    return CheckResult("cusp-numbers", passed, 7, got)


def _random_matrix(rng: random.Random, precision: int):
    """Random matrix of rational series with small integer coefficients.

    The data has no transcendentals, so the series hold plain scalars.
    """
    rows = rng.randint(1, 4)
    cols = rng.randint(1, 4)
    matrix = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            coeffs = []
            for _ in range(6):
                coeffs.append(0 if rng.random() < 0.45 else rng.randint(-9, 9))
            row.append(TruncatedSeries.from_coefficients(_Q, coeffs, precision))
        matrix.append(row)
    return matrix, cols


def check_fitting_oracle() -> CheckResult:
    """Diagonalization-based Fitting orders vs. raw minors, random matrices."""
    rng = random.Random(_FITTING_SEED)
    failures = []
    cases = 0
    for trial in range(_FITTING_TRIALS):
        matrix, cols = _random_matrix(rng, 24)
        profile = smith_orders(matrix, cols)
        for i, minor_c in enumerate(fitting_minor_oracle(matrix, num_columns=cols)):
            cases += 1
            smith_c = profile.fitting_invariant(i)
            if smith_c != minor_c:
                failures.append(
                    {
                        "trial": trial,
                        "index": i,
                        "smith": smith_c.to_json(),
                        "minors": minor_c.to_json(),
                    }
                )
    return CheckResult(
        "fitting-oracle", not failures, cases, {"trials": _FITTING_TRIALS, "failures": failures}
    )


def _level_profiles(arc: Arc) -> list[InvariantProfile]:
    """Profiles at levels 0.._TRUNCATION_MAX_LEVEL from one pullback of the arc,
    each diagonalized on its own mod t^(n+1), not read off the arc-level pivots."""
    presentation = omega_presentation(arc.variety)
    matrix = pullback_matrix(presentation, arc)
    return [
        smith_orders(
            [[e.truncate(n + 1) for e in row] for row in matrix], presentation.num_columns, precision=n + 1
        ).at_level(n)
        for n in range(_TRUNCATION_MAX_LEVEL + 1)
    ]


def check_truncation_compatibility() -> CheckResult:
    """e_i at level n equals min(n+1, e_i at level m) for n < m <= 8."""
    failures = []
    cases = 0
    for key, name, arc in _catalog_arcs(_TRUNCATION_MAX_LEVEL + 2):
        profiles = _level_profiles(arc)
        for m in range(1, _TRUNCATION_MAX_LEVEL + 1):
            for n in range(m):
                for i in range(len(arc.variety.variables) + 1):
                    cases += 1
                    e_n = profiles[n].invariant_factor(i).value
                    e_m = profiles[m].invariant_factor(i).value
                    if e_n != min(n + 1, e_m):
                        failures.append(
                            {
                                "variety": key,
                                "arc": name,
                                "n": n,
                                "m": m,
                                "i": i,
                                "e_n": e_n,
                                "e_m": e_m,
                            }
                        )
    return CheckResult(
        "truncation-compatibility", not failures, cases, {"failures": failures}
    )


def check_betti_monotonicity() -> CheckResult:
    """Level-n free rank never increases with n."""
    failures = []
    cases = 0
    for key, name, arc in _catalog_arcs(_TRUNCATION_MAX_LEVEL + 2):
        previous = None
        for n, profile in enumerate(_level_profiles(arc)):
            betti = profile.betti
            cases += 1
            if previous is not None and betti > previous:
                failures.append({"variety": key, "arc": name, "level": n})
            previous = betti
    return CheckResult("betti-monotonicity", not failures, cases, {"failures": failures})


def check_codim_monotonicity() -> CheckResult:
    """s_n sequences are non-decreasing and bounded below by D - dim(center)."""
    failures = []
    sequences = {}
    cases = 0
    for key, name, arc in _catalog_arcs(_STAB_N_MAX + 4):
        report = embdim_arc(arc, n_max=_STAB_N_MAX, cap=96)
        seq = report.codim_sequence()
        sequences[f"{key}/{name}"] = seq
        bound = report.ambient_rank - report.rows[0].residue_dim
        for a, b in zip(seq, seq[1:]):
            cases += 1
            if b < a:
                failures.append({"variety": key, "arc": name})
        for s in seq:
            cases += 1
            if s < bound:
                failures.append({"variety": key, "arc": name, "bound": bound})
    return CheckResult(
        "codim-monotonicity", not failures, cases, {"sequences": sequences, "failures": failures}
    )


def _random_chart_arc(rng: random.Random, chart: MorphismPresentation, precision: int) -> Arc:
    comps = []
    for index in range(len(chart.source.variables)):
        kind = rng.choice(("generic", "generic", "poly", "constant"))
        if kind == "generic":
            comps.append(GenericComponent(index + 1, rng.randint(0, 3)))
        elif kind == "poly":
            degree = rng.randint(1, 4)
            coeffs = [rng.randint(-4, 4) for _ in range(degree + 1)]
            if not any(coeffs):
                coeffs[degree] = 1
            comps.append(SeriesExpression(_Q, coeffs))
        else:
            comps.append(SeriesExpression.constant(_Q, rng.randint(-3, 3)))
    return make_arc(chart.source, comps, precision)


def check_btr() -> CheckResult:
    """Birational transformation rule on blow-up charts, randomized arcs."""
    rng = random.Random(_BTR_SEED)
    failures = []
    cases = 0
    summary = []
    for dim in (2, 3):
        chart = blow_up_chart(dim)
        for trial in range(_BTR_TRIALS):
            beta = _random_chart_arc(rng, chart, 16)
            report = btr_check(chart, beta, n_max=_STAB_N_MAX, cap=96)
            cases += 1
            ok = report.inequalities_hold and report.smooth_at_center and report.equality_holds
            run = {
                "chart": chart.name,
                "trial": trial,
                "ord_jacobian": report.ord_jacobian.to_json(),
                "source": report.source.verdict(),
                "target": report.target.verdict(),
            }
            summary.append(run)
            if not ok:
                failures.append(run)
    return CheckResult("btr", not failures, cases, {"runs": summary, "failures": failures})


def check_mather() -> CheckResult:
    """Discrepancy formula at maximal divisorial arcs of blow-up charts."""
    failures = []
    runs = []
    cases = 0
    for dim, q_range in ((2, (1, 2, 3, 4)), (3, (1, 2))):
        chart = blow_up_chart(dim)
        for q in q_range:
            report = mather_discrepancy_check(
                chart, chart.source.variables[0], q, precision=20, cap=96
            )
            cases += 1
            runs.append(
                {
                    "chart": chart.name,
                    "q": q,
                    "mather_discrepancy": report.mather_discrepancy,
                    "expected_embdim": report.expected_embdim,
                    "target": report.btr.target.verdict(),
                    "dim_bound_holds": report.dim_bound_holds,
                }
            )
            expected = q * dim  # discrepancy of the origin blow-up is dim - 1
            ok = (
                report.passed
                and report.mather_discrepancy == dim - 1
                and report.expected_embdim == expected
                and report.dim_bound_holds is True
            )
            if not ok:
                failures.append({"chart": chart.name, "q": q})
    return CheckResult("mather-discrepancy", not failures, cases, {"runs": runs, "failures": failures})


def check_infinite_detection() -> CheckResult:
    """Arcs with suspected infinite embedding dimension keep growing."""
    targets = [
        ("whitney", "singular-generic"),
        ("cusp", "main"),
    ]
    failures = []
    runs = []
    cases = 0
    for vkey, arc_name in targets:
        arc = _catalog_document(vkey).build_arc(arc_name, _STAB_N_MAX + 4)
        report = embdim_arc(arc, n_max=_STAB_N_MAX, cap=96)
        seq = report.codim_sequence()
        strictly_increasing = all(b > a for a, b in zip(seq, seq[1:]))
        cases += 1
        runs.append(
            {
                "variety": vkey,
                "arc": arc_name,
                "verdict": report.verdict(),
                "sequence": seq,
            }
        )
        if report.stabilized or not strictly_increasing:
            failures.append({"variety": vkey, "arc": arc_name, "sequence": seq})
    return CheckResult(
        "infinite-detection", not failures, cases, {"runs": runs, "failures": failures}
    )


_EMBDIM_AND_CODIMS = (("embdim-arc", "betti"), ("jet-codim", "betti"), ("jet-codim", "declared"))


def check_embdim_equals_jet_codim() -> CheckResult:
    """Embedding dimension agrees with jet codimension off the singular arcs."""
    failures = []
    cases = 0
    for key, name, arc in _catalog_arcs(_STAB_N_MAX + 4, skip=_ON_SINGULAR_LOCUS):
        # One refinement and one residue elimination serve all three reports.
        emb, by_betti, by_declared = _stabilizations(arc, _EMBDIM_AND_CODIMS, _STAB_N_MAX, 96)
        for other in (by_betti, by_declared):
            cases += 1
            # ``value`` is None exactly when the report did not stabilize.
            same = (
                emb.value == other.value
                and emb.codim_sequence() == other.codim_sequence()
            )
            if not same:
                failures.append(
                    {
                        "variety": key,
                        "arc": name,
                        "dim_source": other.dim_source,
                        "embdim": emb.codim_sequence(),
                        "jet_codim": other.codim_sequence(),
                    }
                )
    return CheckResult(
        "embdim-equals-jet-codim", not failures, cases, {"failures": failures}
    )


_ALL_CHECKS: tuple[tuple[str, Callable[[], CheckResult]], ...] = (
    ("oracle-equivalence", check_oracle_equivalence),
    ("cusp-numbers", check_cusp_numbers),
    ("fitting-oracle", check_fitting_oracle),
    ("truncation-compatibility", check_truncation_compatibility),
    ("betti-monotonicity", check_betti_monotonicity),
    ("codim-monotonicity", check_codim_monotonicity),
    ("btr", check_btr),
    ("mather-discrepancy", check_mather),
    ("infinite-detection", check_infinite_detection),
    ("embdim-equals-jet-codim", check_embdim_equals_jet_codim),
)


@dataclass(frozen=True)
class CatalogReport:
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self):
        return {
            "passed": self.passed,
            "checks": [r.to_json() for r in self.results],
        }


def run_catalog() -> CatalogReport:
    return CatalogReport(tuple(check() for _, check in _ALL_CHECKS))
