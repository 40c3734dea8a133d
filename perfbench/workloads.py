"""The three benchmark workloads: inputs from a seed, one timed pass, output checks.

Each workload runs in one process, one thread, through the package's public
functions (``generic-arcs``) or ``jetspace.cli.main`` in-process (``catalog``,
``jet-levels``).  A pass returns the bytes it produced, one latency sample
and start time per operation, and the operations that failed.  An operation
fails when it raises, exits non-zero, or breaks an identity the paper
guarantees; the failure is counted, never skipped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Bytes of `jetspace catalog` (JSON) that every change must keep, unless it
# says otherwise in CHANGES.md and updates these pins.
CATALOG_BYTES = 23778
CATALOG_SHA256 = "04725e0659fd4e221a1fe459be88a02b1120b577689340a807c066f7c5f1f475"

# sha256 of each check object of the catalog report, rendered with
# json.dumps(check, indent=2, sort_keys=True).  A byte change is blamed on
# the checks whose pin it breaks.
CATALOG_CHECK_SHA256 = {
    "oracle-equivalence": "805624bb26de254e8e1be6778380091d99790f529d47f6359d4d1a9b26267d54",
    "cusp-numbers": "7cab9532a9f9d50979eedd4d5afe474a5ea1624307c8d84d3b5ca693dad15eee",
    "fitting-oracle": "0c843964897538962197663443c3707d22f9fa45f377dc7e34deeea58f5babae",
    "truncation-compatibility": "7406e57e0da43562068a00a7b10203dd407970e54c2950755da9e54ad64a89b0",
    "betti-monotonicity": "221982e09c4601e49ce41117c683134bfef0bcfa26140fce28fdb1886ecf6028",
    "codim-monotonicity": "4ec69fd8ac65ca2218898780da082046b20b0e91802cade94e58f81c4e555a56",
    "btr": "942bbb2d695b0470ad31b17d5f556bc14fefe17fdfb157c929aad1ffffa4b6ba",
    "mather-discrepancy": "5ed1486a02bc54d22200dd7d479e4cc919ed93b38bebb57763c25a21b816570b",
    "infinite-detection": "12d79f15b4b2366f3b81f663401005381c9f2874222e7f20151d01aee8abb03f",
    "embdim-equals-jet-codim": "26cfeaa53f2424017112ec6e11b33b9615fb948ada67a8135578e12e12d62dd0",
}


@dataclass
class PassResult:
    """One pass of a workload."""

    output: str
    samples: list[float]  # seconds, one per operation
    attempted: int
    failures: list[str]
    gate_failures: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)  # perf_counter at each operation's start


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` returns (output text, failure reason or None)."""

    label: str
    run: Callable[[], tuple[str, str | None]]


def _run_ops(ops: list[Op]) -> PassResult:
    outputs, samples, starts, failures = [], [], [], []
    for op in ops:
        start = time.perf_counter()
        starts.append(start)
        try:
            text, failure = op.run()
        except Exception as err:  # a raising operation is a counted failure
            text, failure = f"raised {type(err).__name__}: {err}", f"raised {type(err).__name__}"
        samples.append(time.perf_counter() - start)
        outputs.append(f"## {op.label}\n{text}")
        if failure is not None:
            failures.append(f"{op.label}: {failure}")
    return PassResult("\n".join(outputs), samples, len(ops), failures, starts=starts)


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``jetspace.cli.main`` in-process; returns (exit code, stdout, stderr)."""
    from jetspace import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# --------------------------------------------------------------------------
# catalog


def catalog_failures(stdout: str, code: int, whole: bool = True) -> tuple[list[str], list[str], int]:
    """(failed operations, gate failures, checks attempted) for catalog bytes.

    ``whole`` gates the sha256 of the full report; without it (the smoke
    size runs a subset of the checks) only the per-check pins apply.
    """
    gate = []
    data = stdout.encode()
    digest = hashlib.sha256(data).hexdigest()
    if code != 0:
        gate.append(f"exit code {code}")
    if whole and digest != CATALOG_SHA256:
        gate.append(f"catalog sha256 {digest} ({len(data)} bytes) != pinned {CATALOG_SHA256} ({CATALOG_BYTES} bytes)")
    try:
        checks = json.loads(stdout)["checks"]
    except (ValueError, KeyError, TypeError):
        return ["catalog: unparseable report"], gate + ["catalog: unparseable report"], len(CATALOG_CHECK_SHA256)
    failed = []
    for check in checks:
        name = check.get("name", "?")
        rendered = json.dumps(check, indent=2, sort_keys=True).encode()
        if not check.get("passed"):
            failed.append(f"catalog/{name}: passed=false")
        elif hashlib.sha256(rendered).hexdigest() != CATALOG_CHECK_SHA256.get(name):
            failed.append(f"catalog/{name}: bytes differ from pin")
            gate.append(f"catalog/{name}: bytes differ from pin")
    if gate and not failed:
        failed.append("catalog: gate failed outside any check")
    return failed, gate, len(checks)


# Full-size catalog checks run by the smoke size; their pins still hold.
SMOKE_CATALOG_CHECKS = ("cusp-numbers", "mather-discrepancy")


class Catalog:
    """``jetspace catalog`` through ``cli.main``; no seed, the bytes are the contract."""

    name = "catalog"

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def run_pass(self) -> PassResult:
        from jetspace import catalog

        samples: list[float] = []
        starts: list[float] = []

        def timed(check):
            def run():
                start = time.perf_counter()
                starts.append(start)
                try:
                    return check()
                finally:
                    samples.append(time.perf_counter() - start)

            return run

        saved = catalog._ALL_CHECKS
        checks = [(n, c) for n, c in saved if not self.smoke or n in SMOKE_CATALOG_CHECKS]
        catalog._ALL_CHECKS = tuple((name, timed(check)) for name, check in checks)
        try:
            code, stdout, _ = call_cli(["catalog"])
        except Exception as err:  # a raising check fails the pass, counted
            reason = f"catalog raised {type(err).__name__}: {err}"
            return PassResult(reason, samples, len(checks), [reason], [reason], starts)
        finally:
            catalog._ALL_CHECKS = saved
        failed, gate, attempted = catalog_failures(stdout, code, whole=not self.smoke)
        return PassResult(stdout, samples, attempted, failed, gate, starts)


# --------------------------------------------------------------------------
# generic-arcs

MATHER_DIMS = (3, 4, 5, 6)
MATHER_QS = (1, 2)
CUSP_TRANSCENDENTALS = (3, 5, 7, 10)
CUSP_N_MAX = 12
# Components of the BTR arcs on each chart: "gK" generic (fresh
# transcendentals from t^K on), "p" a polynomial of degree 2 in t, "c" a
# constant.  The shapes are fixed so that every seed does the same work
# (where a constant or a start order sits changes an operation's cost
# several-fold); the seed draws the nonzero coefficients.
BTR_PATTERNS = {
    3: (("g1", "g0", "p"), ("g1", "g0", "c"), ("g1", "p", "c"), ("g1", "g1", "g0")),
    4: (("g1", "g0", "p", "c"), ("g1", "g0", "g0", "p"), ("g1", "g0", "c", "c"), ("g1", "p", "p", "c")),
}
BTR_ROUNDS = 3


def cusp_variety():
    from jetspace import RATIONALS, SparsePolynomial, VarietyPresentation

    x = SparsePolynomial.variable(RATIONALS, "x")
    y = SparsePolynomial.variable(RATIONALS, "y")
    return VarietyPresentation(RATIONALS, ("x", "y"), (y * y - x * x * x,), declared_dim=1, name="cusp")


def cusp_arc(variety, shifts: list[int], precision: int = CUSP_N_MAX + 4):
    """x = s^2, y = s^3 with s = t + (r_0 + a_0) t^2 + ... + (r_{T-1} + a_{T-1}) t^(T+1)."""
    from jetspace import RATIONALS, FieldElement, SeriesExpression, make_arc

    coeffs = [FieldElement.from_scalar(RATIONALS, 0), FieldElement.from_scalar(RATIONALS, 1)]
    for i, r in enumerate(shifts):
        coeffs.append(FieldElement.variable(RATIONALS, f"a{i}") + FieldElement.from_scalar(RATIONALS, r))
    s = SeriesExpression(RATIONALS, coeffs)
    return make_arc(variety, [s**2, s**3], precision)


def chart_arc(rng: random.Random, chart, pattern: tuple[str, ...], precision: int = 16):
    """An arc on the chart's source with the given component shapes and seeded coefficients."""
    from jetspace import RATIONALS, FieldElement, GenericComponent, SeriesExpression, make_arc

    comps = []
    for index, kind in enumerate(pattern):
        if kind.startswith("g"):
            comps.append(GenericComponent(index + 1, int(kind[1:])))
            continue
        degree = 2 if kind == "p" else 0
        coeffs = [rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(degree + 1)]
        comps.append(SeriesExpression(RATIONALS, [FieldElement.from_scalar(RATIONALS, c) for c in coeffs]))
    return make_arc(chart.source, comps, precision)


# Operations look the package's functions up when they run, so that a
# traced pass goes through the wrappers installed after the inputs were built.


def _mather_op(chart, d: int, q: int) -> Op:
    def run():
        import jetspace

        report = jetspace.mather_discrepancy_check(chart, chart.source.variables[0], q, precision=20)
        failure = None
        if not report.passed:
            failure = "passed=false"
        elif report.mather_discrepancy != d - 1:
            failure = f"discrepancy {report.mather_discrepancy} != {d - 1}"
        elif report.expected_embdim != q * d:
            failure = f"embedding dimension {report.expected_embdim} != {q * d}"
        return json.dumps(report.to_json(), sort_keys=True), failure

    return Op(f"mather d={d} q={q}", run)


def _cusp_op(variety, shifts: list[int]) -> Op:
    T = len(shifts)

    def run():
        import jetspace

        report = jetspace.embdim_arc(cusp_arc(variety, shifts), n_max=CUSP_N_MAX)
        failure = None
        # T transcendentals bound the residue dimension by T, so
        # s_n >= (n+1) D - T grows without bound whenever D > 0.
        if report.ambient_rank > 0 and report.stabilized:
            failure = f"{report.verdict()} for D={report.ambient_rank} and {T} transcendentals (embedding dimension is infinite)"
        return json.dumps(report.to_json(), sort_keys=True), failure

    return Op(f"cusp T={T}", run)


def _btr_op(chart, pattern: tuple[str, ...], arc_seed: int, label: str) -> Op:
    def run():
        import jetspace

        arc = chart_arc(random.Random(arc_seed), chart, pattern)
        report = jetspace.btr_check(chart, arc)
        failure = None
        if not report.inequalities_hold:
            failure = "BTR inequalities fail"
        elif report.smooth_at_center and report.equality_holds is not True:
            failure = "BTR equality fails on a smooth source"
        return json.dumps(report.to_json(), sort_keys=True), failure

    return Op(label, run)


class GenericArcs:
    """Seeded transcendental-coefficient arcs through the public API.

    Only the seeded draws happen here; each operation builds its arc, so
    arc construction is timed with the analysis that uses it.
    """

    name = "generic-arcs"

    def __init__(self, seed: int, smoke: bool = False):
        from jetspace.catalog import blow_up_chart

        rng = random.Random(seed)
        cut = 1 if smoke else None
        self.ops: list[Op] = []
        for d in MATHER_DIMS[:cut]:
            chart = blow_up_chart(d)
            self.ops.extend(_mather_op(chart, d, q) for q in MATHER_QS[:cut])
        cusp = cusp_variety()
        for T in CUSP_TRANSCENDENTALS[:cut]:
            # Nonzero shifts: a zero shift halves an arc's cost, so the
            # number of zeros drawn would move wall_s from seed to seed.
            self.ops.append(_cusp_op(cusp, [rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(T)]))
        for d, patterns in BTR_PATTERNS.items():
            chart = blow_up_chart(d)
            for round_ in range(1 if smoke else BTR_ROUNDS):
                for pattern in patterns[:cut]:
                    label = f"btr chart{d} {','.join(pattern)} #{round_}"
                    self.ops.append(_btr_op(chart, pattern, rng.getrandbits(64), label))
        rng.shuffle(self.ops)

    def run_pass(self) -> PassResult:
        return _run_ops(self.ops)


# --------------------------------------------------------------------------
# jet-levels

# (document, arc) pairs queried at jet levels; umbrella-char2 covers F_2.
LEVEL_ARCS = (
    ("cusp", "main"),
    ("cusp", "unit-branch"),
    ("whitney", "off-axis"),
    ("whitney", "through-origin"),
    ("whitney", "singular-jet"),
    ("umbrella-char2", "off"),
    ("umbrella-char2", "singular-jet"),
)
# Each (document, arc) gets one fiber-dim and one embdim-jet query at each
# of four levels.  The two low levels are one in each of the SEEDED_STRATA,
# at offsets 0 and 1 in either order; the seed picks the order for each
# (document, arc, command), with half of them each way, so that every seed
# asks the same number of queries at each level (a level more or less
# moves a query's time by a fifth, and op_p50_ms with the count).  The two
# high levels are fixed, because the slowest queries set op_p90_ms.
SEEDED_STRATA = (4, 10)
FIXED_LEVELS = (17, 24)
OTHER_QUERIES = (
    ("profile", "cusp", ["--arc", "main"]),
    ("profile", "cusp", ["--arc", "unit-branch"]),
    ("profile", "whitney", ["--arc", "singular-generic"]),
    ("profile", "umbrella-char2", ["--arc", "off"]),
    ("embdim-arc", "whitney", ["--arc", "singular-generic"]),
    ("embdim-arc", "cusp", ["--arc", "unit-branch"]),
    ("embdim-arc", "umbrella-char2", ["--arc", "off"]),
    ("embdim-arc", "whitney", ["--arc", "off-axis"]),
    ("jet-codim", "cusp", ["--arc", "main", "--dim-source", "declared"]),
    ("jet-codim", "whitney", ["--arc", "off-axis"]),
    ("jet-codim", "umbrella-char2", ["--arc", "off", "--dim-source", "declared"]),
    ("oracle-check", "cusp", ["--arc", "main"]),
    ("oracle-check", "whitney", ["--arc", "through-origin"]),
    ("oracle-check", "umbrella-char2", ["--arc", "off"]),
    ("btr", "blowup-plane", ["--arc", "contact1"]),
    ("mather-check", "blowup-plane", ["--divisor-var", "u"]),
    ("mather-check", "blowup-plane", ["--divisor-var", "u"]),
    ("divisorial", "blowup-plane", ["--divisor-var", "u"]),
    ("jet-ideal", "cusp", []),
    ("jet-ideal", "whitney", []),
    ("jet-ideal", "umbrella-char2", []),
)
# Parameters the seed deals out to the OTHER_QUERIES of these commands, as
# a permutation of the values, so that every seed uses each value as often.
DEALT_OPTIONS = {
    ("mather-check", "divisorial"): ("--q", (1, 2, 3)),
    ("oracle-check",): ("--n", (5, 5, 6)),
    ("jet-ideal",): ("--n", (12, 12, 13)),
}
# The blow-up of the plane at the origin: Mather discrepancy 1, so q * 2.
BLOWUP_PLANE_DIM = 2


def _check_cli_report(command: str, argv: list[str], stdout: str) -> str | None:
    """Paper identities visible in one CLI report; None when they hold."""
    report = json.loads(stdout)
    if command == "fiber-dim":
        formula, corank = report["fiber_dim"]["value"], report["oracle"]["jet_jacobian_corank"]
        if formula != corank or report["oracle"]["formula"] != corank:
            return f"formula {formula} != corank {corank}"
    elif command == "oracle-check":
        bad = [c["level"] for c in report["checks"] if c["formula"] != c["jet_jacobian_corank"]]
        if bad or not report["all_match"]:
            return f"formula != corank at levels {bad}"
    elif command == "mather-check":
        inner = report["report"]
        q = int(argv[argv.index("--q") + 1])
        if not report["passed"]:
            return "passed=false"
        if inner["mather_discrepancy"] != BLOWUP_PLANE_DIM - 1:
            return f"discrepancy {inner['mather_discrepancy']} != {BLOWUP_PLANE_DIM - 1}"
        if inner["expected_embdim"] != q * BLOWUP_PLANE_DIM:
            return f"embedding dimension {inner['expected_embdim']} != {q * BLOWUP_PLANE_DIM}"
    elif command == "btr":
        inner = report["report"]
        if not inner["inequalities_hold"]:
            return "BTR inequalities fail"
        if inner["smooth_at_center"] and inner["equality_holds"] is not True:
            return "BTR equality fails on a smooth source"
    return None


def cli_op(argv: list[str]) -> Op:
    command = argv[0]
    label = " ".join([command, Path(argv[1]).stem] + argv[2:])

    def run():
        code, stdout, stderr = call_cli(argv)
        if code != 0:
            return stdout + stderr, f"exit code {code}: {stderr.strip()}"
        return stdout, _check_cli_report(command, argv, stdout)

    return Op(label, run)


def jet_level_queries(root: Path, seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    problems = root / "problems"
    queries = []
    pairs = [(doc, arc, command) for doc, arc in LEVEL_ARCS for command in ("fiber-dim", "embdim-jet")]
    low_first = [i % 2 == 0 for i in range(len(pairs))]
    rng.shuffle(low_first)
    for (doc, arc, command), first in zip(pairs, low_first):
        offsets = (0, 1) if first else (1, 0)
        levels = [base + offset for base, offset in zip(SEEDED_STRATA, offsets)] + list(FIXED_LEVELS)
        for level in levels:
            queries.append([command, str(problems / f"{doc}.json"), "--arc", arc, "--n", str(level)])
    dealt = {commands: rng.sample(values, len(values)) for commands, (_, values) in DEALT_OPTIONS.items()}
    for command, doc, extra in OTHER_QUERIES:
        argv = [command, str(problems / f"{doc}.json")] + extra
        for commands, (option, _) in DEALT_OPTIONS.items():
            if command in commands:
                argv += [option, str(dealt[commands].pop())]
        queries.append(argv)
    rng.shuffle(queries)
    return queries


class JetLevels:
    """Seeded CLI queries on problems/*.json, each parsed and rendered in-process."""

    name = "jet-levels"

    def __init__(self, seed: int, root: Path, smoke: bool = False):
        queries = jet_level_queries(root, seed)
        self.ops = [cli_op(argv) for argv in (queries[::8] if smoke else queries)]

    def run_pass(self) -> PassResult:
        return _run_ops(self.ops)


# Why each workload is in the benchmark (also the "why" of BENCHMARK.json).
WHY = {
    "catalog": "jetspace catalog bytes under a sha256 gate; half the time in fitting_minor_oracle over rational series",
    "generic-arcs": "transcendental-coefficient arcs; residue profiles and echelon ranks over rational functions dominate",
    "jet-levels": "seeded CLI queries at jet levels 4-24 incl. F2; Bareiss matrix_rank sets p90, per-command overhead p50",
}
WORKLOADS = tuple(WHY)


def build(name: str, seed: int, root: Path, smoke: bool = False):
    """The workload with its inputs built from ``seed``; ``smoke`` is a seconds-long size."""
    if name == "catalog":
        return Catalog(smoke)
    if name == "generic-arcs":
        return GenericArcs(seed, smoke)
    if name == "jet-levels":
        return JetLevels(seed, root, smoke)
    raise ValueError(f"unknown workload {name!r}")
