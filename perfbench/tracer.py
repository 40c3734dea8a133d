"""Per-layer tracing installed from outside the package.

``Tracer.install`` wraps public functions and methods of ``jetspace`` with
span recorders (name, start, end, parent) and a few hot methods with bare
call counters.  Every binding of a wrapped function is patched: the
defining module, every ``from .x import f`` copy in another module, and
entries of module-level tuples such as ``catalog._ALL_CHECKS``.  Methods
are patched on their class.  ``uninstall`` restores every binding.

Spans stay in memory, one list per traced pass, and are written out when
the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

from workloads import CATALOG_CHECK_SHA256

# Span name -> (module, attribute path).  "exprs.parse_*" both feed exprs.parse.s.
SPAN_TARGETS = {
    "invariants.fitting_minor_oracle": ("jetspace.invariants", "fitting_minor_oracle"),
    "invariants.smith_orders": ("jetspace.invariants", "smith_orders"),
    "invariants.pullback_matrix": ("jetspace.invariants", "pullback_matrix"),
    "invariants.refined_profile_of_omega": ("jetspace.invariants", "refined_profile_of_omega"),
    "invariants.refined_pullback_profile": ("jetspace.invariants", "refined_pullback_profile"),
    "arcs.residue_dimension_profile": ("jetspace.arcs", "Arc.residue_dimension_profile"),
    "arcs.with_precision": ("jetspace.arcs", "Arc.with_precision"),
    "arcs.Arc.init": ("jetspace.arcs", "Arc.__init__"),
    "exact.echelon_rank_profile": ("jetspace.exact", "echelon_rank_profile"),
    "exact.matrix_rank": ("jetspace.exact", "matrix_rank"),
    "exact.transcendence_degree": ("jetspace.exact", "transcendence_degree"),
    "series.expand": ("jetspace.series", "SeriesExpression.expand"),
    "jets.jet_jacobian_corank": ("jetspace.jets", "jet_jacobian_corank"),
    "jets.jet_ideal": ("jetspace.jets", "jet_ideal"),
    "geometry.omega_presentation": ("jetspace.geometry", "omega_presentation"),
    "analysis.mather_discrepancy_check": ("jetspace.analysis", "mather_discrepancy_check"),
    "analysis.btr_check": ("jetspace.analysis", "btr_check"),
    "analysis.embdim_arc": ("jetspace.analysis", "embdim_arc"),
    "analysis.fiber_dim_formula": ("jetspace.analysis", "fiber_dim_formula"),
    "document.load_document": ("jetspace.document", "load_document"),
    "exprs.parse_polynomial": ("jetspace.exprs", "parse_polynomial"),
    "exprs.parse_series_expression": ("jetspace.exprs", "parse_series_expression"),
    "cli.main": ("jetspace.cli", "main"),
}
# Counter name -> (module, attribute path).  Hot methods get a counter, not a span.
COUNT_TARGETS = {
    "series.TruncatedSeries.__mul__": ("jetspace.series", "TruncatedSeries.__mul__"),
    "exact.FieldElement.__add__": ("jetspace.exact", "FieldElement.__add__"),
    "exact.FieldElement.__mul__": ("jetspace.exact", "FieldElement.__mul__"),
    "exact.SparsePolynomial.__mul__": ("jetspace.exact", "SparsePolynomial.__mul__"),
}
REFINE_SPANS = ("invariants.refined_profile_of_omega", "invariants.refined_pullback_profile")
CATALOG_CHECKS = tuple(CATALOG_CHECK_SHA256)

CAT, GEN, JET = "catalog", "generic-arcs", "jet-levels"


def _m(name, unit, better, home, moves, how, *sources):
    return {"name": name, "unit": unit, "better": better, "home": home, "moves": moves, "how": how, "sources": sources}


# Every per-layer metric: the workload(s) whose traced pass measures it
# ("home"), the end-to-end metric it should move there, and how it is derived.
LAYER_METRICS = [
    _m("invariants.fitting_minor_oracle.s", "s", "lower", (CAT,), "wall_s", "s", "invariants.fitting_minor_oracle"),
    _m("invariants.fitting_minor_oracle.calls", "count", "lower", (CAT,), "wall_s", "calls", "invariants.fitting_minor_oracle"),
    _m("invariants.smith_orders.s", "s", "lower", (CAT,), "wall_s", "s", "invariants.smith_orders"),
    _m("invariants.smith_orders.self_s", "s", "lower", (CAT,), "wall_s", "self_s", "invariants.smith_orders"),
    _m("invariants.smith_orders.calls", "count", "lower", (CAT,), "wall_s", "calls", "invariants.smith_orders"),
    _m("series.mul.calls", "count", "lower", (CAT,), "wall_s", "count", "series.TruncatedSeries.__mul__"),
    _m("exact.fe_ops", "count", "lower", (CAT,), "wall_s", "count", "exact.FieldElement.__add__", "exact.FieldElement.__mul__"),
    *[_m(f"catalog.{c}.s", "s", "lower", (CAT,), "wall_s", "s", f"catalog.{c}") for c in CATALOG_CHECKS],
    _m("arcs.residue_dimension_profile.s", "s", "lower", (GEN,), "wall_s,op_p90_ms", "s", "arcs.residue_dimension_profile"),
    _m("arcs.residue_dimension_profile.calls", "count", "lower", (GEN,), "wall_s,op_p90_ms", "calls", "arcs.residue_dimension_profile"),
    _m("exact.echelon_rank_profile.s", "s", "lower", (GEN,), "wall_s,op_p90_ms", "s", "exact.echelon_rank_profile"),
    _m("exact.echelon_rank_profile.calls", "count", "lower", (GEN,), "wall_s,op_p90_ms", "calls", "exact.echelon_rank_profile"),
    _m("exact.poly_mul", "count", "lower", (GEN,), "wall_s,op_p90_ms", "count", "exact.SparsePolynomial.__mul__"),
    _m("invariants.refine.rounds", "count", "lower", (GEN,), "wall_s,op_p90_ms", "rounds", *REFINE_SPANS),
    _m("invariants.refine.useful_ratio", "ratio", "higher", (GEN,), "wall_s,op_p90_ms", "useful_ratio", *REFINE_SPANS),
    _m("arcs.with_precision.calls", "count", "lower", (GEN,), "wall_s,op_p90_ms", "calls", "arcs.with_precision"),
    _m("arcs.Arc.init.s", "s", "lower", (GEN,), "wall_s,op_p90_ms", "s", "arcs.Arc.init"),
    _m("analysis.mather_discrepancy_check.s", "s", "lower", (GEN,), "wall_s,op_p90_ms", "s", "analysis.mather_discrepancy_check"),
    _m("analysis.btr_check.s", "s", "lower", (GEN,), "wall_s,op_p90_ms", "s", "analysis.btr_check"),
    _m("analysis.embdim_arc.s", "s", "lower", (GEN,), "wall_s,op_p90_ms", "s", "analysis.embdim_arc"),
    _m("jets.jet_jacobian_corank.s", "s", "lower", (JET,), "op_p90_ms", "s", "jets.jet_jacobian_corank"),
    _m("jets.jet_jacobian_corank.calls", "count", "lower", (JET,), "op_p90_ms", "calls", "jets.jet_jacobian_corank"),
    _m("exact.matrix_rank.s", "s", "lower", (JET,), "op_p90_ms", "s", "exact.matrix_rank"),
    _m("exact.matrix_rank.calls", "count", "lower", (JET,), "op_p90_ms", "calls", "exact.matrix_rank"),
    _m("jets.jet_ideal.s", "s", "lower", (JET,), "op_p90_ms", "s", "jets.jet_ideal"),
    _m("geometry.omega_presentation.s", "s", "lower", (JET,), "op_p50_ms", "s", "geometry.omega_presentation"),
    _m("geometry.omega_presentation.calls", "count", "lower", (JET,), "op_p50_ms", "calls", "geometry.omega_presentation"),
    _m("invariants.pullback_matrix.s", "s", "lower", (JET,), "op_p50_ms", "s", "invariants.pullback_matrix"),
    _m("invariants.pullback_matrix.calls", "count", "lower", (JET,), "op_p50_ms", "calls", "invariants.pullback_matrix"),
    _m("analysis.fiber_dim_formula.s", "s", "lower", (JET,), "op_p50_ms", "s", "analysis.fiber_dim_formula"),
    _m("document.load_document.s", "s", "lower", (JET,), "op_p50_ms", "s", "document.load_document"),
    _m("exprs.parse.s", "s", "lower", (JET,), "op_p50_ms", "s", "exprs.parse_polynomial", "exprs.parse_series_expression"),
    _m("cli.main.self_s", "s", "lower", (JET,), "op_p50_ms", "self_s", "cli.main"),
    _m("exact.transcendence_degree.s", "s", "lower", (CAT, JET), "wall_s", "s", "exact.transcendence_degree"),
    _m("series.expand.s", "s", "lower", (CAT, JET), "wall_s", "s", "series.expand"),
]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span and counter wrappers; one instance per benchmark process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: dict[str, list[int]] = {name: [0] for name in COUNT_TARGETS}
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _count(self, name: str, fn):
        cell = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapped) -> None:
        """Replace ``original`` in every jetspace module namespace and module tuple."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "jetspace" or mod_name.startswith("jetspace.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)
                elif isinstance(value, tuple) and any(
                    isinstance(item, tuple) and any(x is original for x in item) for item in value
                ):
                    rebuilt = tuple(
                        tuple(wrapped if x is original else x for x in item) if isinstance(item, tuple) else item
                        for item in value
                    )
                    self._set(module, key, rebuilt)

    def install(self) -> None:
        import jetspace.catalog  # noqa: F401  (imports every module that holds a binding)
        import jetspace.cli  # noqa: F401

        for name, (module_name, path) in SPAN_TARGETS.items():
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            wrapped = self._span(name, original)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
            else:
                self._patch_everywhere(original, wrapped)
        for name, (module_name, path) in COUNT_TARGETS.items():
            owner, attr = _resolve(module_name, path)
            self._set(owner, attr, self._count(name, owner.__dict__[attr]))
        catalog = sys.modules["jetspace.catalog"]
        for check_name, check in catalog._ALL_CHECKS:
            self._patch_everywhere(check, self._span(f"catalog.{check_name}", check))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- per pass ----------------------------------------------------------

    def take(self) -> dict:
        """Spans and counts recorded since the last call; resets both."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        taken = {"spans": list(self.spans), "counts": {k: c[0] for k, c in self.counts.items()}}
        self.spans.clear()
        for cell in self.counts.values():
            cell[0] = 0
        return taken


def span_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive busy time "s", and "self_s".

    Inclusive time counts a span only when no ancestor has the same name,
    so recursion is not counted twice.  Self time subtracts the direct
    wrapped children; the benchmark is single-threaded, so they never
    overlap.
    """
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for index, (name, start, end, parent) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return stats


def refine_rounds(spans: list[list]) -> tuple[int, int]:
    """(refine-loop calls, diagonalizations run directly inside them)."""
    loops = {i for i, span in enumerate(spans) if span[0] in REFINE_SPANS}
    rounds = sum(1 for span in spans if span[0] == "invariants.smith_orders" and span[3] in loops)
    return len(loops), rounds


def layer_metrics(passes: dict[str, dict]) -> dict[str, float]:
    """Every LAYER_METRICS value from the traced passes of its home workloads."""
    stats = {w: span_stats(p["spans"]) for w, p in passes.items()}
    refine = {w: refine_rounds(p["spans"]) for w, p in passes.items()}
    values = {}
    for metric in LAYER_METRICS:
        homes = [w for w in metric["home"] if w in passes]
        how, sources = metric["how"], metric["sources"]
        if how in ("s", "self_s", "calls"):
            value = sum(stats[w][src][how] for w in homes for src in sources if src in stats[w])
        elif how == "count":
            value = sum(passes[w]["counts"][src] for w in homes for src in sources)
        elif how == "rounds":
            value = sum(refine[w][1] for w in homes)
        elif how == "useful_ratio":
            loops, rounds = (sum(refine[w][i] for w in homes) for i in (0, 1))
            value = loops / rounds if rounds else 0.0
        else:
            raise ValueError(how)
        values[metric["name"]] = value
    return values


def uncovered(passes: dict[str, dict]) -> list[str]:
    """Wrappers that recorded no call on a home workload they serve."""
    stats = {w: span_stats(p["spans"]) for w, p in passes.items()}
    missing = set()
    for metric in LAYER_METRICS:
        for w in metric["home"]:
            if w not in passes:
                continue
            for src in metric["sources"]:
                counts = passes[w]["counts"]
                called = counts[src] if src in counts else stats[w].get(src, {}).get("calls", 0)
                if not called:
                    missing.add(f"{src} on {w}")
    return sorted(missing)
