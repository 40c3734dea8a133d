"""Layer micro-benchmarks, reported with the per-layer metrics of a traced run.

Inputs are fixed (seeded with MICRO_SEED, not the run's seed) so that the
numbers compare across runs.  Each value is the per-call time of the best
of several timed batches, as timeit reports it: other tenants of a shared
machine only ever slow a batch down.  ``MICRO_METRICS`` names the end-to-end metric and
workload each one should move.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

MICRO_SEED = 1703075
BATCHES = 7

# name -> (unit, end-to-end metric it should move, workload)
MICRO_METRICS = {
    "micro.fe_add_const_us": ("us", "wall_s", "catalog"),
    "micro.fe_mul_const_us": ("us", "wall_s", "catalog"),
    "micro.series_mul_p24_us": ("us", "wall_s", "catalog"),
    "micro.smith_orders_4x4_ms": ("ms", "wall_s", "catalog"),
    "micro.matrix_rank_ms": ("ms", "op_p90_ms", "jet-levels"),
    "micro.echelon_rank_profile_ms": ("ms", "wall_s", "generic-arcs"),
}
_SCALE = {"us": 1e6, "ms": 1e3}


def _per_call(fn, calls: int) -> float:
    """Seconds per call of ``fn`` in the best of BATCHES batches of ``calls`` calls."""
    fn()
    times = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return min(times)


def _random_series(rng, field, precision):
    from jetspace import FieldElement, TruncatedSeries

    coeffs = [
        FieldElement.from_scalar(field, 0 if rng.random() < 0.45 else Fraction(rng.randint(-9, 9)))
        for _ in range(precision)
    ]
    return TruncatedSeries.from_coefficients(field, coeffs, precision)


def _jet_jacobian_rows(level: int):
    """Jacobian of the level-n jet equations of x*y^2 = z^2 at the jet of (t^2, t, t^2)."""
    from jetspace import RATIONALS, FieldElement, SparsePolynomial, VarietyPresentation, jet_ideal

    x, y, z = (SparsePolynomial.variable(RATIONALS, v) for v in "xyz")
    whitney = VarietyPresentation(RATIONALS, ("x", "y", "z"), (x * y * y - z * z,), declared_dim=2)
    ideal = jet_ideal(whitney, level)
    arc = {"x": {2: 1}, "y": {1: 1}, "z": {2: 1}}
    env = {
        f"{v}[{p}]": FieldElement.from_scalar(RATIONALS, arc[v].get(p, 0))
        for v in "xyz"
        for p in range(level + 1)
    }

    def const(c):
        return FieldElement.from_scalar(RATIONALS, c)

    return [
        [eq.derivative(v).evaluate(env, const) for v in ideal.jet_variables]
        for row in ideal.generators
        for eq in row
    ]


def _residue_blocks(n_max: int):
    """Residue-field Jacobian rows, level by level, of the image of a generic
    contact-one arc under the blow-up chart of affine 3-space."""
    from jetspace import generic_arc, push_arc
    from jetspace.catalog import blow_up_chart

    chart = blow_up_chart(3)
    alpha = push_arc(chart, generic_arc(chart.source, [1, 0, 0], n_max + 1))
    names = alpha.transcendentals()
    blocks = []
    for n in range(n_max + 1):
        rows = []
        for series in alpha.expansions:
            g = series.coeffs[n]
            if not g.is_constant():
                rows.append([g.num.derivative(u) * g.den - g.num * g.den.derivative(u) for u in names])
        blocks.append(rows)
    return blocks


def run_micro() -> dict[str, float]:
    from jetspace import RATIONALS, FieldElement, matrix_rank, smith_orders
    from jetspace.exact import echelon_rank_profile

    rng = random.Random(MICRO_SEED)
    a = FieldElement.from_scalar(RATIONALS, Fraction(3, 7))
    b = FieldElement.from_scalar(RATIONALS, Fraction(-5, 11))
    s1, s2 = _random_series(rng, RATIONALS, 24), _random_series(rng, RATIONALS, 24)
    matrix = [[_random_series(rng, RATIONALS, 24) for _ in range(4)] for _ in range(4)]
    rows = _jet_jacobian_rows(12)
    blocks = _residue_blocks(8)
    seconds = {
        "micro.fe_add_const_us": _per_call(lambda: a + b, 2000),
        "micro.fe_mul_const_us": _per_call(lambda: a * b, 2000),
        "micro.series_mul_p24_us": _per_call(lambda: s1 * s2, 10),
        "micro.smith_orders_4x4_ms": _per_call(lambda: smith_orders(matrix, 4), 2),
        "micro.matrix_rank_ms": _per_call(lambda: matrix_rank(rows), 2),
        "micro.echelon_rank_profile_ms": _per_call(lambda: echelon_rank_profile(blocks, RATIONALS), 2),
    }
    return {name: value * _SCALE[MICRO_METRICS[name][0]] for name, value in seconds.items()}
