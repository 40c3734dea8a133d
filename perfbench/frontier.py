#!/usr/bin/env python3
"""Frontier sweep: grow three problem sizes until one point takes over 10 s.

    python3 perfbench/frontier.py

Not one of the gated workloads.  In one process, one point at a time:

* whitney-corank: jet_jacobian_corank of x*y^2 = z^2 at the level-n jet of
  the through-origin arc of problems/whitney.json, n = 20, 28, 36, ...;
* mather-dim: mather_discrepancy_check on the blow-up chart of affine
  d-space, q = 1, d = 6, 8, 11, 16, ... (its cost grows slowly in d);
* cusp-transcendentals: embdim_arc (n_max = 12) on the cusp arc with T
  transcendental coefficients, arc construction included, T = 10, 14, ...

A sweep stops at the first point over LIMIT_S seconds; SIGALRM cuts a point
at TIMEOUT_S.  The points and where each sweep stopped coping go to stdout
and to perfbench/out/frontier.json.
"""

from __future__ import annotations

import json
import random
import sys
import time

from run import OUT_DIR, ROOT, import_package, time_limit

LIMIT_S = 10.0
TIMEOUT_S = 120


def _whitney_point(n: int):
    import jetspace
    from jetspace.document import load_document

    doc = load_document(str(ROOT / "problems" / "whitney.json"))
    jet = doc.build_arc("through-origin", n + 1).truncate(n)
    return lambda: jetspace.jet_jacobian_corank(doc.variety, n, jet.coordinates)


def _mather_point(d: int):
    import jetspace
    from jetspace.catalog import blow_up_chart

    chart = blow_up_chart(d)
    return lambda: jetspace.mather_discrepancy_check(chart, chart.source.variables[0], 1, precision=20).passed


def _cusp_point(T: int):
    import jetspace
    import workloads

    rng = random.Random(T)
    shifts = [rng.randint(-3, 3) for _ in range(T)]
    variety = workloads.cusp_variety()
    return lambda: jetspace.embdim_arc(workloads.cusp_arc(variety, shifts), n_max=workloads.CUSP_N_MAX).verdict()


SWEEPS = (
    ("whitney-corank", "n", range(20, 101, 8), _whitney_point),
    ("mather-dim", "d", (6, 8, 11, 16, 23, 32, 45), _mather_point),
    ("cusp-transcendentals", "T", range(10, 51, 4), _cusp_point),
)


def sweep(name: str, size_name: str, sizes, make) -> dict:
    points = []
    stopped_at = None
    for size in sizes:
        fn = make(size)
        t0 = time.perf_counter()
        try:
            with time_limit(TIMEOUT_S):
                value = fn()
            status = "ok"
        except TimeoutError:
            value, status = None, f"timeout after {TIMEOUT_S} s"
        seconds = time.perf_counter() - t0
        points.append({size_name: size, "seconds": seconds, "status": status, "value": value})
        print(f"{name} {size_name}={size}: {seconds:.3f} s {status} {value}", flush=True)
        if status != "ok" or seconds > LIMIT_S:
            stopped_at = size
            break
    return {"size": size_name, "points": points, "over_limit_at": stopped_at, "limit_s": LIMIT_S}


def main() -> int:
    import_package()
    report = {name: sweep(name, *rest) for name, *rest in SWEEPS}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "frontier.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({name: r["over_limit_at"] for name, r in report.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
