#!/usr/bin/env python3
"""Benchmark of jetspace, run from the root of a source checkout.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Workloads: catalog, generic-arcs, jet-levels (see workloads.py).  The
package is imported from ./src of the checkout, never from an installed
copy; without ./src/jetspace the benchmark exits with code 1 and prints no
result.

--trace 0 measures the end-to-end metrics with tracing off: passes of the
workload in one warm process until --seconds of pass time, with set-up
probes (fresh interpreters) between them.  Times are reported in reference
seconds, scaled by the machine's speed as a fixed reference kernel measures
it beside the workload (pace.py); end_to_end says which statistics are
reported.  --trace 1 runs the layer micro-benchmarks, two untraced and
two traced passes of the workload (their outputs must be byte-identical;
the time ratio is the tracing overhead), and one traced pass of each other
workload, since every per-layer metric is measured on the workload it
serves.  --smoke shrinks every workload to a few seconds for the
self-tests.

stdout: one line per metric with its unit, a "meta" JSON line, and as the
last line the result JSON with keys correct, attempted, failed, metrics.
Spans and the full result are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import micro
import pace
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 11
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import jetspace from ROOT/src, or exit 1 when the checkout has no source."""
    src = ROOT / "src"
    if not (src / "jetspace" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src / 'jetspace'}", file=sys.stderr)
        raise SystemExit(1)
    sys.path.insert(0, str(src))
    import jetspace

    if Path(jetspace.__file__).resolve().parent != (src / "jetspace").resolve():
        print(f"perfbench: imported jetspace from {jetspace.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(1)
    import jetspace.cli  # noqa: F401  (every module, as a user's first command would)


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in this (single) thread after ``seconds``, via SIGALRM."""

    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def setup_probe(args):
    """A callable that times one fresh interpreter importing the package and
    building the inputs; it returns (measured seconds, reference seconds).

    The probe times a burst of the reference kernel (pace.py) as soon as it
    starts and again when it is done, on the processor that did the set-up,
    and reports them; their time is taken out of the measured seconds and
    their mean speed scales what is left.  The parent blocks in waitpid
    (Popen.wait with a timeout polls in steps of up to 50 ms, which would
    quantize the reading); SIGALRM bounds it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")

    def probe() -> tuple[float, float]:
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                with time_limit(PROBE_TIMEOUT_S):
                    code = proc.wait()
            except TimeoutError:
                proc.kill()
                proc.wait()
                raise
            report = proc.stdout.read()
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        bursts = json.loads(report)
        busy = elapsed - bursts["burst_s"]
        return busy, busy * pace.NOMINAL_UNIT_S / statistics.fmean(bursts["unit_s"])

    return probe


def setup_probe_child(args) -> int:
    """The probe's own side: a burst, the set-up, a burst; reports the bursts."""
    t0 = time.perf_counter()
    first = pace.unit_seconds()
    t1 = time.perf_counter()
    import_package()
    workloads.build(args.workload, args.seed, ROOT, args.smoke)
    t2 = time.perf_counter()
    last = pace.unit_seconds()
    t3 = time.perf_counter()
    print(json.dumps({"unit_s": [first, last], "burst_s": (t1 - t0) + (t3 - t2)}))
    return 0


def end_to_end(args, meta: dict) -> tuple[dict, list]:
    """Passes until --seconds of pass time, with set-up probes between them.

    Times are reported in reference seconds (see pace.py): each measured
    interval is scaled by the machine's speed during it, as a fixed
    reference kernel sampled throughout the pass gives it, so that other
    tenants' slowdowns cancel.  ``wall_s`` is the median over passes of a
    pass's reference time; the latency percentiles are taken over the
    operations' median reference times over passes; ``setup_s`` is the
    median of the set-up probes, spread over the run, each scaled by the
    kernel bursts it runs (see setup_probe).  The measured seconds (less
    the samples' own time) are printed beside them and kept in the meta
    line.
    """
    probe = setup_probe(args)
    probe()  # fills the bytecode cache, as any earlier run of the package has
    repeats = 1 if args.smoke else SETUP_REPEATS
    setup_raw, setup_ref = [], []

    def scaled_probe():
        raw, ref = probe()
        setup_raw.append(raw)
        setup_ref.append(ref)

    scaled_probe()
    workload = workloads.build(args.workload, args.seed, ROOT, args.smoke)
    min_passes = 1 if args.smoke else MIN_PASSES
    passes, walls, pass_ref, op_raw, op_ref, unit_ms = [], [], [], [], [], []
    # Start no pass that would, at the mean pass time, end after --seconds.
    while len(walls) < min_passes or sum(walls) + statistics.mean(walls) <= args.seconds:
        with pace.Meter() as meter:
            t0 = time.perf_counter()
            result = workload.run_pass()
            t1 = time.perf_counter()
        passes.append(result)
        walls.append(meter.busy(t0, t1))
        pass_ref.append(meter.reference(t0, t1))
        spans = [(start, start + took) for start, took in zip(result.starts, result.samples)]
        op_raw.append([meter.busy(*span) for span in spans])
        op_ref.append([meter.reference(*span) for span in spans])
        unit_ms.extend(u * 1e3 for _, _, u in meter.samples)
        if len(setup_raw) < repeats:
            scaled_probe()
    while len(setup_raw) < repeats:
        scaled_probe()

    # Each pass runs the same operations in the same order.
    ref_median = [statistics.median(times) for times in zip(*op_ref)]
    raw_median = [statistics.median(times) for times in zip(*op_raw)]
    q_ref = statistics.quantiles(ref_median, n=10, method="inclusive")
    q_raw = statistics.quantiles(raw_median, n=10, method="inclusive")
    metrics = {
        "wall_s": statistics.median(pass_ref),
        "op_p50_ms": q_ref[4] * 1e3,
        "op_p90_ms": q_ref[8] * 1e3,
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    meta.update(
        pass_wall_s=walls,
        pass_reference_s=pass_ref,
        measured={
            "wall_s": statistics.median(walls),
            "op_p50_ms": q_raw[4] * 1e3,
            "op_p90_ms": q_raw[8] * 1e3,
            "setup_s": statistics.median(setup_raw),
        },
        reference_unit_ms=statistics.quantiles(unit_ms, n=4) if len(unit_ms) > 1 else unit_ms,
        reference_samples=len(unit_ms),
        ops_per_pass=len(ref_median),
        op_samples=sum(len(p.samples) for p in passes),
        setup_runs_s=setup_raw,
        setup_reference_s=setup_ref,
    )
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, passes


def traced_run(args, meta: dict) -> tuple[dict, list]:
    """Micro-benchmarks, then the workload untraced and traced twice each
    (alternating), then one traced pass of every other workload.

    Spans come from the first traced pass of each workload.  The overhead
    compares the operations' best times, traced against untraced.
    """
    micro_values = micro.run_micro()
    built = {w: workloads.build(w, args.seed, ROOT, args.smoke) for w in workloads.WORKLOADS}
    main = built[args.workload]
    trace = tracer.Tracer()
    untraced, traced, span_passes = [], [], {}
    try:
        for round_ in range(2):
            untraced.append(main.run_pass())
            trace.install()
            traced.append(main.run_pass())
            taken = trace.take()
            trace.uninstall()
            if round_ == 0:
                span_passes[args.workload] = taken
        trace.install()
        others = []
        for name, other in built.items():
            if name != args.workload:
                others.append(other.run_pass())
                span_passes[name] = trace.take()
    finally:
        trace.uninstall()
    all_passes = untraced + traced + others

    def best_total(passes):
        return sum(min(times) for times in zip(*(p.samples for p in passes)))

    untraced_s, traced_s = best_total(untraced), best_total(traced)
    values = tracer.layer_metrics(span_passes)
    units = {m["name"]: m["unit"] for m in tracer.LAYER_METRICS}
    metrics = {name: (values[name], units[name]) for name in units}
    metrics.update({name: (v, micro.MICRO_METRICS[name][0]) for name, v in micro_values.items()})
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")

    checks = []
    if len({p.output for p in untraced + traced}) != 1:
        checks.append("traced output differs from untraced output")
    missing = tracer.uncovered(span_passes)
    if missing and not args.smoke:
        checks.append("wrappers never called on their workload: " + ", ".join(missing))
    meta.update(
        untraced_best_s=untraced_s,
        traced_best_s=traced_s,
        trace_checks=checks,
        uncovered_wrappers=missing,
        span_counts={w: len(p["spans"]) for w, p in span_passes.items()},
        layer_map={m["name"]: {"measured_on": m["home"], "moves": m["moves"]} for m in tracer.LAYER_METRICS},
        micro_map={k: {"moves": v[1], "on": v[2]} for k, v in micro.MICRO_METRICS.items()},
    )
    OUT_DIR.mkdir(exist_ok=True)
    with gzip.open(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz", "wt") as handle:
        json.dump(span_passes, handle)
    return metrics, all_passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long sizes, for the self-tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        return setup_probe_child(args)
    import_package()

    meta = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_before": os.getloadavg(),
        "catalog_sha256_pinned": workloads.CATALOG_SHA256,
    }
    metrics, passes = (traced_run if args.trace else end_to_end)(args, meta)
    meta["loadavg_after"] = os.getloadavg()

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    gate = sorted({g for p in passes for g in p.gate_failures} | set(meta.get("trace_checks", [])))
    if args.trace == 0 and len({p.output for p in passes}) != 1:
        gate.append("passes of one workload produced different outputs")
    if args.workload == "catalog":
        meta["catalog_sha256_observed"] = hashlib.sha256(passes[0].output.encode()).hexdigest()
    meta.update(
        passes=len(passes),
        attempted=attempted,
        failed=len(failures),
        failed_frac=len(failures) / attempted,
        failures=sorted(set(failures)),
        gate_failures=gate,
    )

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, value in meta.get("measured", {}).items():
        print(f"{name} (measured, not scaled) = {value:.6g} {END_TO_END_UNITS[name]}")
    if "ops_per_pass" in meta:
        print(f"latency samples: {meta['op_samples']} ({meta['ops_per_pass']} operations x {len(passes)} passes)")
    print(f"failed_frac = {meta['failed_frac']:.6g} ({len(failures)} of {attempted} operations)")
    for failure in meta["failures"]:
        print(f"failed: {failure}")
    for failure in gate:
        print(f"gate: {failure}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": not gate,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    record = {"result": result, "meta": meta, "pass_samples_s": [p.samples for p in passes]}
    (OUT_DIR / f"result-{suffix}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
