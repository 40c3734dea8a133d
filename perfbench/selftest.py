#!/usr/bin/env python3
"""Self-tests of the benchmark (not collected by pytest; about a minute).

    python3 perfbench/selftest.py

* the smoke size emits every metric named in BENCHMARK.json, with its unit;
* the .calls and count metrics of two traced smoke runs are identical;
* altered catalog bytes trip the sha256 gate and are blamed on their check;
* an injected failure (non-zero exit, exception, broken identity) is
  counted and raises failed_frac;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR, ROOT, import_package

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class Failed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise Failed(message)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def smoke(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke")
    check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def test_smoke_emits_every_metric():
    import workloads

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in workloads.WORKLOADS:
            result = smoke(workload, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
            check(result["correct"] is True, f"{workload} trace={trace} not correct")
            check(result["attempted"] >= 1, "nothing attempted")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected, f"{workload} trace={trace} metrics differ: {set(got) ^ set(expected)}")


def test_counts_repeat():
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first, second = (smoke("jet-levels", 1)["metrics"] for _ in range(2))
    for name in counted:
        check(first[name]["value"] == second[name]["value"], f"{name}: {first[name]} != {second[name]}")


def test_catalog_gate():
    import workloads

    code, stdout, _ = workloads.call_cli(["catalog"])
    failed, gate, attempted = workloads.catalog_failures(stdout, code)
    check(not failed and not gate and attempted == 10, f"pinned catalog fails its gate: {failed} {gate}")
    altered = stdout.replace('"trials": 200', '"trials": 201', 1)
    check(altered != stdout, "could not alter the catalog bytes")
    failed, gate, _ = workloads.catalog_failures(altered, code)
    check(gate and any("catalog sha256" in g for g in gate), "altered bytes passed the sha256 gate")
    check(failed == ["catalog/fitting-oracle: bytes differ from pin"], f"blame: {failed}")
    failed, gate, _ = workloads.catalog_failures(stdout + "\n", code)
    check(gate and failed, "trailing bytes passed the gate")


def test_injected_failure_raises_failed_frac():
    import workloads

    workload = workloads.build("jet-levels", 7, ROOT, smoke=True)
    clean = workload.run_pass()
    check(not clean.failures, f"smoke jet-levels fails: {clean.failures}")

    def boom():
        raise ZeroDivisionError("injected")

    workload.ops = workload.ops + [
        workloads.cli_op(["fiber-dim", str(ROOT / "problems" / "no-such.json"), "--n", "4"]),
        workloads.Op("raises", boom),
    ]
    injected = workload.run_pass()
    check(len(injected.failures) == 2, f"injected failures counted as {injected.failures}")
    check(len(injected.failures) / injected.attempted > 0, "failed_frac did not rise")

    broken = {
        "fiber-dim": {"fiber_dim": {"value": 7}, "oracle": {"formula": 7, "jet_jacobian_corank": 8}},
        "oracle-check": {"checks": [{"level": 3, "formula": 5, "jet_jacobian_corank": 6}], "all_match": False},
        "mather-check": {"passed": True, "report": {"mather_discrepancy": 2, "expected_embdim": 6}},
        "btr": {"report": {"inequalities_hold": True, "smooth_at_center": True, "equality_holds": False}},
    }
    for command, report in broken.items():
        reason = workloads._check_cli_report(command, [command, "doc", "--q", "2"], json.dumps(report))
        check(reason is not None, f"broken {command} identity not detected")


def test_empty_checkout_exits_nonzero():
    scratch = OUT_DIR / "empty-checkout"
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", scratch / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    try:
        proc = bench("--workload", "catalog", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=scratch)
        check(proc.returncode != 0, "benchmark succeeded without package source")
        check(not proc.stdout.strip(), f"printed a result without package source: {proc.stdout[-300:]}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    import_package()
    tests = [value for name, value in globals().items() if name.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
            print(f"PASS {test.__name__}", flush=True)
        except Failed as err:
            failures += 1
            print(f"FAIL {test.__name__}: {err}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
