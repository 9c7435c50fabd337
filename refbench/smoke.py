#!/usr/bin/env python3
"""Smoke test of the referee benchmark: every workload at tiny sizes.

Usage (from the root of the checkout):

    python3 refbench/smoke.py

Runs each workload of BENCHMARK.json untraced and traced with --smoke for
one second and asserts that the last line is the result object, that every
metric BENCHMARK.json names is printed with its unit and a finite value
(end-to-end values above 0), that failed_frac is 0, and that spans cover
at least 95% of the traced cell workloads' wall time. (At full size every
single cell is covered to within 5%; tiny cells are too short for that.)
Exits 1 on the first failed assertion.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COVERED_WORKLOADS = {"kdeg-uniform", "file-tree"}


def check(condition, what):
    if not condition:
        print("smoke: FAILED: " + what)
        sys.exit(1)


def run(workload, trace):
    command = [sys.executable, str(ROOT / "refbench" / "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
    where = "%s trace=%d" % (workload, trace)
    check(proc.returncode == 0, "%s exited %d: %s" % (where, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, where + " result keys")
    check(result["correct"] is True and result["failed"] == 0, where + " reported failures")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, where + " attempted")
    check("# failed_frac 0" in lines, where + " failed_frac is not 0")
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    check(list(metrics) == [m["name"] for m in declared], where + " metric names")
    for m in declared:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"], "%s %s unit %s" % (where, m["name"], got["unit"]))
        check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
              "%s %s value" % (where, m["name"]))
        if not trace:
            check(got["value"] > 0, "%s %s is not above 0" % (where, m["name"]))
    if trace and workload in COVERED_WORKLOADS:
        coverage = metrics["trace.cell_coverage"]["value"]
        check(coverage >= 0.95, "%s: spans cover only %.3f of cell time" % (where, coverage))
    print("smoke: %-15s trace=%d ok (%d ops)" % (workload, trace, result["attempted"]))


def main():
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            run(workload["name"], trace)
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
