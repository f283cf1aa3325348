#!/usr/bin/env python3
"""Test that a perturbed golden is counted as a failed operation.

For each workload, runs the benchmark once against the checked-in goldens
(expects correct=true, failed=0) and once against a copy in which one
golden value is altered (expects exit code 0, correct=false, failed>=1):
a wrong output must be reported in the result, not crash the run.

Usage (from the root of a checkout): python3 perfbench/test_perturbed_golden.py
Takes about two minutes; fig1_nas runs one full pass each time.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench", "selftest")
WORKLOADS = ["runtime_tasks", "scenario_fleet", "fig1_nas"]


def run(workload, goldens):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0",
         "--goldens", goldens],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def perturb(path):
    """Alter the value of the first golden in `path`; return its key."""
    with open(path) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        if line and not line.startswith("#"):
            key, value = line.split(" ", 1)
            lines[i] = f"{key} {value}0"
            break
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return key


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    shutil.copytree(GOLDENS, SCRATCH)
    failures = 0
    for workload in WORKLOADS:
        rc, res, err = run(workload, GOLDENS)
        ok = rc == 0 and res and res["correct"] and res["failed"] == 0
        print(f"{'PASS' if ok else 'FAIL'} {workload} with its goldens: "
              f"rc={rc} result={res and {k: res[k] for k in ('correct', 'attempted', 'failed')}}")
        failures += not ok

        key = perturb(os.path.join(SCRATCH, workload + ".txt"))
        rc, res, err = run(workload, SCRATCH)
        ok = (rc == 0 and res is not None and not res["correct"]
              and res["failed"] >= 1 and res["attempted"] > res["failed"])
        print(f"{'PASS' if ok else 'FAIL'} {workload} with golden {key} "
              f"perturbed: rc={rc} result={res and {k: res[k] for k in ('correct', 'attempted', 'failed')}}")
        if not ok:
            print(err, file=sys.stderr)
        failures += not ok
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
