#!/usr/bin/env python3
"""Append perfbench medians to BENCH_trajectory.json, or print the file.

Usage:
    bench_trajectory.py append --label TEXT [--file PATH] RUN.txt [RUN.txt ...]
    bench_trajectory.py show [--file PATH]

Each RUN.txt is the whole stdout of one untraced perfbench run:

    python3 perfbench/run.py --workload runtime_tasks --seed 4 \\
        --seconds 36 --trace 0 > RUN.txt

`append` reads three lines of each run: the `# perfbench <workload> ...`
header, the `# env ...` machine record and the last line (the result
JSON). All runs must name the same workload, seconds and environment,
and be untraced. It appends one entry per workload: the label, the
machine record, the seeds, the failed/attempted totals and, per
end-to-end metric, the median and the interquartile range over the runs.
`git_sha` is the HEAD of the measured checkout: for an uncommitted change
it names the parent, so say so in the label. The file defaults to
BENCH_trajectory.json at the repository root.
"""
import argparse
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
DEFAULT_FILE = os.path.join(ROOT, "BENCH_trajectory.json")
SCHEMA = "raa-bench-trajectory"


def parse_run(path):
    with open(path, encoding="utf-8") as f:
        lines = [l.rstrip("\n") for l in f if l.strip()]
    head = next((l for l in lines if l.startswith("# perfbench ")), None)
    env = next((l for l in lines if l.startswith("# env ")), None)
    if head is None or env is None or not lines[-1].startswith("{"):
        sys.exit(f"{path}: not the stdout of a perfbench run")
    words = head.split()
    fields = dict(w.split("=", 1) for w in words[3:])
    if fields.get("trace") != "0":
        sys.exit(f"{path}: a traced run has no end-to-end metrics")
    machine = {k: v.strip('"') for k, v in
               re.findall(r'(\w+)=("[^"]*"|\S+)', env[len("# env "):])}
    result = json.loads(lines[-1])
    return {
        "workload": words[2],
        "seed": int(fields["seed"]),
        "seconds": float(fields["seconds"]),
        "env": machine,
        "result": result,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(label, runs):
    first = runs[0]
    for r in runs[1:]:
        for key in ("workload", "seconds", "env"):
            if r[key] != first[key]:
                sys.exit(f"runs disagree on {key}: {first[key]} vs {r[key]}")
    metrics = {}
    for name, m in first["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, q3 = quartiles(values)
        metrics[name] = {"median": statistics.median(values),
                         "iqr": q3 - q1, "unit": m["unit"]}
    env = dict(first["env"])
    return {
        "label": label,
        "git_sha": env.pop("git_sha", "unknown"),
        "machine": env,
        "workload": first["workload"],
        "seconds": first["seconds"],
        "seeds": sorted(r["seed"] for r in runs),
        "correct": all(r["result"]["correct"] for r in runs),
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "metrics": metrics,
    }


def load(path):
    if not os.path.exists(path):
        return {"schema": SCHEMA, "version": 1, "entries": []}
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        sys.exit(f"{path}: not a {SCHEMA} document")
    return doc


def append(args):
    doc = load(args.file)
    by_workload = {}
    for path in args.runs:
        run = parse_run(path)
        by_workload.setdefault(run["workload"], []).append(run)
    for workload in sorted(by_workload):
        doc["entries"].append(summarize(args.label, by_workload[workload]))
    with open(args.file, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def show(args):
    for e in load(args.file)["entries"]:
        m = e["metrics"]
        print(f"{e['workload']:15} {e['git_sha']:9} n={len(e['seeds']):<3}"
              f" throughput_per_s={m['throughput_per_s']['median']:.4g}"
              f" cpu_s={m['cpu_s']['median']:.4g}"
              f" failed={e['failed']}  {e['label']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    a = sub.add_parser("append")
    a.add_argument("--label", required=True)
    a.add_argument("--file", default=DEFAULT_FILE)
    a.add_argument("runs", nargs="+")
    a.set_defaults(func=append)
    s = sub.add_parser("show")
    s.add_argument("--file", default=DEFAULT_FILE)
    s.set_defaults(func=show)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
