#!/usr/bin/env python3
"""Line coverage of the JSON binding, the parsers built on it (scenario,
manifest, benchmark report and baseline comparison), the RAAT trace codec
(it decodes files from outside), the memsim line table and protocol
paths, the task runtime (spawn, dependences, graph capture) and the
work-stealing executor with the pool on it.

Usage: parser_coverage.py BUILD_DIR OUT_DIR

BUILD_DIR is a `-DCMAKE_CXX_FLAGS=--coverage` build whose tests have run.
For each object below this runs gcov in a directory of its own under
OUT_DIR (the .gcov files CI uploads). It then prints the line coverage of
each file in FILES, merged over every .gcda in the build tree: a line
counts as run when any object that compiles it ran it. That matters for
headers. The linker keeps one COMDAT copy of an inline function, often a
test object's, so the copy in the object that owns the header may never
run although the function did. The numbers are informational, not a
gate.
"""
import collections
import json
import pathlib
import subprocess
import sys

OBJECTS = {
    "scenario": "src/CMakeFiles/raa_scenario.dir/scenario/scenario.cpp.gcda",
    "trace": "src/CMakeFiles/raa_scenario.dir/scenario/trace.cpp.gcda",
    "manifest": "src/CMakeFiles/raa_fleet.dir/fleet/manifest.cpp.gcda",
    "report": "src/CMakeFiles/raa_report.dir/report/report.cpp.gcda",
    "compare": "src/CMakeFiles/raa_report.dir/report/compare.cpp.gcda",
    "linetable": "src/CMakeFiles/raa_memsim.dir/memsim/linetable.cpp.gcda",
    "system": "src/CMakeFiles/raa_memsim.dir/memsim/system.cpp.gcda",
    "runtime": "src/CMakeFiles/raa_runtime.dir/runtime/runtime.cpp.gcda",
    "dependences":
        "src/CMakeFiles/raa_runtime.dir/runtime/dependences.cpp.gcda",
    "graph": "src/CMakeFiles/raa_runtime.dir/runtime/graph.cpp.gcda",
    "stealing": "src/CMakeFiles/raa_exec.dir/exec/stealing.cpp.gcda",
    "pool": "src/CMakeFiles/raa_exec.dir/exec/pool.cpp.gcda",
}
FILES = ["src/scenario/scenario.cpp", "src/scenario/trace.cpp",
         "src/fleet/manifest.cpp", "src/report/report.cpp",
         "src/report/compare.cpp", "src/report/json_bind.hpp",
         "src/memsim/linetable.hpp", "src/memsim/linetable.cpp",
         "src/memsim/system.cpp",
         "src/runtime/runtime.cpp", "src/runtime/dependences.cpp",
         "src/runtime/graph.cpp", "src/runtime/segmented.hpp",
         "src/runtime/task.hpp", "src/exec/stealing.cpp",
         "src/exec/stealing.hpp", "src/exec/wsq.hpp", "src/exec/pool.cpp"]


def line_hits(build):
    """{file: {line: executed}} for FILES, over every .gcda under `build`.

    Template instantiations and inline copies repeat a line once per
    function; OR-ing every occurrence counts the line run when any copy
    ran.
    """
    hits = {f: {} for f in FILES}
    by_dir = collections.defaultdict(list)
    for gcda in build.rglob("*.gcda"):
        by_dir[gcda.parent].append(str(gcda))
    for where, gcdas in sorted(by_dir.items()):
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", "-o", str(where), *gcdas],
            cwd=where, check=True, capture_output=True, text=True).stdout
        for doc in out.splitlines():
            if not doc.strip():
                continue
            for entry in json.loads(doc)["files"]:
                name = entry["file"]
                for f in FILES:
                    if name == f or name.endswith("/" + f):
                        for line in entry["lines"]:
                            n = line["line_number"]
                            hits[f][n] = hits[f].get(n, False) or \
                                line["count"] > 0
    return hits


def main():
    build = pathlib.Path(sys.argv[1]).resolve()
    out = pathlib.Path(sys.argv[2]).resolve()
    for name, gcda in OBJECTS.items():
        obj = build / gcda
        where = out / name
        where.mkdir(parents=True, exist_ok=True)
        subprocess.run(["gcov", "-p", "-o", str(obj.parent), str(obj)],
                       cwd=where, check=True, stdout=subprocess.DEVNULL)
    merged = line_hits(build)
    for f in FILES:
        lines = merged[f]
        if not lines:
            print(f"{f}: no coverage data")
            continue
        run = sum(lines.values())
        print(f"{f}: {100.0 * run / len(lines):.1f}% of {len(lines)} lines "
              f"({run} run)")


if __name__ == "__main__":
    main()
