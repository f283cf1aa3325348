#!/usr/bin/env python3
"""Line coverage of the JSON binding, the parsers built on it (scenario,
manifest, benchmark report and baseline comparison), the RAAT trace codec
(it decodes files from outside), the memsim line table and protocol
paths, the task runtime (spawn, dependences, graph capture) and the
work-stealing executor with the pool on it.

Usage: parser_coverage.py BUILD_DIR OUT_DIR

BUILD_DIR is a `-DCMAKE_CXX_FLAGS=--coverage` build whose tests have run.
For each object below this runs gcov in a directory of its own under
OUT_DIR (the .gcov files CI uploads), then prints the line coverage of
each file in FILES. A header counts a line as run when any object that
compiles it ran it: src/report/json_bind.hpp over the scenario,
manifest and report objects, src/memsim/linetable.hpp over the linetable
and system objects, the runtime and executor headers over the runtime,
dependences, graph, stealing and pool objects. The numbers are
informational, not a gate.
"""
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


def line_hits(gcov_file):
    """{line: executed} over the executable lines of one .gcov file.

    Template instantiations repeat their lines in sections of their own;
    OR-ing every occurrence gives the same answer as the summary line.
    """
    hits = {}
    for text in gcov_file.read_text(errors="replace").splitlines():
        count, _, rest = text.partition(":")
        number = rest.partition(":")[0].strip()
        count = count.strip().rstrip("*")
        if count == "-" or not number.isdigit() or number == "0":
            continue
        if not (count in ("#####", "=====") or count.isdigit()):
            continue
        line = int(number)
        hits[line] = hits.get(line, False) or count.isdigit()
    return hits


def main():
    build = pathlib.Path(sys.argv[1]).resolve()
    out = pathlib.Path(sys.argv[2]).resolve()
    merged = {f: {} for f in FILES}
    for name, gcda in OBJECTS.items():
        obj = build / gcda
        where = out / name
        where.mkdir(parents=True, exist_ok=True)
        subprocess.run(["gcov", "-p", "-o", str(obj.parent), str(obj)],
                       cwd=where, check=True, stdout=subprocess.DEVNULL)
        for gcov_file in where.glob("*.gcov"):
            for f in FILES:
                if gcov_file.name.endswith(f.replace("/", "#") + ".gcov"):
                    for line, hit in line_hits(gcov_file).items():
                        merged[f][line] = merged[f].get(line, False) or hit
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
