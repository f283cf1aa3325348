// Baseline comparison driver for the perf-trend CI: diffs a
// BENCH_results.json (produced by raa_bench_all --json=...) against a
// checked-in bench/baselines/*.json and exits nonzero when any metric
// drifts beyond its tolerance or disappears. See docs/BENCHMARKS.md for
// the schema and workflow.
//
// Flags:
//   --results=PATH     results file to check (required)
//   --baseline=PATH    baseline file to check against (required)
//   --tolerance=F      default relative tolerance (default 0.05); a
//                      per-metric "tolerance" field in the baseline wins
//   --report-only      always exit 0 on comparison findings (I/O or schema
//                      errors still fail); used by CI while a trend is
//                      being established
//   --verbose          print every metric row, not just the violations
//   --wall-summary     print the informational host-throughput metrics
//                      (wall_seconds, accesses_per_second, tasks_per_second)
//                      found in the results file; these are never gated
#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "common/table.hpp"
#include "report/compare.hpp"
#include "report/json_bind.hpp"
#include "report/report.hpp"

namespace {

bool load_json(const std::string& path, raa::json::Value& out) {
  std::string error;
  auto parsed = raa::json::Value::parse_file(path, &error);
  if (!parsed) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  out = std::move(*parsed);
  return true;
}

std::string fmt(double v, const char* spec = "%.6g") {
  char buf[64];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

/// Print one "[throughput] bench: wall 1.2s, 3.4e+06 accesses/s" line per
/// benchmark that recorded informational host metrics.
void print_wall_summary(const raa::report::RunReport& results) {
  for (const auto& b : results.benchmarks()) {
    double wall = -1.0, aps = -1.0, tps = -1.0;
    for (const auto& m : b.metrics()) {
      if (m.name == "wall_seconds") wall = m.median();
      if (m.name == "accesses_per_second") aps = m.median();
      if (m.name == "tasks_per_second") tps = m.median();
    }
    if (wall < 0.0 && aps < 0.0 && tps < 0.0) continue;
    std::printf("[throughput] %s:", b.name().c_str());
    if (wall >= 0.0) std::printf(" wall %.3gs", wall);
    if (aps >= 0.0) std::printf(", %.3g accesses/s", aps);
    if (tps >= 0.0) std::printf(", %.3g tasks/s", tps);
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const raa::Cli cli{argc, argv};
  if (const std::string bad =
          cli.unknown_flag({"results", "baseline", "tolerance", "report-only",
                            "verbose", "wall-summary"});
      !bad.empty()) {
    std::fprintf(stderr, "error: %s\n", bad.c_str());
    return raa::kExitUsage;
  }
  const std::string results_path = cli.get_string("results", "");
  const std::string baseline_path = cli.get_string("baseline", "");
  if (results_path.empty() || baseline_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_compare --results=PATH --baseline=PATH "
                 "[--tolerance=F] [--report-only] [--verbose] "
                 "[--wall-summary]\n");
    return raa::kExitUsage;
  }
  const bool report_only = cli.get_bool("report-only", false);
  const bool verbose = cli.get_bool("verbose", false);
  const bool wall_summary = cli.get_bool("wall-summary", false);

  // --tolerance gets the baseline's [0, 1] check; malformed reads as NaN.
  raa::report::CompareOptions options;
  std::string error;
  raa::json::bind::convert_flag({&error}, cli, "tolerance",
                                raa::json::bind::fraction, 0,
                                options.default_tolerance);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return raa::kExitUsage;
  }

  raa::json::Value results, baseline;
  if (!load_json(results_path, results) ||
      !load_json(baseline_path, baseline))
    return raa::kExitUsage;

  raa::report::CompareResult cmp;
  try {
    cmp = raa::report::compare(baseline, results, options);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return raa::kExitUsage;
  }

  raa::Table table{{"benchmark", "metric", "baseline", "measured", "rel",
                    "tol", "status"}};
  for (const auto& d : cmp.deltas) {
    if (!verbose && d.kind == raa::report::DeltaKind::ok) continue;
    table.row(d.benchmark, d.metric, fmt(d.baseline),
              d.kind == raa::report::DeltaKind::missing ? "-"
                                                        : fmt(d.measured),
              fmt(100.0 * d.rel, "%.2f%%"), fmt(100.0 * d.tolerance, "%.1f%%"),
              raa::report::to_string(d.kind));
  }
  if (table.rows() > 0) table.print(std::cout);

  if (wall_summary)  // compare() has read it already
    print_wall_summary(*raa::report::RunReport::parse(results));

  const std::size_t violations = cmp.violations();
  std::printf(
      "%zu baseline metric%s compared: %zu ok, %zu violation%s; %zu metric%s "
      "only in the results; %zu informational metric%s not gated\n",
      cmp.deltas.size(), cmp.deltas.size() == 1 ? "" : "s",
      cmp.deltas.size() - violations, violations,
      violations == 1 ? "" : "s", cmp.extra_metrics,
      cmp.extra_metrics == 1 ? "" : "s", cmp.informational_skipped,
      cmp.informational_skipped == 1 ? "" : "s");
  if (violations > 0 && report_only)
    std::printf("(report-only mode: not failing the build)\n");
  return violations > 0 && !report_only ? raa::kExitFailure : raa::kExitOk;
}
