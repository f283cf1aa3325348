// Layered host-performance benchmark: one process runs one workload for a
// fixed host-time budget, checks its outputs, and prints every metric by
// name with its unit. The last line of stdout is the result JSON:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// End-to-end metrics come from untraced runs (--trace 0); a traced run
// (--trace 1) prints the per-layer metrics and writes a Chrome trace.
// See perfbench/README.md for workloads, metrics and the layer map.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "report/json.hpp"
#include "report/report.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: raa_perfbench --workload <fig1_nas|scenario_fleet|"
               "runtime_tasks> [--seed N] [--seconds S] [--trace 0|1]\n"
               "       [--root DIR] [--goldens DIR] [--trace-out FILE] "
               "[--write-goldens]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t to_u64(const std::string& flag, const std::string& v) {
  try {
    std::size_t used = 0;
    const unsigned long long n = std::stoull(v, &used);
    if (used == v.size()) return n;
  } catch (const std::exception&) {
  }
  usage("bad value for " + flag + ": '" + v + "'");
}

/// Accepts `--flag value` and `--flag=value`.
Options parse(int argc, char** argv, std::string& workload) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const auto eq = flag.find('=');
    const bool has_eq = eq != std::string::npos;
    if (has_eq) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    }
    if (flag == "--write-goldens") {
      opt.write_goldens = true;
      continue;
    }
    if (!has_eq) {
      if (i + 1 >= argc) usage("missing value for " + flag);
      value = argv[++i];
    }
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") opt.seed = to_u64(flag, value);
    else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(to_u64(flag, value));
      if (opt.seconds < 1) usage("--seconds must be at least 1");
    } else if (flag == "--trace") opt.trace = to_u64(flag, value) != 0;
    else if (flag == "--root") opt.root = value;
    else if (flag == "--goldens") opt.goldens_dir = value;
    else if (flag == "--trace-out") opt.trace_out = value;
    else usage("unknown argument " + flag);
  }
  if (workload.empty()) usage("--workload is required");
  if (opt.goldens_dir.empty()) opt.goldens_dir = opt.root + "/perfbench/goldens";
  if (opt.trace_out.empty())
    opt.trace_out = opt.root + "/.bench_build/perfbench/traces/" + workload +
                    "-seed" + std::to_string(opt.seed) + ".trace.json";
  return opt;
}

/// (name, unit) of every metric of `kind` ("end_to_end" or "per_layer")
/// in BENCHMARK.json, which lives at the checkout root.
std::vector<std::pair<std::string, std::string>> declared_metrics(
    const char* kind, std::string& error) {
  std::vector<std::pair<std::string, std::string>> out;
  std::ifstream in("BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = raa::json::Value::parse(text.str(), &error);
  if (!doc) return out;
  const raa::json::Value* list = doc->find(kind);
  if (list == nullptr || !list->is_array()) {
    error = std::string{"no "} + kind + " list";
    return out;
  }
  for (const auto& m : list->as_array()) {
    const auto* name = m.find("name");
    const auto* unit = m.find("unit");
    if (name == nullptr || unit == nullptr || !name->is_string() ||
        !unit->is_string()) {
      error = std::string{kind} + " entry without a name or unit";
      return out;
    }
    out.emplace_back(name->as_string(), unit->as_string());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  Options opt = parse(argc, argv, workload);
  // Inputs and outputs are named relative to the checkout root, so job
  // result documents (which name their scenario file) do not depend on
  // where the checkout lives.
  std::error_code cd_error;
  opt.goldens_dir = std::filesystem::absolute(opt.goldens_dir, cd_error);
  opt.trace_out = std::filesystem::absolute(opt.trace_out, cd_error);
  std::filesystem::current_path(opt.root, cd_error);
  if (cd_error) usage("cannot enter --root " + opt.root);
  opt.root = ".";

  // The measurement rule: every result carries the machine and build.
  const auto env = raa::report::Environment::capture();
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("# env nproc=%u compiler=\"%s\" build_type=%s git_sha=%s\n",
              std::thread::hardware_concurrency(), env.compiler.c_str(),
              env.build_type.c_str(), env.git_sha.c_str());
  if (env.build_type != "Release")
    std::printf("# WARNING: build type '%s' is not Release; host timings "
                "are not comparable with Release numbers\n",
                env.build_type.c_str());

  perfbench::steal_share_since_last();
  perfbench::Tracer tracer{opt.trace};
  perfbench::Outcome out;
  try {
    if (workload == "fig1_nas") out = perfbench::run_fig1_nas(opt, tracer);
    else if (workload == "scenario_fleet")
      out = perfbench::run_scenario_fleet(opt, tracer);
    else if (workload == "runtime_tasks")
      out = perfbench::run_runtime_tasks(opt, tracer);
    else usage("unknown workload '" + workload + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }

  if (opt.trace) {
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(opt.trace_out).parent_path(), ec);
    std::printf("# span self times (s):");
    for (const auto& [name, s] : tracer.self_s())
      std::printf(" %s=%.4f", name.c_str(), s);
    std::printf("\n");
    if (tracer.write_chrome_json(opt.trace_out))
      std::printf("# trace written to %s\n", opt.trace_out.c_str());
    else
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
  }

  // Every metric BENCHMARK.json declares for this kind of run, in its
  // order. Every workload reports every end-to-end metric; a per-layer
  // metric of a layer this workload does not exercise reads 0.
  std::string bench_error;
  const auto declared = declared_metrics(
      opt.trace ? "per_layer" : "end_to_end", bench_error);
  if (!bench_error.empty()) {
    std::fprintf(stderr, "perfbench: BENCHMARK.json: %s\n",
                 bench_error.c_str());
    return 1;
  }
  // A metric that is missing, undeclared, non-finite or in another unit
  // is a defect of the benchmark itself: no result is printed.
  std::string problems, metrics, unexercised;
  for (const auto& [name, unit] : declared) {
    const auto it = std::find_if(out.metrics.begin(), out.metrics.end(),
                                 [&](const auto& m) { return m.name == name; });
    double value = 0.0;
    if (it == out.metrics.end()) {
      if (!opt.trace) problems += " missing:" + name;
      unexercised += " " + name;
    } else {
      value = it->value;
      if (it->unit != unit || !std::isfinite(value))
        problems += " bad:" + name + "=" + std::to_string(value) + it->unit;
      std::printf("%-40s %.6g %s\n", name.c_str(), value, unit.c_str());
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + name + "\": ") +
               "{\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  for (const auto& m : out.metrics)
    if (std::none_of(declared.begin(), declared.end(),
                     [&](const auto& d) { return d.first == m.name; }))
      problems += " undeclared:" + m.name;
  if (!problems.empty()) {
    std::fprintf(stderr, "perfbench: metric defects:%s\n", problems.c_str());
    return 1;
  }
  const auto& checks = out.checks;
  if (!unexercised.empty())
    std::printf("# layers not exercised by %s (reported as 0):%s\n",
                workload.c_str(), unexercised.c_str());
  std::printf("# hypervisor steal during the run: %.1f%% of all CPU time\n",
              100.0 * perfbench::steal_share_since_last());
  std::printf("# digest %s %s\n", workload.c_str(), out.digest.c_str());
  std::printf("# error_rate %.6g (%llu of %llu operations failed)\n",
              checks.attempted() ? static_cast<double>(checks.failed()) /
                                       static_cast<double>(checks.attempted())
                                 : 0.0,
              static_cast<unsigned long long>(checks.failed()),
              static_cast<unsigned long long>(checks.attempted()));
  const bool correct = checks.failed() == 0 && checks.attempted() > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(
          checks.attempted() > 0 ? checks.attempted() : 1),
      static_cast<unsigned long long>(checks.failed()), metrics.c_str());
  return 0;
}
