// raa_fleet — the fault-isolated batch driver: run every job of a fleet
// manifest (or every scenario in a directory) through the memory-hierarchy
// simulator, stream one result JSON per job, and merge everything into a
// machine-readable index. Individual job failures never kill the fleet:
// they are classified (src/fleet/job.hpp), optionally retried, and
// reported — graceful degradation by construction.
//
//   raa_fleet --manifest=FILE [options]
//   raa_fleet --scenarios=DIR [options]
//
//   --out=DIR        output directory: per-job <id>.json plus index.json
//                    (default fleet_out)
//   --jobs=N         concurrent job lanes (default 1; results are
//                    byte-identical for every N)
//   --mode=M         fallback mode for jobs that set none
//                    (cache_only | hybrid | compare)
//   --backend=B      fallback DRAM backend (flat | banked)
//   --timeout-ms=N   fallback per-job deadline (0 = none, at most
//                    9223372036854); timed-out jobs are cancelled
//                    cooperatively and their lane reclaimed
//   --retries=N      fallback retry budget for transient failures
//   --backoff-ms=N   first retry delay (default 50), doubling per attempt
//   --backoff-cap-ms=N  backoff ceiling (default 2000)
//   --seed=N         fleet seed override (per-job seeds derive from it and
//                    the job id — stable under manifest reordering)
//   --fail-fast      record still-unstarted jobs as skipped once any job
//                    has failed
//   --trace-out=PATH write a Chrome trace-event JSON of the fleet run
//                    (host clock: job spans, retries, timeouts)
//
//   --inject-fail=GLOB / --inject-flaky=GLOB / --inject-hang=GLOB
//                    fault-injection test hooks over job ids: permanent
//                    failure, transient first-attempt failure (drives the
//                    retry path), cooperative hang (drives the watchdog
//                    timeout path; matching jobs need a deadline)
//
// Exit codes (src/common/exit_codes.hpp): 0 every job ok, 4 partial fleet
// (some jobs ok, some not — the degradation signal), 1 no job succeeded or
// the fleet itself failed, 2 bad usage/manifest (including a fallback flag
// the manifest itself would reject: an unknown --mode/--backend name, or a
// number out of range, such as --jobs=0).

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "common/table.hpp"
#include "fleet/fleet.hpp"
#include "report/json_bind.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --manifest=FILE | --scenarios=DIR [--out=DIR] [--jobs=N]\n"
      "       [--mode=cache_only|hybrid|compare] [--backend=flat|banked]\n"
      "       [--timeout-ms=N] [--retries=N] [--backoff-ms=N]\n"
      "       [--backoff-cap-ms=N] [--seed=N] [--fail-fast] [--quiet]\n"
      "       [--trace-out=PATH]\n"
      "       [--inject-fail=GLOB] [--inject-flaky=GLOB] "
      "[--inject-hang=GLOB]\n",
      argv0);
  return raa::kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  const raa::Cli cli{argc, argv};
  using raa::fleet::FleetOptions;
  using raa::fleet::Manifest;
  if (const std::string bad = cli.unknown_flag(
          {"manifest", "scenarios", "out", "jobs", "mode", "backend",
           "timeout-ms", "retries", "backoff-ms", "backoff-cap-ms", "seed",
           "fail-fast", "quiet", "trace-out", "inject-fail", "inject-flaky",
           "inject-hang"});
      !bad.empty()) {
    std::fprintf(stderr, "raa_fleet: %s\n", bad.c_str());
    return usage(argv[0]);
  }

  const std::string manifest_path = cli.get_string("manifest", "");
  const std::string scenarios_dir = cli.get_string("scenarios", "");
  if (manifest_path.empty() == scenarios_dir.empty()) {
    std::fprintf(stderr,
                 "raa_fleet: give exactly one of --manifest or --scenarios\n");
    return usage(argv[0]);
  }

  // The fallback flags get the manifest's checks: enums through their name
  // tables, numbers through the same converters and bounds (a malformed
  // number reads as -1 and fails too).
  FleetOptions opt;
  std::string error;
  opt.fallback.mode = cli.get_enum<raa::scen::ScenarioMode>("mode", error);
  opt.fallback.backend =
      cli.get_enum<raa::mem::MemBackendKind>("backend", error);
  const auto number = [&](const char* name, auto& out, unsigned flags,
                          std::uint64_t max) {
    raa::json::bind::convert_flag({&error}, cli, name, flags, max, out);
  };
  number("jobs", opt.jobs, raa::json::bind::positive, 0);
  number("timeout-ms", opt.fallback.timeout_ms, 0, raa::fleet::kMaxTimeoutMs);
  number("retries", opt.fallback.retries, 0, 0);
  number("backoff-ms", opt.backoff_base_ms, 0, raa::fleet::kMaxTimeoutMs);
  number("backoff-cap-ms", opt.backoff_cap_ms, 0, raa::fleet::kMaxTimeoutMs);
  if (!error.empty()) {
    std::fprintf(stderr, "raa_fleet: %s\n", error.c_str());
    return raa::kExitUsage;
  }

  std::optional<Manifest> man =
      !manifest_path.empty() ? Manifest::load_file(manifest_path, &error)
                             : Manifest::from_directory(scenarios_dir, &error);
  if (!man) {
    std::fprintf(stderr, "raa_fleet: %s\n", error.c_str());
    return raa::kExitUsage;
  }
  if (cli.has("seed")) man->seed = cli.get_int("seed", 1);
  opt.manifest = std::move(*man);
  opt.out_dir = cli.get_string("out", "fleet_out");
  opt.inject_fail = cli.get_string("inject-fail", "");
  opt.inject_flaky = cli.get_string("inject-flaky", "");
  opt.inject_hang = cli.get_string("inject-hang", "");
  opt.fail_fast = cli.get_bool("fail-fast", false);
  opt.quiet = cli.get_bool("quiet", false);

  // Fleet spans live on the host clock (job wall time is the point), so
  // the exported trace always uses TraceClock::host.
  const std::string trace_out = cli.get_string("trace-out", "");
  if (!trace_out.empty()) raa::obs::start();

  const raa::fleet::FleetResult res = raa::fleet::run_fleet(opt);

  if (!trace_out.empty()) {
    const raa::obs::Trace trace = raa::obs::stop();
    std::string trace_error;
    if (!raa::obs::write_chrome_trace(trace, trace_out,
                                      raa::obs::TraceClock::host,
                                      &trace_error)) {
      std::fprintf(stderr, "raa_fleet: %s\n", trace_error.c_str());
      return raa::kExitFailure;
    }
    if (!opt.quiet)
      std::printf("[raa_fleet] wrote trace %s (%zu events, %llu dropped)\n",
                  trace_out.c_str(), trace.events.size(),
                  static_cast<unsigned long long>(trace.dropped));
  }
  if (!res.error.empty())
    std::fprintf(stderr, "raa_fleet: %s\n", res.error.c_str());
  if (res.records.empty()) return res.exit_code;

  if (!opt.quiet) {
    raa::Table t{{"job", "status", "attempts", "seed", "detail"}};
    for (const auto& r : res.records)
      t.row(r.id, raa::fleet::to_string(r.status),
            std::to_string(r.attempts), std::to_string(r.seed),
            r.message.empty() ? r.result_file : r.message);
    t.print(std::cout);
    std::printf(
        "[raa_fleet] %zu jobs: %u ok, %u retried_ok, %u failed, %u timeout, "
        "%u skipped -> %s (exit %d)\n",
        res.records.size(), res.ok, res.retried_ok, res.failed, res.timeout,
        res.skipped,
        raa::to_string(static_cast<raa::ExitCode>(res.exit_code)),
        res.exit_code);
  }
  return res.exit_code;
}
