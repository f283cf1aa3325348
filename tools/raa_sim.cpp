// raa_sim — the scenario driver: loads a declarative scenario file (or a
// recorded binary trace), runs it through the memory-hierarchy simulator,
// and emits a BENCH_results-schema JSON report.
//
//   raa_sim --scenario=FILE [--mode=M] [--seed=N] [--record=TRACE]
//           [--json=PATH] [--selfcheck] [--quiet]
//   raa_sim --replay=TRACE  [--mode=M] [--json=PATH] [--quiet]
//
//   --mode       cache_only | hybrid | compare (compare runs both and
//                reports the hybrid speedups; replay defaults to the
//                trace's recorded mode and cannot use compare)
//   --backend    flat | banked — override the DRAM timing backend the
//                scenario (or trace) selected; banked parameters still
//                come from the scenario's "memory" object / the trace
//   --mapping    block | xor — override the banked backend's bank-hash
//                address mapping (scenario key memory.banked.mapping)
//   --seed       override the scenario's seed (deterministic re-runs
//                under a different random stream; scenario input only:
//                with --replay it is a usage error, exit 2)
//   --record     write the run's access streams as a self-contained
//                trace file (requires a single concrete mode)
//   --selfcheck  prove the record/replay contract for this scenario:
//                metrics field-identical for a record -> encode -> decode
//                -> replay round trip; exit 1 on any mismatch (scenario
//                input only: with --replay there is nothing to check,
//                exit 2)
//
//   --fail-on-marker  test hook for the fuzz suite: exit 1 when the
//                scenario or trace has a __diverge_marker region (the
//                synthetic divergence the shrinker tests inject), so a
//                shrunken repro can be shown to reproduce end to end
//
// Exit codes (src/common/exit_codes.hpp — shared by every tool): 0 ok,
// 1 simulation/selfcheck/write failure, 2 bad usage or unparseable input,
// 3 degenerate scenario (a region claimed by zero cores — parseable, but
// simulating it silently skews the address-space layout for no workload
// effect).

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "common/table.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"
#include "fleet/job.hpp"  // record_runs — shared with the fleet engine
#include "fuzz/genscenario.hpp"  // kMarkerRegionName (header-only use)
#include "memsim/system.hpp"
#include "report/report.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"

namespace {

using raa::mem::HierarchyMode;
using raa::mem::Metrics;
using raa::mem::System;
using raa::mem::Workload;
using raa::scen::Scenario;
using raa::scen::TraceData;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --scenario=FILE [--mode=cache_only|hybrid|compare] "
      "[--backend=flat|banked] [--mapping=block|xor] [--seed=N] "
      "[--record=TRACE] "
      "[--json=PATH] [--trace-out=PATH] [--trace-clock=sim|host|dual] "
      "[--selfcheck] [--fail-on-marker] [--quiet]\n"
      "       %s --replay=TRACE [--mode=cache_only|hybrid] "
      "[--backend=flat|banked] [--mapping=block|xor] "
      "[--json=PATH] [--trace-out=PATH] [--trace-clock=sim|host|dual] "
      "[--fail-on-marker] [--quiet]\n",
      argv0, argv0);
  return raa::kExitUsage;
}

/// Verify the record->replay contract for one (input, mode) pair: the
/// replay runs the trace decoded from its file encoding, under the decoded
/// config and mode. Returns false (with a stderr diagnostic) when the
/// bytes do not decode or any metric differs.
bool selfcheck_mode(const raa::fleet::LoadedInput& in, HierarchyMode mode) {
  std::string error;
  const auto rr = raa::scen::record_and_replay(in.make_workload(), in.config,
                                               mode, &error);
  if (rr && rr->recorded == rr->replayed) return true;
  std::fprintf(stderr, "selfcheck FAILED (%s): %s\n",
               raa::mem::to_string(mode),
               rr ? "trace replay metrics differ from the recorded run"
                  : error.c_str());
  return false;
}

/// Write the report, then read it back through the report tables as a
/// schema check (the scenario-smoke CI tests rely on the emitted file
/// being machine-readable).
bool write_and_validate_json(const raa::report::RunReport& run,
                             const std::string& path) {
  std::string error;
  if (!run.write_file(path, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  const auto doc = raa::json::Value::parse_file(path, &error);
  if (!doc || !raa::report::RunReport::parse(*doc, &error)) {
    std::fprintf(stderr, "error: emitted JSON does not read back: %s\n",
                 error.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) try {
  const raa::Cli cli{argc, argv};
  if (cli.get_bool("help", false)) {
    usage(argv[0]);
    return raa::kExitOk;
  }
  if (const std::string bad = cli.unknown_flag(
          {"scenario", "replay", "record", "json", "selfcheck", "quiet",
           "trace-out", "trace-clock", "mode", "backend", "mapping", "seed",
           "fail-on-marker", "help"});
      !bad.empty()) {
    std::fprintf(stderr, "error: %s\n", bad.c_str());
    return usage(argv[0]);
  }

  const std::string scenario_path = cli.get_string("scenario", "");
  const std::string replay_path = cli.get_string("replay", "");
  const std::string record_path = cli.get_string("record", "");
  const std::string json_path = cli.get_string("json", "");
  const bool selfcheck = cli.get_bool("selfcheck", false);
  const bool quiet = cli.get_bool("quiet", false);
  const std::string trace_out = cli.get_string("trace-out", "");
  std::string flag_error;
  const auto trace_clock =
      cli.get_enum<raa::obs::TraceClock>("trace-clock", flag_error)
          .value_or(raa::obs::TraceClock::sim);
  const auto mode_flag =
      cli.get_enum<raa::scen::ScenarioMode>("mode", flag_error);
  const auto backend_flag =
      cli.get_enum<raa::mem::MemBackendKind>("backend", flag_error);
  const auto mapping_flag =
      cli.get_enum<raa::mem::BankMapping>("mapping", flag_error);
  if (!flag_error.empty()) {
    std::fprintf(stderr, "error: %s\n", flag_error.c_str());
    return raa::kExitUsage;
  }

  if ((scenario_path.empty()) == (replay_path.empty())) {
    std::fprintf(stderr,
                 "error: give exactly one of --scenario or --replay\n");
    return usage(argv[0]);
  }
  if (!record_path.empty() && !replay_path.empty()) {
    std::fprintf(stderr, "error: --record cannot be combined with "
                         "--replay (the trace already exists)\n");
    return usage(argv[0]);
  }
  if (selfcheck && !replay_path.empty()) {
    std::fprintf(stderr, "error: --selfcheck checks a scenario's record -> "
                         "replay round trip; a --replay run has none\n");
    return usage(argv[0]);
  }
  if (cli.has("seed") && !replay_path.empty()) {
    std::fprintf(stderr, "error: --seed re-seeds a scenario's generators; "
                         "a --replay trace has none\n");
    return usage(argv[0]);
  }

  // Resolve the input the way a fleet job does (src/fleet/job.hpp).
  raa::fleet::JobSpec input;
  input.scenario = scenario_path;
  input.trace = replay_path;
  raa::fleet::LoadedInput in;
  try {
    in = raa::fleet::load_input(input, mode_flag, backend_flag);
  } catch (const raa::fleet::JobError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return e.kind() == raa::fleet::ErrorKind::degenerate
               ? raa::kExitBadScenario
               : raa::kExitUsage;
  }
  auto& [scenario, trace, cfg, modes] = in;
  std::string name = trace ? trace->name : scenario.name;
  if (name.empty()) name = "replay";
  if (cli.has("seed"))
    scenario.seed = static_cast<std::uint64_t>(
        cli.get_int("seed", static_cast<std::int64_t>(scenario.seed)));
  if (cli.get_bool("fail-on-marker", false)) {
    // A scenario declares its regions; a trace carries the regions it
    // was recorded with (scenario.regions is empty for a --replay input).
    std::vector<std::string> region_names;
    for (const auto& r : scenario.regions) region_names.push_back(r.name);
    if (trace)
      for (const auto& r : trace->regions) region_names.push_back(r.name);
    for (const std::string& r : region_names)
      if (r.rfind(raa::fuzz::kMarkerRegionName, 0) == 0) {
        std::fprintf(stderr,
                     "marker divergence reproduced: region '%s' present "
                     "in %s\n",
                     r.c_str(),
                     (trace ? replay_path : scenario_path).c_str());
        return raa::kExitFailure;
      }
  }
  if (!record_path.empty() && modes.size() != 1) {
    std::fprintf(stderr,
                 "error: --record needs a single concrete mode; pass "
                 "--mode=cache_only or --mode=hybrid\n");
    return raa::kExitUsage;
  }
  cfg.memory.banked.mapping =
      mapping_flag.value_or(cfg.memory.banked.mapping);

  // --- main run(s) --------------------------------------------------------
  // The tracing session brackets exactly the main runs (not the
  // selfcheck re-runs), so a sim-clock trace is a function of the
  // scenario alone — byte-identical across runs (TraceDeterminism).
  if (!trace_out.empty()) raa::obs::start();
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  std::vector<Metrics> results;
  TraceData recorded;
  for (std::size_t i = 0; i < modes.size(); ++i) {
    Workload w = in.make_workload();
    if (!record_path.empty() && i == 0)
      raa::scen::record_workload(w, cfg, modes[i], recorded);
    results.push_back(System{cfg, modes[i]}.run(w));
  }
  const double wall =
      std::chrono::duration<double>(clock::now() - t0).count();
  if (!trace_out.empty()) {
    const raa::obs::Trace obs_trace = raa::obs::stop();
    std::string error;
    if (!raa::obs::write_chrome_trace(obs_trace, trace_out, trace_clock,
                                      &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return raa::kExitFailure;
    }
    if (!quiet)
      std::printf(
          "wrote trace %s (%zu events, %llu dropped, clock=%s)\n",
          trace_out.c_str(), obs_trace.events.size(),
          static_cast<unsigned long long>(obs_trace.dropped),
          raa::to_string(trace_clock));
  }

  if (!record_path.empty()) {
    std::string error;
    if (!recorded.write_file(record_path, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return raa::kExitFailure;
    }
    std::printf("recorded %s (%zu cores, %llu accesses)\n",
                record_path.c_str(), recorded.cores.size(),
                static_cast<unsigned long long>(results[0].accesses));
  }

  // --- summary ------------------------------------------------------------
  if (!quiet) {
    if (replay_path.empty())
      std::printf("scenario %s: tiles=%u seed=%llu\n", name.c_str(),
                  cfg.tiles, static_cast<unsigned long long>(scenario.seed));
    else
      std::printf("replaying %s (%s): tiles=%u\n", replay_path.c_str(),
                  name.c_str(), cfg.tiles);
    raa::Table t{{"mode", "cycles", "energy pJ", "noc flit-hops",
                  "accesses"}};
    for (std::size_t i = 0; i < modes.size(); ++i)
      t.row(raa::mem::to_string(modes[i]), results[i].cycles,
            results[i].energy_pj(), results[i].noc_flit_hops,
            static_cast<unsigned long>(results[i].accesses));
    t.print(std::cout);
    if (modes.size() == 2) {
      const Metrics& base = results[0];
      const Metrics& hyb = results[1];
      std::printf("hybrid speedups: time %.3fx, energy %.3fx, NoC %.3fx\n",
                  base.cycles / hyb.cycles,
                  base.energy_pj() / hyb.energy_pj(),
                  base.noc_flit_hops / hyb.noc_flit_hops);
    }
  }

  // --- selfcheck ----------------------------------------------------------
  if (selfcheck) {
    bool ok = true;
    for (const HierarchyMode mode : modes)
      ok = selfcheck_mode(in, mode) && ok;
    if (!ok) return raa::kExitFailure;
    std::printf("selfcheck OK: recorded run == trace replay for %zu mode%s\n",
                modes.size(), modes.size() == 1 ? "" : "s");
  }

  // --- machine-readable report -------------------------------------------
  if (!json_path.empty()) {
    raa::report::RunReport run{1};
    run.set_wall_seconds(wall);
    auto& b = run.benchmark(name, "scenario");
    b.set_param("tiles", std::to_string(cfg.tiles));
    b.set_param("backend", raa::mem::to_string(cfg.memory.kind));
    if (cfg.memory.kind == raa::mem::MemBackendKind::banked)
      b.set_param("mapping", raa::mem::to_string(cfg.memory.banked.mapping));
    if (replay_path.empty()) {
      b.set_param("scenario", scenario_path);
      b.set_param("mode", raa::scen::to_string(scenario.mode));
      b.set_param("seed", std::to_string(scenario.seed));
    } else {
      b.set_param("trace", replay_path);
      b.set_param("mode", raa::mem::to_string(modes[0]));
    }
    raa::fleet::record_runs(b, modes, results);
    b.record_info("wall_seconds", wall, "s");
    // Quarantined "obs" section: only attached when a tracing session
    // ran, so untraced reports keep their exact pre-obs bytes.
    if (!trace_out.empty())
      run.set_obs(raa::obs::Registry::instance().snapshot_json());
    if (!write_and_validate_json(run, json_path))
      return raa::kExitFailure;
  }
  return raa::kExitOk;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return raa::kExitFailure;
}
