#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/check.hpp"
#include "common/exit_codes.hpp"
#include "exec/parallel.hpp"
#include "report/json_bind.hpp"

namespace raa::bench {

namespace {

using clock = std::chrono::steady_clock;

/// Flag ceilings: far above any real run, low enough that the unit list
/// fits in memory and the lane count stays a thread count one host can
/// start.
constexpr std::uint64_t kMaxReps = 100000;
constexpr std::uint64_t kMaxJobs = 256;

/// One scenario unit: a single repetition of a single benchmark, with a
/// private report so units can run concurrently and merge in order.
struct UnitResult {
  report::BenchReport report;
  double secs = 0.0;
  double accesses = 0.0;
  double tasks = 0.0;
};

UnitResult run_unit(const Spec& spec, const raa::Cli& cli, int rep, int reps,
                    exec::Pool* pool, bool quiet) {
  UnitResult unit{report::BenchReport{spec.name, spec.paper_ref}};
  Context ctx{cli, unit.report, rep, reps};
  ctx.pool = pool;
  ctx.quiet = quiet;
  if (cli.has("seed")) {
    ctx.seed = ctx.flag<std::uint64_t>("seed", 0, 0, 0);
    // Surface the override in the report: results under a non-default
    // seed are a different experiment than the checked-in baseline.
    unit.report.set_param("seed", std::to_string(*ctx.seed));
  }
  const auto t0 = clock::now();
  spec.fn(ctx);
  unit.secs = std::chrono::duration<double>(clock::now() - t0).count();
  // Host wall-clock capture: informational metrics, serialized for the
  // perf trajectory but exempt from the baseline comparison gate.
  unit.report.record_info("wall_seconds", unit.secs, "s");
  if (unit.secs > 0.0 && ctx.sim_accesses > 0.0)
    unit.report.record_info("accesses_per_second",
                            ctx.sim_accesses / unit.secs, "1/s");
  if (unit.secs > 0.0 && ctx.sim_tasks > 0.0)
    unit.report.record_info("tasks_per_second", ctx.sim_tasks / unit.secs,
                            "1/s");
  unit.accesses = ctx.sim_accesses;
  unit.tasks = ctx.sim_tasks;
  return unit;
}

void print_bench_wall(const Spec& spec, double secs, double accesses,
                      double tasks) {
  if (secs <= 0.0) return;
  std::printf("[wall] %s: %.2f s", spec.name.c_str(), secs);
  if (accesses > 0.0) std::printf(", %.3g sim-accesses/s", accesses / secs);
  if (tasks > 0.0) std::printf(", %.3g sim-tasks/s", tasks / secs);
  std::printf("\n");
}

}  // namespace

std::vector<Spec>& registry() {
  static std::vector<Spec> specs;
  return specs;
}

int register_bench(Spec spec) {
  registry().push_back(std::move(spec));
  return 0;
}

int harness_main(int argc, char** argv) {
  const raa::Cli cli{argc, argv};

  std::vector<Spec> specs = registry();
  std::sort(specs.begin(), specs.end(),
            [](const Spec& a, const Spec& b) { return a.name < b.name; });

  if (cli.get_bool("list", false)) {
    for (const auto& s : specs) std::printf("%s\n", s.name.c_str());
    return raa::kExitOk;
  }
  if (cli.get_bool("help", false)) {
    std::printf(
        "usage: %s [--reps=N] [--jobs=N] [--seed=N] [--json=PATH] "
        "[--only=NAME] [--list] [bench-specific flags]\n",
        argc > 0 ? argv[0] : "bench");
    return raa::kExitOk;
  }

  // The shared flags plus every registered body's own.
  std::vector<std::string_view> known = {"reps", "json", "only", "list",
                                         "help", "jobs", "seed"};
  for (const Spec& s : specs)
    known.insert(known.end(), s.flags.begin(), s.flags.end());
  if (const std::string bad = cli.unknown_flag(known); !bad.empty()) {
    std::fprintf(stderr, "error: %s\n", bad.c_str());
    return raa::kExitUsage;
  }

  const std::string only = cli.get_string("only", "");
  if (!only.empty()) {
    std::erase_if(specs, [&](const Spec& s) { return s.name != only; });
    if (specs.empty()) {
      std::fprintf(stderr, "error: no registered benchmark named '%s'; "
                           "use --list to see the choices\n",
                   only.c_str());
      return raa::kExitUsage;
    }
  }

  // --reps and --jobs go through the manifest's checked converters: a
  // value that is not a positive integer within its bound exits 2 before
  // any unit runs. The bounds keep the unit list's allocation and the int
  // casts sane.
  std::uint64_t reps_flag = 1;
  std::uint64_t jobs_flag = 1;
  std::string error;
  json::bind::convert_flag({&error}, cli, "reps", json::bind::positive,
                           kMaxReps, reps_flag);
  json::bind::convert_flag({&error}, cli, "jobs", json::bind::positive,
                           kMaxJobs, jobs_flag);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return raa::kExitUsage;
  }
  const int reps = static_cast<int>(reps_flag);
  const int jobs = static_cast<int>(jobs_flag);
  report::RunReport run{static_cast<unsigned>(reps_flag)};
  const auto run_start = clock::now();

  // Scenario units: every (benchmark, repetition) pair, spec-major. Unit
  // reports merge into the run in exactly this order for any --jobs, so
  // the serialized JSON structure — and every gated metric value — is
  // independent of how units were scheduled.
  struct Unit {
    const Spec* spec;
    int rep;
  };
  std::vector<Unit> units;
  units.reserve(specs.size() * static_cast<std::size_t>(reps));
  for (const auto& spec : specs)
    for (int rep = 0; rep < reps; ++rep) units.push_back({&spec, rep});

  // Per-spec wall totals, accumulated at merge time.
  std::vector<double> spec_secs(specs.size(), 0.0);
  std::vector<double> spec_accesses(specs.size(), 0.0);
  std::vector<double> spec_tasks(specs.size(), 0.0);
  const auto merge_unit = [&](std::size_t index, UnitResult&& unit) {
    const Unit& u = units[index];
    const std::size_t s = static_cast<std::size_t>(u.spec - specs.data());
    run.benchmark(u.spec->name, u.spec->paper_ref).absorb(unit.report);
    spec_secs[s] += unit.secs;
    spec_accesses[s] += unit.accesses;
    spec_tasks[s] += unit.tasks;
    if (u.rep == reps - 1 && jobs > 1) {
      // Parallel runs suppress the in-body tables; the per-benchmark wall
      // summary still prints, in registration order, as specs complete.
      if (specs.size() > 1) std::printf("==== %s ====\n", u.spec->name.c_str());
      print_bench_wall(*u.spec, spec_secs[s], spec_accesses[s], spec_tasks[s]);
    }
  };

  if (jobs == 1) {
    for (std::size_t i = 0; i < units.size(); ++i) {
      const Unit& u = units[i];
      if (u.rep == 0 && specs.size() > 1)
        std::printf("==== %s ====\n", u.spec->name.c_str());
      merge_unit(i, run_unit(*u.spec, cli, u.rep, reps, nullptr, false));
      if (u.rep == reps - 1) {
        const std::size_t s =
            static_cast<std::size_t>(u.spec - specs.data());
        print_bench_wall(*u.spec, spec_secs[s], spec_accesses[s],
                         spec_tasks[s]);
        if (specs.size() > 1) std::printf("\n");
      }
    }
  } else {
    // jobs - 1 workers (no more than there are units to run); the
    // merging thread is the remaining lane (it help-runs units while
    // waiting for the next in-order result).
    exec::Pool pool{static_cast<unsigned>(std::min<std::size_t>(
        static_cast<std::size_t>(jobs - 1), units.size()))};
    exec::ordered_reduce<UnitResult>(
        pool, units.size(),
        [&](std::size_t i) {
          const Unit& u = units[i];
          return run_unit(*u.spec, cli, u.rep, reps, &pool, /*quiet=*/true);
        },
        merge_unit);
  }
  run.set_wall_seconds(
      std::chrono::duration<double>(clock::now() - run_start).count());

  const std::string json_path = cli.get_string("json", "");
  if (!json_path.empty()) {
    std::string error;
    if (!run.write_file(json_path, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return raa::kExitFailure;
    }
    std::printf("wrote %s (%zu benchmark%s, reps=%d)\n", json_path.c_str(),
                run.benchmarks().size(),
                run.benchmarks().size() == 1 ? "" : "s", reps);
  }
  return raa::kExitOk;
}

}  // namespace raa::bench

int main(int argc, char** argv) {
  // A bad bench flag (or --seed) throws from the unit that reads it, and
  // a value within its flag's range can still fail a model check.
  try {
    return raa::bench::harness_main(argc, argv);
  } catch (const raa::bench::FlagError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return raa::kExitUsage;
  } catch (const raa::CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return raa::kExitUsage;
  }
}
