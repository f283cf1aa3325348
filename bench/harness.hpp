#pragma once
/// \file harness.hpp
/// Shared entry point for the figure/ablation benches. Each bench source
/// defines its body with RAA_BENCHMARK(name, paper_ref) { ... } instead of
/// main(); linking bench/harness.cpp provides a main() that parses the
/// common flags, runs every registered benchmark and writes the merged
/// machine-readable report:
///
///   --reps=N       repeat each benchmark body N times (default 1); metric
///                  samples accumulate across repetitions
///   --json=PATH    write the merged RunReport (BENCH_results.json schema)
///   --only=NAME    run a single registered benchmark (raa_bench_all)
///   --list         print registered benchmark names and exit
///   --jobs=N       run independent scenario units — every (benchmark,
///                  repetition) pair — across N concurrent lanes
///                  (src/exec/ pool; default 1). Unit reports merge in
///                  registration order regardless of completion order, so
///                  every gated metric of BENCH_results.json is
///                  bit-identical for any N (only the informational wall
///                  metrics move). Table output is suppressed when N > 1.
///   --seed=N       override the deterministic seed of every benchmark
///                  body that draws random data (bodies read it through
///                  ctx.seed_or(default)). The report records the
///                  override as a "seed" parameter; metric values under a
///                  non-default seed will legitimately differ from the
///                  checked-in baseline.
///
/// Every numeric flag, shared or bench-specific (bodies read theirs with
/// ctx.flag()), is checked like its JSON twin (json::bind::convert_flag):
/// a malformed or out-of-range value exits 2 with a `--flag: ...` message.
/// A flag that neither the harness nor a registered body reads exits 2
/// with `unknown flag --x (accepted: ...)`, and a model check a flag value
/// fails (raa::CheckError, e.g. a tile count no mesh has) exits 2 with its
/// message.
///
/// Single-figure binaries register exactly one benchmark; raa_bench_all
/// links all bench sources and therefore registers all of them. Table
/// output goes to stdout on the first repetition only (guard any direct
/// printing with ctx.printing()).

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "exec/pool.hpp"
#include "report/json_bind.hpp"
#include "report/report.hpp"

namespace raa::bench {

/// Ceilings of the bench size flags: far above any documented run, low
/// enough that a typo cannot ask for more memory than a host has.
inline constexpr std::uint64_t kMaxKeys = std::uint64_t{1} << 24;  ///< --n
inline constexpr std::uint64_t kMaxScale = 64;  ///< --scale, --paper-scale
inline constexpr std::uint64_t kMaxGrid = 2048;  ///< --grid (per side)
/// --tiles: the memsim directory keeps sharers in a 64-bit mask.
inline constexpr std::uint64_t kMaxTiles = 64;
inline constexpr std::uint64_t kMaxCores = 1024;  ///< --cores (modelled)
inline constexpr std::uint64_t kMaxFrames = 100000;  ///< --frames
inline constexpr std::uint64_t kMaxCkptInterval = 1000000;  ///< iterations

/// A bench flag with a bad value (Context::flag); the harness prints it
/// and exits 2.
struct FlagError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Passed to every benchmark body.
struct Context {
  const raa::Cli& cli;            ///< parsed command line (bench flags)
  report::BenchReport& report;    ///< record() headline metrics here
  int rep = 0;                    ///< current repetition, 0-based
  int reps = 1;                   ///< total repetitions
  double sim_accesses = 0;        ///< see add_accesses()
  double sim_tasks = 0;           ///< see add_tasks()
  /// The harness pool when --jobs > 1, else null. Bench bodies may run
  /// *independent* sub-units on it (e.g. the cache_only/hybrid halves of
  /// a run_comparison); results must not depend on completion order.
  exec::Pool* pool = nullptr;
  bool quiet = false;  ///< parallel run: suppress table printing
  /// Set when --seed=N was passed; benchmark bodies read it through
  /// seed_or() so any bench can be re-run under a different deterministic
  /// random stream without a rebuild.
  std::optional<std::uint64_t> seed;

  /// The seed a benchmark body should use: the --seed override when
  /// present, else the body's registered default.
  std::uint64_t seed_or(std::uint64_t fallback) const noexcept {
    return seed.value_or(fallback);
  }

  /// True on the repetition whose tables should be printed.
  bool printing() const noexcept { return rep == 0 && !quiet; }

  /// A numeric bench flag (a size, count or scale by default: a positive
  /// integer of at most `max`, 0 = no ceiling), `fallback` when absent.
  /// A bad value throws FlagError naming the flag.
  template <class T>
  T flag(const char* name, T fallback, std::uint64_t max,
         unsigned flags = json::bind::positive) const {
    std::string error;
    if (!json::bind::convert_flag({&error}, cli, name, flags, max, fallback))
      throw FlagError{error};
    return fallback;
  }

  /// Tell the harness how many simulated memory accesses this repetition
  /// drove; it derives the informational `accesses_per_second` metric
  /// (host throughput trend, exempt from the baseline gate).
  void add_accesses(double n) noexcept { sim_accesses += n; }
  /// Same for replayed/spawned tasks -> `tasks_per_second`.
  void add_tasks(double n) noexcept { sim_tasks += n; }
};

using BenchFn = void (*)(Context&);

struct Spec {
  std::string name;       ///< binary-style name, e.g. "fig1_hybrid_memory"
  std::string paper_ref;  ///< e.g. "§2 Figure 1"
  BenchFn fn = nullptr;
  /// The bench-specific flags the body reads. A binary accepts the shared
  /// flags plus those of every benchmark it registers, and exits 2 on any
  /// other.
  std::vector<std::string_view> flags;
};

/// Registration order across translation units is unspecified; the harness
/// runs benchmarks sorted by name.
std::vector<Spec>& registry();
int register_bench(Spec spec);

/// The shared main(); returns the process exit code.
int harness_main(int argc, char** argv);

}  // namespace raa::bench

#define RAA_BENCH_CONCAT_(a, b) a##b
#define RAA_BENCH_CONCAT(a, b) RAA_BENCH_CONCAT_(a, b)

/// Defines and registers a benchmark body, naming the bench-specific flags
/// it reads:
///   RAA_BENCHMARK("fig3_vsr_sort", "§3.2 Figure 3", "n") { ... use ctx ... }
#define RAA_BENCHMARK(name_str, paper_ref_str, ...)                       \
  static void RAA_BENCH_CONCAT(raa_bench_body_, __LINE__)(                \
      raa::bench::Context&);                                              \
  [[maybe_unused]] static const int RAA_BENCH_CONCAT(raa_bench_reg_,      \
                                                     __LINE__) =          \
      raa::bench::register_bench(                                        \
          {name_str, paper_ref_str,                                      \
           &RAA_BENCH_CONCAT(raa_bench_body_, __LINE__), {__VA_ARGS__}}); \
  static void RAA_BENCH_CONCAT(raa_bench_body_, __LINE__)(                \
      raa::bench::Context& ctx)
