#pragma once
/// \file exit_codes.hpp
/// The process-exit taxonomy shared by every tool in the repository
/// (raa_sim, raa_fuzz, raa_fleet, bench_compare, raa_bench_all). Before
/// this header each tool grew its own ad-hoc codes; scripts and CI assert
/// on them, so the meanings are a documented, frozen contract (the
/// conformance test in tests/test_common.cpp pins the numeric values):
///
///   0  ok            — the tool did what was asked and every check passed
///   1  failure       — a substantive failure: a benchmark regression, a
///                      determinism divergence, a simulation/selfcheck
///                      error, or an artifact-I/O failure
///   2  usage/schema  — bad command line, unparseable or schema-invalid
///                      input (the run never meaningfully started)
///   3  bad scenario  — input parsed but is degenerate as a workload
///                      (e.g. a region claimed by zero cores)
///   4  partial fleet — graceful degradation: some fleet jobs succeeded,
///                      some did not (raa_fleet only; an all-jobs-failed
///                      fleet exits 1, all-ok exits 0)
///
/// Keep this list append-only: downstream scripts switch on the numbers.

#include "common/enum_names.hpp"

namespace raa {

enum ExitCode : int {
  kExitOk = 0,
  kExitFailure = 1,
  kExitUsage = 2,
  kExitBadScenario = 3,
  kExitPartialFleet = 4,
};

/// Names for diagnostics and the fleet index (to_string, enum_names.hpp).
inline EnumNames<ExitCode> enum_names(ExitCode) {
  static constexpr EnumName<ExitCode> kNames[] = {
      {"ok", kExitOk}, {"failure", kExitFailure}, {"usage", kExitUsage},
      {"bad-scenario", kExitBadScenario}, {"partial-fleet", kExitPartialFleet}};
  return {"exit code", kNames};
}

}  // namespace raa
