#pragma once
/// \file fuzz.hpp
/// The budgeted fuzz driver behind tools/raa_fuzz: generate
/// `budget_runs` scenarios from a seed, run the oracle battery
/// (oracles.hpp) over each, and on divergence shrink to a minimal repro
/// (shrink.hpp) written as a scenario JSON file plus a recorded trace.
///
/// Everything is deterministic in (seed, budget_runs, limits): the summary
/// document contains no timestamps, wall-clock readings or absolute paths,
/// so two runs with the same options produce byte-identical summaries —
/// the property CI pins and the one that makes a summary sufficient to
/// re-create any run.

#include <cstdint>
#include <string>

#include "fuzz/genscenario.hpp"
#include "report/json.hpp"

namespace raa::fuzz {

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::uint64_t budget_runs = 25;
  GenLimits limits;
  /// Directory repro artifacts are written to (created if missing);
  /// empty = current directory. The summary records file names only.
  std::string out_dir;
  /// Graft the synthetic marker divergence onto every generated scenario
  /// and enable the marker oracle — the end-to-end shrinker/repro
  /// exercise used by tests and CI.
  bool inject_marker = false;
  /// Instead of running the oracle battery, write every generated case to
  /// `out_dir` as gen_i<N>.json plus a fleet manifest
  /// (fleet_manifest.json, schema "raa-fleet-manifest") naming them all —
  /// the fuzz-corpus -> raa_fleet bridge. Requires a non-empty out_dir;
  /// each manifest job pins the generated scenario's own seed so the
  /// fleet replays the exact streams the fuzzer drew.
  bool emit_manifest = false;
  bool quiet = false;  ///< suppress per-case progress on stdout
};

struct FuzzResult {
  json::Value summary;       ///< the raa-fuzz-summary document
  unsigned divergences = 0;  ///< cases that failed an oracle
  std::string error;         ///< non-empty on artifact I/O failure
};

FuzzResult run_fuzz(const FuzzOptions& opt);

}  // namespace raa::fuzz
