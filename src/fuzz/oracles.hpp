#pragma once
/// \file oracles.hpp
/// The differential oracle battery: every generated scenario is run through
/// independent pairs of executions that the simulator contracts to be
/// *exactly* equal (Metrics operator== is bit-for-bit, FP sums included):
///
///   replay    live generators         vs  recorded-trace replay
///   roundtrip the scenario as built   vs  parse(to_json(scenario))
///   backend   forced-banked copy: recorded run vs trace replay (the
///             two pairs above already run under whichever DRAM
///             backend the scenario itself selected)
///
/// Both replays go through the trace's encoded bytes and run under the
/// config and mode decoded from them (scen::record_and_replay), so a
/// field the trace header fails to carry shows up as a divergence.
///
/// A further, test-only oracle ("marker") fails for exactly the scenarios
/// containing a __diverge_marker region; the shrinker tests use it as a
/// synthetic bug with a known minimal reproducer.

#include <cstdint>
#include <optional>
#include <string>

#include "common/enum_names.hpp"
#include "memsim/config.hpp"
#include "scenario/scenario.hpp"

namespace raa::fuzz {

using raa::to_string;

enum class Oracle : std::uint8_t { replay, roundtrip, backend, marker };

inline EnumNames<Oracle> enum_names(Oracle) {
  static constexpr EnumName<Oracle> kNames[] = {
      {"replay", Oracle::replay},
      {"roundtrip", Oracle::roundtrip},
      {"backend", Oracle::backend},
      {"marker", Oracle::marker}};
  return {"oracle", kNames};
}

struct OracleOptions {
  bool check_marker = false;  ///< enable the synthetic test oracle
};

/// One disagreement: which pair diverged, under which hierarchy mode, and
/// a short what-differed message for the repro report.
struct Divergence {
  Oracle oracle = Oracle::replay;
  mem::HierarchyMode mode = mem::HierarchyMode::cache_only;
  std::string detail;
};

/// Run the full battery over `s` (every hierarchy mode the scenario names).
/// Returns the first divergence, or nullopt when every pair agrees — the
/// predicate the fuzz driver and the shrinker both evaluate.
std::optional<Divergence> check_oracles(const scen::Scenario& s,
                                        const OracleOptions& opt = {});

}  // namespace raa::fuzz
