#pragma once
/// \file scenario.hpp
/// Declarative scenario descriptions: a JSON file names the chip
/// configuration, the hierarchy mode(s), the data regions and a per-core
/// program for each region — either a scripted phase/stream body (the
/// full expressive power of kernels/program.hpp) or one of the
/// parameterized generators (generators.hpp). `Scenario::instantiate()`
/// lowers the description onto a `mem::Workload`, so any workload a file
/// can describe runs through the unmodified `System::run` — no C++, no
/// recompilation.
///
/// The schema is documented in docs/BENCHMARKS.md and written down once, as
/// the field tables in scenario.cpp (report/json_bind.hpp reads and emits
/// through them); the checked-in corpus lives in `scenarios/`. Parsing is
/// strict: unknown keys, dangling region references, out-of-range cores
/// and ill-sized streams are all errors with a JSON-path context (the json
/// layer supplies line/column for syntax errors), because scenario files
/// are edited by hand.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kernels/program.hpp"
#include "memsim/access.hpp"
#include "memsim/config.hpp"
#include "report/json.hpp"

namespace raa::scen {

using raa::to_string;

/// Which hierarchy configuration(s) a scenario runs under. `compare` runs
/// both and reports the hybrid-vs-cache-only speedups (the Figure 1
/// shape, generalised to arbitrary workloads).
enum class ScenarioMode : std::uint8_t { cache_only, hybrid, compare };

inline EnumNames<ScenarioMode> enum_names(ScenarioMode) {
  static constexpr EnumName<ScenarioMode> kNames[] = {
      {"cache_only", ScenarioMode::cache_only},
      {"hybrid", ScenarioMode::hybrid},
      {"compare", ScenarioMode::compare}};
  return {"mode", kNames};
}

/// The concrete hierarchy modes a mode simulates (compare = both).
std::vector<mem::HierarchyMode> hierarchy_modes(ScenarioMode m);

/// A declared data region. Exactly one of `bytes` (one shared extent) or
/// `bytes_per_core` (tiles consecutive per-core slices) is non-zero;
/// addresses are assigned at instantiate() time, DMA-chunk aligned.
struct RegionSpec {
  std::string name;
  std::uint64_t bytes = 0;
  std::uint64_t bytes_per_core = 0;
  mem::RefClass ref = mem::RefClass::strided;

  friend bool operator==(const RegionSpec&, const RegionSpec&) = default;
};

/// One stream of a scripted phase (see kernels/program.hpp). Offsets are
/// relative to the stream's window: the core's slice when `per_core_slice`
/// (requires a bytes_per_core region), else the whole region.
struct StreamSpec {
  std::size_t region = 0;  ///< index into Scenario::regions
  kern::StreamKind kind = kern::StreamKind::linear;
  bool store = false;
  std::optional<mem::RefClass> ref;  ///< default: the region's class
  std::uint64_t start = 0;
  std::uint64_t stride = 8;
  std::uint32_t elem_bytes = 8;
  bool per_core_slice = false;

  friend bool operator==(const StreamSpec&, const StreamSpec&) = default;
};

struct PhaseSpec {
  std::uint64_t iterations = 0;
  std::uint32_t gap_cycles = 0;
  std::vector<StreamSpec> streams;

  friend bool operator==(const PhaseSpec&, const PhaseSpec&) = default;
};

/// The program kind a scenario assigns to a set of cores.
enum class GenKind : std::uint8_t {
  scripted,
  zipf,
  pointer_chase,
  stencil,
  producer_consumer,
  bursty,
};

inline EnumNames<GenKind> enum_names(GenKind) {
  static constexpr EnumName<GenKind> kNames[] = {
      {"scripted", GenKind::scripted},
      {"zipf", GenKind::zipf},
      {"pointer_chase", GenKind::pointer_chase},
      {"stencil", GenKind::stencil},
      {"producer_consumer", GenKind::producer_consumer},
      {"bursty", GenKind::bursty}};
  return {"generator", kNames};
}

/// One "programs" entry: which cores it covers and either a scripted
/// phase list or the parameters of a generator. A flat struct (unused
/// fields stay at their defaults) keeps the parser and the lowering in
/// plain sight; the per-kind constraints are enforced at parse time.
struct ProgramSpec {
  std::vector<unsigned> cores;  ///< empty = every core
  GenKind kind = GenKind::scripted;

  // scripted
  std::vector<PhaseSpec> phases;

  // generators (region indices into Scenario::regions)
  std::size_t region = 0;
  std::size_t out_region = 0;  ///< stencil only
  bool per_core_slice = false;
  std::optional<mem::RefClass> ref;
  std::optional<mem::RefClass> halo_ref;  ///< stencil only
  std::uint64_t accesses = 0;    ///< zipf, pointer_chase
  std::uint64_t iterations = 0;  ///< producer_consumer
  std::uint64_t bursts = 0;      ///< bursty
  std::uint64_t burst_len = 0;
  std::uint32_t sweeps = 1;  ///< stencil
  std::uint32_t halo = 1;
  std::uint32_t elem_bytes = 8;
  std::uint32_t gap_cycles = 0;
  std::uint32_t gap_on = 0;  ///< bursty
  std::uint32_t gap_off = 1000;
  double hot_fraction = 0.1;  ///< zipf
  double hot_weight = 0.9;
  double store_fraction = 0.0;  ///< zipf, bursty

  friend bool operator==(const ProgramSpec&, const ProgramSpec&) = default;
};

/// A parsed, validated scenario. Deterministic: instantiate() is a pure
/// function of the spec (including `seed`), so two calls produce
/// workloads with bit-identical access streams.
struct Scenario {
  std::string name;
  std::string description;
  ScenarioMode mode = ScenarioMode::compare;
  std::uint64_t seed = 1;
  mem::SystemConfig config;
  std::vector<RegionSpec> regions;
  std::vector<ProgramSpec> programs;

  /// The concrete hierarchy modes to simulate (compare = both).
  std::vector<mem::HierarchyMode> hierarchy_modes() const {
    return scen::hierarchy_modes(mode);
  }

  /// Parse + validate a JSON document / file. On failure returns nullopt
  /// and stores an actionable message (JSON-path or line/column context)
  /// in `error` when non-null.
  static std::optional<Scenario> parse(const json::Value& doc,
                                       std::string* error = nullptr);
  static std::optional<Scenario> load_file(const std::string& path,
                                           std::string* error = nullptr);

  /// Lower onto a runnable workload: lay the regions out in the simulated
  /// address space and build one program per core (cores no entry covers
  /// get an empty program).
  mem::Workload instantiate() const;

  /// Serialize back to the JSON schema parse() accepts. The round trip is
  /// field-identical: parse(to_json()) == *this for any parse-valid
  /// scenario (numbers go through shortest-round-trip formatting, and
  /// every per-generator key parse() reads is emitted explicitly). This
  /// is what lets the fuzzer persist generated scenarios and shrunken
  /// repro artifacts as files raa_sim accepts unchanged.
  json::Value to_json() const;

  /// Index of the first declared region no program ever references — a
  /// region "claimed by zero cores". parse() accepts such scenarios (the
  /// struct is still well-formed), but drivers should reject them:
  /// simulating a region nobody touches silently skews the address-space
  /// layout for no workload effect. nullopt when every region is used.
  std::optional<std::size_t> first_unreferenced_region() const;

  friend bool operator==(const Scenario&, const Scenario&) = default;
};

}  // namespace raa::scen
