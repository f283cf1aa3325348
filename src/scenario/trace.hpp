#pragma once
/// \file trace.hpp
/// Compact binary access traces: record any CoreProgram's stream while it
/// runs, persist the whole run (config + mode + regions + per-core
/// streams) as one self-contained file, and replay it later through the
/// batched CoreProgram::fill path.
///
/// Why per-core streams and not one interleaved log: the simulator's
/// interleave is *derived* (the core with the smallest local clock runs
/// next), so the per-core program-order streams are the complete, minimal
/// description of a run — replaying them through the same System
/// reproduces every interleave decision, hence Metrics field-identical to
/// the recorded run (pinned by tests/test_scenario.cpp).
///
/// File layout (RAAT v3, little-endian, unsigned LEB128 varints):
///   * the magic "RAAT" and a u32 version;
///   * a varint length and that many bytes of JSON header: "name",
///     "mode", "config", "memory" and "regions". It is read and written
///     through the scenario field tables (scenario.cpp), so "config" and
///     "memory" carry exactly a scenario file's keys, bounds and
///     cross-field rules;
///   * a u32 core count (must equal config.tiles), then per core a u64
///     access count, a varint byte length and the encoded stream.
///
/// Stream encoding: one flags byte per access — store bit, 2-bit ref
/// class, has-gap bit, repeat-delta bit — followed by a zigzag varint
/// address delta (omitted when the delta repeats the previous one) and a
/// varint gap (when present). Linear streams therefore cost ~1
/// byte/access; random streams ~4-6.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "memsim/access.hpp"
#include "memsim/config.hpp"
#include "report/json.hpp"

namespace raa::scen {

inline constexpr std::uint32_t kTraceVersion = 3;

/// A fully self-contained recorded run: everything System::run needs to
/// reproduce the simulation bit-for-bit.
struct TraceData {
  mem::SystemConfig config;
  mem::HierarchyMode mode = mem::HierarchyMode::cache_only;
  std::string name;
  std::vector<mem::Region> regions;

  struct CoreStream {
    std::uint64_t count = 0;  ///< accesses encoded in `bytes`
    std::vector<std::uint8_t> bytes;
  };
  std::vector<CoreStream> cores;

  /// The file format in memory. encode() fails only on a region base or
  /// size above 2^53, which the JSON header could not store exactly;
  /// decode() validates every byte (header schema, stream structure) so a
  /// decoded trace replays without tripping a check. Both return nullopt
  /// and fill `error` (when non-null) on failure.
  std::optional<std::vector<std::uint8_t>> encode(
      std::string* error = nullptr) const;
  static std::optional<TraceData> decode(std::span<const std::uint8_t> bytes,
                                         std::string* error = nullptr);

  /// encode()/decode() plus the file I/O; errors name the path.
  bool write_file(const std::string& path, std::string* error = nullptr) const;
  static std::optional<TraceData> read_file(const std::string& path,
                                            std::string* error = nullptr);
};

/// The JSON header's schema, defined in scenario.cpp beside the tables it
/// shares with scenario files. read_trace_header fills name, mode, config
/// and regions from `doc` and fails with a JSON-path diagnostic.
json::Value trace_header_json(const TraceData& trace);
bool read_trace_header(const json::Value& doc, TraceData& trace,
                       std::string* error);

/// Encode a raw access sequence with the per-access trace codec (the same
/// encoder record_workload drives); exposed so property tests and tools
/// can exercise the codec without a simulation run.
TraceData::CoreStream encode_accesses(std::span<const mem::Access> accesses);

/// Decode one encoded core stream back into accesses. Throws
/// (std::logic_error via RAA_CHECK) on a malformed stream; streams loaded
/// through TraceData::decode are pre-validated and never throw here.
std::vector<mem::Access> decode_stream(const TraceData::CoreStream& cs);

/// Wrap every program of `w` so a subsequent System::run records each
/// core's access stream into `trace` (whose regions/cores are reset from
/// the workload). `trace` must outlive the run and must not be moved while
/// recording. config/mode/name are captured for the file header.
void record_workload(mem::Workload& w, const mem::SystemConfig& config,
                     mem::HierarchyMode mode, TraceData& trace);

/// Both sides of the record/replay determinism contract.
struct RecordReplay {
  mem::Metrics recorded;
  mem::Metrics replayed;
};

/// Run `w` under (config, mode) while recording it, push the trace through
/// encode() and decode(), and replay the decoded streams under the decoded
/// config and mode: the check covers what a trace file carries, not an
/// in-memory copy of it. nullopt (with `error`) when the bytes do not
/// survive their own encoding.
std::optional<RecordReplay> record_and_replay(mem::Workload w,
                                              const mem::SystemConfig& config,
                                              mem::HierarchyMode mode,
                                              std::string* error = nullptr);

/// Build a workload that replays `trace` (regions copied, one TraceProgram
/// per recorded core). The returned programs share ownership of the trace.
mem::Workload make_replay_workload(std::shared_ptr<const TraceData> trace);

/// CoreProgram streaming one recorded core stream back in batches.
class TraceProgram final : public mem::CoreProgram {
 public:
  TraceProgram(std::shared_ptr<const TraceData> trace, std::size_t core);

  bool next(mem::Access& out) override { return fill({&out, 1}) == 1; }
  std::size_t fill(std::span<mem::Access> out) override;

 private:
  std::shared_ptr<const TraceData> trace_;  ///< keeps the bytes alive
  const std::uint8_t* p_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  std::uint64_t remaining_ = 0;
  std::uint64_t prev_addr_ = 0;
  std::int64_t prev_delta_ = 0;
};

}  // namespace raa::scen
