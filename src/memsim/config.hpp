#pragma once
/// \file config.hpp
/// Configuration and cost constants of the tiled-manycore memory-hierarchy
/// simulator (§2, Figure 1).
///
/// The modelled chip is the one the paper's hybrid-hierarchy study targets:
/// 64 tiles on an 8x8 mesh, each tile with a core, a private L1-D and (in
/// the hybrid configuration) a scratchpad slice; a distributed shared L2
/// (one bank per tile, line-interleaved, home-node directory embedded);
/// DRAM behind memory controllers at the mesh corners.
///
/// Latency constants are in core cycles and energy constants in picojoules;
/// the orders of magnitude follow the usual CACTI/McPAT-class numbers for a
/// ~22 nm manycore (SPM access cheaper than a tag+data associative cache
/// lookup, DRAM two orders above SRAM, NoC energy per flit-hop). Only
/// *relative* magnitudes matter for the reproduced speedups.

#include <cstdint>
#include <iterator>

#include "common/enum_names.hpp"

namespace raa::mem {

using raa::to_string;

/// Which DRAM-timing model serves line fills and writebacks (see
/// memsim/backend.hpp for the MemBackend interface and both models).
enum class MemBackendKind : std::uint8_t {
  flat,    ///< fixed-latency DRAM — the original model, baseline-identical
  banked,  ///< per-channel/bank FSMs: open-row policy, FR-FCFS, refresh
};

inline EnumNames<MemBackendKind> enum_names(MemBackendKind) {
  static constexpr EnumName<MemBackendKind> kNames[] = {
      {"flat", MemBackendKind::flat}, {"banked", MemBackendKind::banked}};
  return {"backend", kNames};
}

/// Parameters of the flat (fixed-latency) model. These are the former
/// loose SystemConfig fields `lat_dram`/`dram_cycles_per_line`/
/// `e_dram_line`, now owned by FlatBackend; the scenario parser keeps the
/// old config-level keys as aliases into this struct.
struct FlatBackendParams {
  unsigned lat_dram = 120;            ///< cycles per line access
  unsigned dram_cycles_per_line = 4;  ///< bandwidth term for DMA bursts
  double e_dram_line = 1200.0;        ///< pJ per line read/write

  friend bool operator==(const FlatBackendParams&,
                         const FlatBackendParams&) = default;
};

/// How a row block is mapped to a bank within its channel.
enum class BankMapping : std::uint8_t {
  block,     ///< bank = (block / channels) % banks — plain interleave
  xor_hash,  ///< bank index XOR-folded with the row — spreads strided
             ///< streams whose stride aliases the bank count ("xor")
};

inline EnumNames<BankMapping> enum_names(BankMapping) {
  static constexpr EnumName<BankMapping> kNames[] = {
      {"block", BankMapping::block}, {"xor", BankMapping::xor_hash}};
  return {"mapping", kNames};
}

/// Parameters of the banked model. Timings are DDR-class in core cycles:
/// a row hit costs t_cas + line_cycles, an activate-on-closed-bank adds
/// t_rcd, a row conflict adds a precharge (t_rp) on top — so with the
/// defaults a conflict lands on the flat model's 120 cycles and a hit is
/// ~3x cheaper, which is exactly the locality axis the flat model hides.
struct BankedBackendParams {
  unsigned channels = 2;          ///< independent channels per controller
  unsigned banks_per_channel = 8;
  /// Address-to-bank hash. `block` keeps the original interleave (and the
  /// pre-mapping baseline numbers); `xor_hash` folds the row bits in, the
  /// classic defence against power-of-two strides camping on one bank.
  BankMapping mapping = BankMapping::block;
  unsigned row_bytes = 2048;      ///< row-buffer size
  unsigned t_rp = 40;             ///< precharge (close a conflicting row)
  unsigned t_rcd = 40;            ///< activate (open a row)
  unsigned t_cas = 40;            ///< column access on the open row
  unsigned line_cycles = 4;       ///< data-burst cycles per line on the bus
  /// Cycles between all-bank refreshes per channel (0 disables refresh).
  unsigned refresh_interval = 8192;
  unsigned refresh_cycles = 128;  ///< banks blocked per refresh (tRFC)
  /// Streaming cadence for burst lines served from L2, not DRAM.
  unsigned dma_cycles_per_line = 4;
  double e_line = 1200.0;      ///< pJ per line transferred
  double e_activate = 300.0;   ///< pJ per row activation
  double e_refresh = 600.0;    ///< pJ per all-bank refresh

  friend bool operator==(const BankedBackendParams&,
                         const BankedBackendParams&) = default;
};

/// Backend selection + both parameter sets (the unselected one is inert,
/// but kept so scenario round trips are field-identical).
struct MemoryConfig {
  MemBackendKind kind = MemBackendKind::flat;
  FlatBackendParams flat;
  BankedBackendParams banked;

  friend bool operator==(const MemoryConfig&, const MemoryConfig&) = default;
};

/// Chip-level configuration. Defaults reproduce the Figure 1 system.
struct SystemConfig {
  // --- topology ---
  unsigned tiles = 64;   ///< cores; must equal mesh_x * mesh_y
  unsigned mesh_x = 8;
  unsigned mesh_y = 8;
  unsigned mem_controllers = 4;  ///< placed at the mesh corners

  // --- line / capacity ---
  unsigned line_bytes = 64;
  unsigned l1_bytes = 32 * 1024;
  unsigned l1_assoc = 8;  ///< 8-way: NAS multi-stream sweeps need >= 6 ways
  unsigned l2_bank_bytes = 512 * 1024;  ///< per tile
  unsigned l2_assoc = 8;
  unsigned spm_bytes = 64 * 1024;       ///< per tile (hybrid only)
  unsigned dma_chunk_bytes = 4 * 1024;  ///< software-cache tile size

  // --- latencies (cycles) ---
  unsigned lat_l1_hit = 2;
  unsigned lat_spm_hit = 1;
  unsigned lat_l2_hit = 8;
  unsigned lat_dir = 2;  ///< directory/filter consultation at home
  /// Local SPM-filter lookup for guarded accesses. 1 cycle: the lookup
  /// overlaps the L1 tag probe (as in the ISCA'15 design).
  unsigned lat_filter = 1;
  unsigned lat_router = 2;     ///< per hop
  unsigned lat_link = 1;       ///< per hop

  // --- energies (pJ) ---
  double e_l1_hit = 20.0;
  double e_l1_probe = 8.0;    ///< miss probe (tag check only)
  double e_spm = 6.0;         ///< SPM access: no tag array, no associativity
  double e_l2 = 60.0;
  double e_dir = 8.0;
  double e_filter = 2.0;
  double e_flit_hop = 3.0;
  /// Chip static power expressed as pJ per core-cycle (leakage of the full
  /// tile incl. its slice of the uncore).
  double e_static_per_tile_cycle = 2.0;

  // --- DRAM timing model (memsim/backend.hpp) ---
  MemoryConfig memory;

  unsigned lines_per_chunk() const { return dma_chunk_bytes / line_bytes; }
  /// Flits for one line payload: 1 header + line/8B payload flits.
  unsigned flits_per_line() const { return 1 + line_bytes / 8; }

  /// Exact field-wise equality (the scenario serializer's round-trip
  /// contract — generate -> serialize -> parse — is field-identical).
  friend bool operator==(const SystemConfig&, const SystemConfig&) = default;
};

/// Which hierarchy the system models (the Figure 1 comparison).
enum class HierarchyMode : std::uint8_t {
  cache_only,  ///< baseline: everything through the cache hierarchy
  hybrid,      ///< SPM+cache with the co-designed coherence protocol
};

inline EnumNames<HierarchyMode> enum_names(HierarchyMode) {
  static constexpr EnumName<HierarchyMode> kNames[] = {
      {"cache_only", HierarchyMode::cache_only},
      {"hybrid", HierarchyMode::hybrid}};
  return {"mode", kNames};
}

/// Aggregated simulation results.
struct Metrics {
  double cycles = 0.0;  ///< makespan: max per-core clock
  double noc_flit_hops = 0.0;

  // Energy breakdown (pJ).
  double e_l1 = 0.0, e_l2 = 0.0, e_spm = 0.0, e_dram = 0.0, e_noc = 0.0;
  double e_dir = 0.0, e_static = 0.0;

  // Event counters.
  std::uint64_t accesses = 0;
  std::uint64_t l1_hits = 0, l1_misses = 0;
  std::uint64_t l2_hits = 0, l2_misses = 0;
  std::uint64_t spm_hits = 0;
  std::uint64_t dram_line_reads = 0, dram_line_writes = 0;
  // Banked-backend row-buffer behaviour (always 0 under the flat model).
  std::uint64_t dram_row_hits = 0, dram_row_misses = 0;
  std::uint64_t dram_row_conflicts = 0, dram_refreshes = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t prefetch_fills = 0;
  std::uint64_t dma_transfers = 0;
  std::uint64_t guarded_lookups = 0;
  std::uint64_t guarded_to_spm = 0;
  std::uint64_t remote_spm_accesses = 0;

  double energy_pj() const {
    return e_l1 + e_l2 + e_spm + e_dram + e_noc + e_dir + e_static;
  }

  /// Exact (bit-for-bit, including the FP sums) equality. The simulator's
  /// determinism contracts — record vs replay, serialize vs re-parse, the
  /// checked-in corpus goldens — are *exact*, so equality here is ==, not
  /// a tolerance.
  friend bool operator==(const Metrics&, const Metrics&) = default;
};

/// One Metrics field by name: the table below lists every field once, in
/// declaration order, for code that walks them all (diff reports, exact
/// test comparisons, golden writers).
template <class T>
struct MetricsField {
  const char* name;
  T Metrics::*member;
};

inline constexpr MetricsField<double> kMetricsReals[] = {
    {"cycles", &Metrics::cycles},
    {"noc_flit_hops", &Metrics::noc_flit_hops},
    {"e_l1", &Metrics::e_l1},
    {"e_l2", &Metrics::e_l2},
    {"e_spm", &Metrics::e_spm},
    {"e_dram", &Metrics::e_dram},
    {"e_noc", &Metrics::e_noc},
    {"e_dir", &Metrics::e_dir},
    {"e_static", &Metrics::e_static}};

inline constexpr MetricsField<std::uint64_t> kMetricsCounts[] = {
    {"accesses", &Metrics::accesses},
    {"l1_hits", &Metrics::l1_hits},
    {"l1_misses", &Metrics::l1_misses},
    {"l2_hits", &Metrics::l2_hits},
    {"l2_misses", &Metrics::l2_misses},
    {"spm_hits", &Metrics::spm_hits},
    {"dram_line_reads", &Metrics::dram_line_reads},
    {"dram_line_writes", &Metrics::dram_line_writes},
    {"dram_row_hits", &Metrics::dram_row_hits},
    {"dram_row_misses", &Metrics::dram_row_misses},
    {"dram_row_conflicts", &Metrics::dram_row_conflicts},
    {"dram_refreshes", &Metrics::dram_refreshes},
    {"invalidations", &Metrics::invalidations},
    {"writebacks", &Metrics::writebacks},
    {"prefetch_fills", &Metrics::prefetch_fills},
    {"dma_transfers", &Metrics::dma_transfers},
    {"guarded_lookups", &Metrics::guarded_lookups},
    {"guarded_to_spm", &Metrics::guarded_to_spm},
    {"remote_spm_accesses", &Metrics::remote_spm_accesses}};

// A field added to Metrics but not to the tables fails here.
static_assert(sizeof(Metrics) ==
              std::size(kMetricsReals) * sizeof(double) +
                  std::size(kMetricsCounts) * sizeof(std::uint64_t));

}  // namespace raa::mem
