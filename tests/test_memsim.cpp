// System-level tests of the memory-hierarchy simulator: NoC geometry, MSI
// protocol behaviour through the directory, SPM/DMA software caching, the
// guarded-access path of the hybrid coherence protocol, and randomized
// protocol property tests (the system self-checks that every load is served
// the value of the last store).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "exec/pool.hpp"
#include "kernels/program.hpp"
#include "memsim/linetable.hpp"
#include "memsim/noc.hpp"
#include "memsim/system.hpp"
#include "memsim_testing.hpp"

namespace {

using raa::kern::AddressSpace;
using raa::kern::Phase;
using raa::kern::ScriptedProgram;
using raa::kern::Stream;
using raa::kern::StreamKind;
using raa::mem::Access;
using raa::mem::ChunkDirectory;
using raa::mem::CoreProgram;
using raa::mem::HierarchyMode;
using raa::mem::LineInfo;
using raa::mem::LineTable;
using raa::mem::Metrics;
using raa::mem::Noc;
using raa::mem::RefClass;
using raa::mem::Region;
using raa::mem::System;
using raa::mem::SystemConfig;
using raa::mem::Workload;
using raa::test_util::expect_metrics_equal;
using raa::test_util::mixed_workload;

SystemConfig small_cfg() {
  SystemConfig cfg;
  cfg.tiles = 16;
  cfg.mesh_x = 4;
  cfg.mesh_y = 4;
  return cfg;
}

/// A hand-rolled program from an explicit access list.
class ListProgram final : public CoreProgram {
 public:
  explicit ListProgram(std::vector<Access> accesses)
      : accesses_(std::move(accesses)) {}
  bool next(Access& out) override {
    if (pos_ >= accesses_.size()) return false;
    out = accesses_[pos_++];
    return true;
  }

 private:
  std::vector<Access> accesses_;
  std::size_t pos_ = 0;
};

/// Workload with one explicit per-core access list; unspecified cores idle.
Workload list_workload(const SystemConfig& cfg,
                       std::vector<std::vector<Access>> per_core,
                       std::vector<Region> regions = {}) {
  Workload w;
  w.name = "list";
  w.regions.assign(regions.begin(), regions.end());
  per_core.resize(cfg.tiles);
  for (auto& v : per_core)
    w.programs.push_back(std::make_unique<ListProgram>(std::move(v)));
  return w;
}

TEST(Noc, HopsAreManhattan) {
  const Noc noc{small_cfg()};
  EXPECT_EQ(noc.hops(0, 0), 0u);
  EXPECT_EQ(noc.hops(0, 3), 3u);    // same row
  EXPECT_EQ(noc.hops(0, 12), 3u);   // same column
  EXPECT_EQ(noc.hops(0, 15), 6u);   // opposite corner
  EXPECT_EQ(noc.hops(5, 10), 2u);
  EXPECT_EQ(noc.hops(10, 5), 2u);   // symmetric
}

TEST(Noc, LatencyAndTraffic) {
  const SystemConfig cfg = small_cfg();
  const Noc noc{cfg};
  // 2 hops, 9 flits: head = 2*(2+1), serialization = 8.
  EXPECT_EQ(noc.latency(2, 9), 2 * 3 + 8u);
  EXPECT_EQ(noc.latency(0, 9), 0u);  // local
  EXPECT_DOUBLE_EQ(noc.traffic(2, 9), 18.0);
  EXPECT_DOUBLE_EQ(noc.energy(2, 9), 18.0 * cfg.e_flit_hop);
}

TEST(Noc, NearestMcIsACorner) {
  const Noc noc{small_cfg()};
  EXPECT_EQ(noc.nearest_mc(0), 0u);
  EXPECT_EQ(noc.nearest_mc(3), 3u);
  EXPECT_EQ(noc.nearest_mc(15), 15u);
  EXPECT_EQ(noc.nearest_mc(5), 0u);  // (1,1) closest to corner (0,0)
}

TEST(System, ColdMissThenHit) {
  const SystemConfig cfg = small_cfg();
  System sys{cfg, HierarchyMode::cache_only};
  auto w = list_workload(cfg, {{
                             Access{4096, false, RefClass::random_noalias, 0},
                             Access{4096, false, RefClass::random_noalias, 0},
                             Access{4100, false, RefClass::random_noalias, 0},
                         }});
  const Metrics m = sys.run(w);
  EXPECT_EQ(m.accesses, 3u);
  EXPECT_EQ(m.l1_misses, 1u);  // same line afterwards
  EXPECT_EQ(m.l1_hits, 2u);
  EXPECT_EQ(m.l2_misses, 1u);
  EXPECT_EQ(m.dram_line_reads, 1u);
  EXPECT_GT(m.cycles, 0.0);
  EXPECT_GT(m.energy_pj(), 0.0);
}

TEST(System, SecondCoreLoadServedOnChip) {
  const SystemConfig cfg = small_cfg();
  System sys{cfg, HierarchyMode::cache_only};
  // Core 0 loads the line (granted Exclusive); core 1's later load is
  // forwarded from core 0 — exactly one DRAM fetch happens.
  auto w = list_workload(
      cfg, {{Access{8192, false, RefClass::random_noalias, 0}},
            {Access{8192, false, RefClass::random_noalias, 100}}});
  const Metrics m = sys.run(w);
  EXPECT_EQ(m.l1_misses, 2u);
  EXPECT_EQ(m.dram_line_reads, 1u);
  EXPECT_EQ(m.invalidations, 0u);
}

TEST(System, StoreInvalidatesSharers) {
  const SystemConfig cfg = small_cfg();
  System sys{cfg, HierarchyMode::cache_only};
  // Cores 0..3 read the line; then core 4 (much later) writes it.
  std::vector<std::vector<Access>> acc(cfg.tiles);
  for (unsigned c = 0; c < 4; ++c)
    acc[c] = {Access{16384, false, RefClass::random_noalias, 10 * c}};
  acc[4] = {Access{16384, true, RefClass::random_noalias, 5000}};
  auto w = list_workload(cfg, std::move(acc));
  const Metrics m = sys.run(w);
  EXPECT_EQ(m.invalidations, 4u);
}

TEST(System, OwnerForwardsModifiedData) {
  const SystemConfig cfg = small_cfg();
  System sys{cfg, HierarchyMode::cache_only};
  // Core 0 writes (owns M), then core 1 reads: the value must be forwarded
  // (the built-in oracle would throw on a stale read).
  auto w = list_workload(
      cfg, {{Access{32768, true, RefClass::random_noalias, 0}},
            {Access{32768, false, RefClass::random_noalias, 5000}}});
  EXPECT_NO_THROW({
    const Metrics m = sys.run(w);
    EXPECT_EQ(m.invalidations, 0u);  // read downgrades, does not invalidate
  });
}

TEST(System, WriteWriteMigratesOwnership) {
  const SystemConfig cfg = small_cfg();
  System sys{cfg, HierarchyMode::cache_only};
  auto w = list_workload(
      cfg, {{Access{32768, true, RefClass::random_noalias, 0}},
            {Access{32768, true, RefClass::random_noalias, 5000},
             Access{32768, false, RefClass::random_noalias, 0}}});
  const Metrics m = sys.run(w);
  EXPECT_EQ(m.invalidations, 1u);  // previous owner dropped
  EXPECT_EQ(m.l1_hits, 1u);        // core 1 re-reads its own M line
}

TEST(System, CapacityEvictionWritesBack) {
  SystemConfig cfg = small_cfg();
  cfg.l1_bytes = 1024;  // 16 lines, 4-way -> 4 sets
  System sys{cfg, HierarchyMode::cache_only};
  // Store to 64 distinct lines mapping across sets: must evict dirty lines.
  std::vector<Access> acc;
  for (std::uint64_t i = 0; i < 64; ++i)
    acc.push_back(Access{1 << 20 | (i * 64), true,
                         RefClass::random_noalias, 0});
  auto w = list_workload(cfg, {std::move(acc)});
  const Metrics m = sys.run(w);
  EXPECT_GT(m.writebacks, 0u);
}

// --- SPM / hybrid path ------------------------------------------------

Workload strided_workload(const SystemConfig& cfg, std::uint64_t elems,
                          bool store, std::uint32_t gap) {
  Workload w;
  w.name = "stream";
  AddressSpace as{cfg.dma_chunk_bytes};
  const std::uint64_t part =
      (elems * 8 + cfg.dma_chunk_bytes - 1) / cfg.dma_chunk_bytes *
      cfg.dma_chunk_bytes;
  const Region& r = as.add(w, "data", cfg.tiles * part, RefClass::strided);
  for (unsigned c = 0; c < cfg.tiles; ++c) {
    std::vector<Phase> ph;
    ph.push_back(Phase{
        .streams = {Stream{.region = &r, .store = store, .start = c * part,
                           .stride = 8}},
        .iterations = elems,
        .gap_cycles = gap});
    w.programs.push_back(std::make_unique<ScriptedProgram>(std::move(ph), c));
  }
  return w;
}

TEST(System, StridedStreamUsesSpmInHybrid) {
  const SystemConfig cfg = small_cfg();
  System sys{cfg, HierarchyMode::hybrid};
  auto w = strided_workload(cfg, 4096, false, 2);
  const Metrics m = sys.run(w);
  EXPECT_EQ(m.spm_hits, 16u * 4096u);
  EXPECT_EQ(m.l1_hits + m.l1_misses, 0u);  // nothing through the caches
  EXPECT_GT(m.dma_transfers, 0u);
  // 4096 elems x 8B = 32 KiB per core = 8 chunks.
  EXPECT_EQ(m.dma_transfers, 16u * 8u);
}

TEST(System, SameStreamThroughCachesInBaseline) {
  const SystemConfig cfg = small_cfg();
  System sys{cfg, HierarchyMode::cache_only};
  auto w = strided_workload(cfg, 4096, false, 2);
  const Metrics m = sys.run(w);
  EXPECT_EQ(m.spm_hits, 0u);
  // The stream prefetcher covers the stream after a short warmup: almost
  // everything hits, the lines arrive as prefetch fills.
  EXPECT_LT(m.l1_misses, 16u * 8u);
  EXPECT_GT(m.prefetch_fills, 16u * 4096u / 8u * 9u / 10u);
  EXPECT_EQ(m.l1_hits + m.l1_misses, 16u * 4096u);
}

TEST(System, HybridBeatsCacheOnlyOnStreams) {
  const SystemConfig cfg = small_cfg();
  auto wa = strided_workload(cfg, 8192, false, 2);
  auto wb = strided_workload(cfg, 8192, false, 2);
  System base{cfg, HierarchyMode::cache_only};
  System hyb{cfg, HierarchyMode::hybrid};
  const Metrics mb = base.run(wa);
  const Metrics mh = hyb.run(wb);
  EXPECT_LT(mh.cycles, mb.cycles);
  EXPECT_LT(mh.energy_pj(), mb.energy_pj());
  // Cold read-only streams are near NoC parity (the data crosses the mesh
  // once either way); the protocol's NoC wins come from write streams and
  // control elimination, covered by the kernel-level tests.
  EXPECT_LT(mh.noc_flit_hops, mb.noc_flit_hops * 1.25);
}

TEST(System, DirtyChunksAreWrittenBack) {
  const SystemConfig cfg = small_cfg();
  System sys{cfg, HierarchyMode::hybrid};
  auto w = strided_workload(cfg, 1024, true, 2);
  const Metrics m = sys.run(w);
  // 1024 elems x 8B = 8 KiB = 2 chunks per core, all dirty; DMA is
  // L2-backed, so the writebacks land in the home banks (not DRAM).
  EXPECT_EQ(m.writebacks, 16u * 2u);
  EXPECT_EQ(m.dram_line_writes, 0u);  // L2 easily holds the working set
}

TEST(System, DoubleBufferingHidesDmaWhenComputeBound) {
  const SystemConfig cfg = small_cfg();
  // gap=16: plenty of compute per element; DMA latency ~ hundreds of cycles
  // per 64-line chunk while compute per chunk is 512*16 cycles.
  auto wa = strided_workload(cfg, 8192, false, 16);
  System hyb{cfg, HierarchyMode::hybrid};
  const Metrics m = hyb.run(wa);
  // Lower bound: pure compute+spm time; stalls should add <5%.
  const double ideal = 8192.0 * (16 + cfg.lat_spm_hit);
  EXPECT_LT(m.cycles, ideal * 1.05);
}

TEST(System, GuardedAccessFindsSpmMappedData) {
  SystemConfig cfg = small_cfg();
  Workload w;
  w.name = "guarded";
  AddressSpace as{cfg.dma_chunk_bytes};
  const Region& r = as.add(w, "shared", 16 * 4096, RefClass::strided);

  // Core 0: strided writes over its chunk-aligned slice (SPM-mapped, slow
  // enough to still be mapped when core 1 probes).
  std::vector<Phase> p0;
  p0.push_back(Phase{
      .streams = {Stream{.region = &r, .store = true, .start = 0,
                         .stride = 8}},
      .iterations = 512,
      .gap_cycles = 4});
  // Core 1: guarded loads into core 0's slice, delayed so the mapping
  // exists.
  std::vector<Access> acc1;
  for (int i = 0; i < 64; ++i)
    acc1.push_back(Access{r.base + static_cast<std::uint64_t>(i) * 64, false,
                          RefClass::random_unknown,
                          i == 0 ? 800u : 4u});
  w.programs.push_back(std::make_unique<ScriptedProgram>(std::move(p0), 1));
  w.programs.push_back(std::make_unique<ListProgram>(std::move(acc1)));
  for (unsigned c = 2; c < cfg.tiles; ++c)
    w.programs.push_back(std::make_unique<ListProgram>(std::vector<Access>{}));

  System sys{cfg, HierarchyMode::hybrid};
  const Metrics m = sys.run(w);
  EXPECT_GT(m.guarded_lookups, 0u);
  EXPECT_GT(m.guarded_to_spm, 0u);
  EXPECT_GT(m.remote_spm_accesses, 0u);
}

TEST(System, GuardedStoreToMappedChunkForcesWriteback) {
  SystemConfig cfg = small_cfg();
  Workload w;
  w.name = "guarded_store";
  AddressSpace as{cfg.dma_chunk_bytes};
  const Region& r = as.add(w, "shared", 16 * 4096, RefClass::strided);

  // Core 0 reads its slice (clean chunk); core 1 guarded-stores into it;
  // the final flush must write the chunk back even though the owner never
  // stored.
  std::vector<Phase> p0;
  p0.push_back(Phase{
      .streams = {Stream{.region = &r, .start = 0, .stride = 8}},
      .iterations = 512,
      .gap_cycles = 4});
  std::vector<Access> acc1 = {
      Access{r.base + 128, true, RefClass::random_unknown, 600}};
  w.programs.push_back(std::make_unique<ScriptedProgram>(std::move(p0), 1));
  w.programs.push_back(std::make_unique<ListProgram>(std::move(acc1)));
  for (unsigned c = 2; c < cfg.tiles; ++c)
    w.programs.push_back(std::make_unique<ListProgram>(std::vector<Access>{}));

  System sys{cfg, HierarchyMode::hybrid};
  const Metrics m = sys.run(w);
  EXPECT_GT(m.guarded_to_spm, 0u);
  EXPECT_GT(m.writebacks, 0u);  // dirty-tagged chunk flushed at unmap
}

TEST(System, GuardedFallsThroughToCacheWhenUnmapped) {
  const SystemConfig cfg = small_cfg();
  System sys{cfg, HierarchyMode::hybrid};
  auto w = list_workload(
      cfg, {{Access{1 << 21, false, RefClass::random_unknown, 0},
             Access{1 << 21, true, RefClass::random_unknown, 0}}});
  const Metrics m = sys.run(w);
  EXPECT_EQ(m.guarded_lookups, 2u);
  EXPECT_EQ(m.guarded_to_spm, 0u);
  EXPECT_EQ(m.l1_misses, 1u);
  EXPECT_EQ(m.l1_hits, 1u);
}

// --- protocol property test -------------------------------------------

// FT-like random mixture: every core strided-walks its slice of a shared
// region (SPM-mapped in chunks) while scattering guarded stores/loads over
// the whole region, with random gaps. The System's internal oracle throws
// on any stale value, so "runs to completion" is the property.
class ProtocolFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolFuzz, NoStaleDataUnderRandomInterleavings) {
  SystemConfig cfg = small_cfg();
  const std::uint64_t seed = GetParam();
  raa::Rng rng{seed};
  Workload w;
  w.name = "fuzz";
  AddressSpace as{cfg.dma_chunk_bytes};
  const std::uint64_t part = 2 * cfg.dma_chunk_bytes;
  const Region& r = as.add(w, "shared", cfg.tiles * part, RefClass::strided);

  for (unsigned c = 0; c < cfg.tiles; ++c) {
    std::vector<Phase> phases;
    const unsigned rounds = 2 + static_cast<unsigned>(rng.below(3));
    for (unsigned k = 0; k < rounds; ++k) {
      // Strided pass over own slice (alternating load/store rounds).
      phases.push_back(Phase{
          .streams = {Stream{.region = &r, .store = (k % 2 == 1),
                             .start = c * part, .stride = 8}},
          .iterations = part / 8,
          .gap_cycles = static_cast<std::uint32_t>(rng.below(6))});
      // Guarded scatter over the whole region.
      phases.push_back(Phase{
          .streams = {Stream{.region = &r, .kind = StreamKind::random_rmw,
                             .ref = RefClass::random_unknown,
                             .elem_bytes = 8}},
          .iterations = 64 + rng.below(128),
          .gap_cycles = static_cast<std::uint32_t>(rng.below(8))});
    }
    w.programs.push_back(std::make_unique<ScriptedProgram>(
        std::move(phases), seed * 97 + c));
  }

  System sys{cfg, HierarchyMode::hybrid};
  Metrics m;
  ASSERT_NO_THROW(m = sys.run(w));  // oracle inside would throw on staleness
  EXPECT_GT(m.guarded_lookups, 0u);
  EXPECT_GT(m.spm_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- line table --------------------------------------------------------

static_assert(sizeof(LineInfo) == 32);

TEST(LineTable, DefaultsEncodeAbsence) {
  LineTable t{64};
  EXPECT_EQ(t.peek(0), nullptr);  // untouched: no page allocated
  const LineInfo& li = t.at(1 << 20);
  EXPECT_EQ(li.dram, 0u);
  EXPECT_EQ(li.oracle(), 0u);
  EXPECT_EQ(li.sharers, 0u);
  EXPECT_EQ(li.prefetch_mask, 0u);
  EXPECT_EQ(li.owner(), -1);
  // The default record is all-zero bytes and sits on a 32-byte boundary,
  // so it never straddles a host cache line.
  const auto* bytes = reinterpret_cast<const unsigned char*>(&li);
  EXPECT_TRUE(std::all_of(bytes, bytes + sizeof(LineInfo),
                          [](unsigned char b) { return b == 0; }));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&li) % 32, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&t.at(0)) % 32, 0u);
}

TEST(LineTable, OwnerRoundTripsThroughTheVersionWord) {
  const std::uint64_t max_version = LineInfo::kOwned - 1;  // 2^63 - 1
  for (const int owner : {-1, 0, 63}) {
    for (const std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1} << 62,
          max_version}) {
      LineInfo li;
      li.set_oracle(v);
      if (owner >= 0) li.grant_owner(static_cast<unsigned>(owner));
      EXPECT_EQ(li.owner(), owner);
      EXPECT_EQ(li.oracle(), v);
      if (owner >= 0) {
        EXPECT_EQ(li.sharers, std::uint64_t{1} << owner);
      }
      // A store while owned keeps the owner; clearing keeps the value.
      li.set_oracle(max_version - v);
      EXPECT_EQ(li.owner(), owner);
      EXPECT_EQ(li.oracle(), max_version - v);
      li.clear_owner();
      EXPECT_EQ(li.owner(), -1);
      EXPECT_EQ(li.oracle(), max_version - v);
    }
  }
  // An owned line must have exactly its owner's sharer bit.
  LineInfo li;
  li.grant_owner(5);
  li.sharers |= 1;
  EXPECT_THROW((void)li.owner(), raa::CheckError);
}

TEST(LineTable, RecordsArePerLineAndPersistent) {
  LineTable t{64};
  t.at(64 * 7).dram = 111;
  t.at(64 * 8).dram = 222;
  EXPECT_EQ(t.at(64 * 7).dram, 111u);
  EXPECT_EQ(t.at(64 * 8).dram, 222u);
  // peek sees the same records without allocating.
  ASSERT_NE(t.peek(64 * 7), nullptr);
  EXPECT_EQ(t.peek(64 * 7)->dram, 111u);
}

TEST(LineTable, PageBoundaryNeighboursAreDistinct) {
  LineTable t{64};
  // Last line of page 0 and first line of page 1.
  const std::uint64_t last = (LineTable::kPageLines - 1) * 64;
  const std::uint64_t first = LineTable::kPageLines * 64;
  t.at(last).set_oracle(1);
  t.at(first).set_oracle(2);
  EXPECT_EQ(t.at(last).oracle(), 1u);
  EXPECT_EQ(t.at(first).oracle(), 2u);
  EXPECT_EQ(t.pages_allocated(), 2u);
}

TEST(LineTable, SparseAddressesAllocateOnlyTouchedPages) {
  LineTable t{64};
  t.at(0);
  t.at(std::uint64_t{1} << 30);  // ~16M lines away
  EXPECT_EQ(t.pages_allocated(), 2u);
  EXPECT_GT(t.page_slots(), 2u);  // top-level vector is sparse (null slots)
  // A line between the two touched pages is still unallocated.
  EXPECT_EQ(t.peek(std::uint64_t{1} << 25), nullptr);
}

TEST(LineTable, FarAddressesAllocateOnlyTheirPages) {
  LineTable t{64};
  const std::uint64_t far = std::uint64_t{1} << 50;
  const std::uint64_t last = ~std::uint64_t{0} - 63;  // last line below 2^64
  t.at(far).dram = 1;
  t.at(last).dram = 2;
  EXPECT_EQ(t.pages_allocated(), 2u);
  // High pages go to the sparse map, never into the dense vector.
  EXPECT_EQ(t.page_slots(), 0u);
  EXPECT_EQ(t.at(far).dram, 1u);
  ASSERT_NE(t.peek(last), nullptr);
  EXPECT_EQ(t.peek(last)->dram, 2u);
  EXPECT_EQ(t.peek(far + (std::uint64_t{1} << 30)), nullptr);
  // The dense vector grows only up to its fixed bound.
  t.at((LineTable::kDensePages - 1) * LineTable::kPageLines * 64);
  EXPECT_EQ(t.page_slots(), LineTable::kDensePages);
  t.at(LineTable::kDensePages * LineTable::kPageLines * 64);
  EXPECT_EQ(t.page_slots(), LineTable::kDensePages);
  EXPECT_EQ(t.pages_allocated(), 4u);
  t.clear();
  EXPECT_EQ(t.pages_allocated(), 0u);
  EXPECT_EQ(t.peek(far), nullptr);
}

TEST(LineTable, UnmapSemanticsViaFlags) {
  // Unmapping a chunk drops its directory range and writes its valid SPM
  // slots back to the home bank; the line records never held SPM state.
  // Each core store-sweeps its two chunks: the chunk switch unmaps chunk
  // 0, the end-of-run flush chunk 1. Once every core is past its sweep,
  // each core reads its neighbour's chunk 0 through no-alias references:
  // the no-alias check throws if that range were still mapped, and the
  // stale-data check throws if a written line had not been written back.
  // A second run on the same System reads the chunk-1 lines the flush
  // unmapped.
  const SystemConfig cfg = small_cfg();
  const std::uint64_t chunk = cfg.dma_chunk_bytes;
  const std::uint64_t part = 2 * chunk;
  const Region data{"data", std::uint64_t{1} << 20, cfg.tiles * part,
                    RefClass::strided};
  const auto neighbour_reads = [&](Workload& w, std::uint64_t offset,
                                   bool after_sweep) {
    const Region& r = w.regions.front();
    for (unsigned c = 0; c < cfg.tiles; ++c) {
      std::vector<Phase> ph;
      if (after_sweep) {
        ph.push_back(Phase{
            .streams = {Stream{.region = &r, .store = true,
                               .start = c * part, .stride = 8}},
            .iterations = part / 8,
            .gap_cycles = 2});
      }
      ph.push_back(Phase{
          .streams = {Stream{.region = &r,
                             .ref = RefClass::random_noalias,
                             .start = (c + 1) % cfg.tiles * part + offset,
                             .stride = cfg.line_bytes}},
          .iterations = chunk / cfg.line_bytes,
          .gap_cycles = after_sweep ? 100000u : 2u});
      w.programs.push_back(
          std::make_unique<ScriptedProgram>(std::move(ph), c));
    }
  };
  System sys{cfg, HierarchyMode::hybrid};
  Workload sweep;
  sweep.regions.push_back(data);
  neighbour_reads(sweep, 0, true);
  Metrics m;
  ASSERT_NO_THROW(m = sys.run(sweep));
  EXPECT_EQ(m.writebacks, cfg.tiles * 2u);
  EXPECT_GT(m.l2_hits, 0u);  // served by the written-back copies

  Workload reads;
  reads.regions.push_back(data);
  neighbour_reads(reads, chunk, false);
  ASSERT_NO_THROW(m = sys.run(reads));
  EXPECT_EQ(m.spm_hits, 0u);
  EXPECT_EQ(m.dma_transfers, 0u);
  EXPECT_GT(m.l2_hits, 0u);
}

TEST(ChunkDirectory, RejectsOverlapAndKeepsRangesSorted) {
  ChunkDirectory dir;
  ASSERT_TRUE(dir.insert(100, 164, 0));
  ASSERT_TRUE(dir.insert(0, 64, 1));
  ASSERT_TRUE(dir.insert(164, 200, 2));  // adjacent ranges do not overlap
  EXPECT_FALSE(dir.insert(150, 170, 3));  // straddles two ranges
  EXPECT_FALSE(dir.insert(63, 65, 3));    // tail of a range
  EXPECT_FALSE(dir.insert(90, 101, 3));   // head of a range
  EXPECT_FALSE(dir.insert(110, 120, 3));  // inside a range
  EXPECT_FALSE(dir.insert(100, 164, 3));  // the same range
  EXPECT_EQ(dir.size(), 3u);
  EXPECT_EQ(dir.find(0), 1u);
  EXPECT_EQ(dir.find(64), ChunkDirectory::kNone);
  EXPECT_EQ(dir.find(99), ChunkDirectory::kNone);
  EXPECT_EQ(dir.find(163), 0u);
  EXPECT_EQ(dir.find(164), 2u);
  EXPECT_EQ(dir.find(200), ChunkDirectory::kNone);
  // Lookups follow maps and unmaps inside a gap and across a re-map.
  EXPECT_EQ(dir.find(80), ChunkDirectory::kNone);
  EXPECT_TRUE(dir.insert(70, 90, 5));
  EXPECT_EQ(dir.find(80), 5u);
  dir.erase(70);
  EXPECT_EQ(dir.find(80), ChunkDirectory::kNone);
  dir.erase(100);
  EXPECT_TRUE(dir.insert(90, 164, 4));
  EXPECT_EQ(dir.find(95), 4u);
  dir.clear();
  EXPECT_EQ(dir.find(95), ChunkDirectory::kNone);
}

TEST(LineTable, ClearDropsEverything) {
  LineTable t{64};
  t.at(128).dram = 9;
  t.clear();
  EXPECT_EQ(t.pages_allocated(), 0u);
  EXPECT_EQ(t.peek(128), nullptr);
  EXPECT_EQ(t.at(128).dram, 0u);
}

TEST(LineTable, MatchesMapModelOnRandomOps) {
  LineTable table{64};
  // The model: one record per line index, absent = all-zero record.
  std::unordered_map<std::uint64_t, LineInfo> model;
  raa::Rng rng{7};
  // Apply the same random record update to the table and the model and
  // check every field (the oracle/owner pair through its accessors)
  // agrees.
  const auto update = [](LineInfo& li, std::uint64_t v) {
    li.dram = v;
    li.prefetch_mask = v >> 8;
    li.set_oracle(v >> 1);  // versions stay below 2^63
    if (v & 1) {
      li.grant_owner(static_cast<unsigned>(v >> 58));
    } else {
      li.clear_owner();
      li.sharers = v >> 32;
    }
  };
  for (int i = 0; i < 2000; ++i) {
    // Page-sized jumps as well as far pages (the sparse high-page map).
    const std::uint64_t line =
        (rng.below(1 << 16) + (rng.below(4) == 0 ? std::uint64_t{1} << 40
                                                  : 0)) *
        64;
    LineInfo& a = table.at(line);
    LineInfo& b = model[line / 64];
    EXPECT_EQ(a.dram, b.dram);
    EXPECT_EQ(a.oracle(), b.oracle());
    EXPECT_EQ(a.sharers, b.sharers);
    EXPECT_EQ(a.prefetch_mask, b.prefetch_mask);
    EXPECT_EQ(a.owner(), b.owner());
    const std::uint64_t v = rng();
    update(a, v);
    update(b, v);
  }
}

TEST(LineTable, NonPowerOfTwoLineSize) {
  LineTable t{96};
  t.at(96 * 5).dram = 5;
  t.at(96 * 6).dram = 6;
  EXPECT_EQ(t.at(96 * 5).dram, 5u);
  EXPECT_EQ(t.at(96 * 6).dram, 6u);
}

TEST(RunComparison, HalvesIndependentOfPool) {
  // The two halves may run concurrently on a pool; results are assigned by
  // submission index, so they match the back-to-back run field for field.
  const SystemConfig cfg = small_cfg();
  const auto make = [&] { return mixed_workload(cfg, 17); };
  const auto serial = raa::mem::run_comparison(cfg, make);
  raa::exec::Pool pool{2};
  const auto parallel = raa::mem::run_comparison(
      cfg, make, raa::mem::ComparisonOptions{.pool = &pool});
  expect_metrics_equal(serial.cache_only, parallel.cache_only);
  expect_metrics_equal(serial.hybrid, parallel.hybrid);
}

TEST(System, ProtocolViolationThrowsCheckError) {
  // A protocol self-check failure inside the commit loop surfaces as a
  // typed CheckError out of run().
  const SystemConfig cfg = small_cfg();
  Workload w;
  w.name = "conflict";
  // Two cores write the same strided chunk -> SPM map conflict check.
  AddressSpace as{cfg.dma_chunk_bytes};
  const Region& shared =
      as.add(w, "shared", cfg.dma_chunk_bytes, RefClass::strided);
  for (unsigned c = 0; c < cfg.tiles; ++c) {
    std::vector<Phase> phases;
    phases.push_back(Phase{
        .streams = {Stream{.region = &shared, .store = true, .start = 0,
                           .stride = 8}},
        .iterations = 16});
    w.programs.push_back(
        std::make_unique<ScriptedProgram>(std::move(phases), 1));
  }
  System sys{cfg, HierarchyMode::hybrid};
  EXPECT_THROW(sys.run(w), raa::CheckError);
}

/// Loads chunks of a strided region whose base is 8 bytes past a line
/// boundary, write-allocates one of them, then — once every core's
/// sweeps are long done — runs guarded read-modify-writes over the whole
/// region. A chunk maps the lines of chunk_base + k * line_bytes, so the
/// line holding its last 8 bytes belongs to the next chunk: guarded
/// accesses there go to the cache side unless that chunk is resident.
/// The stride-16 sweeps never touch those 8 bytes.
Workload unaligned_workload(const SystemConfig& cfg) {
  Workload w;
  w.name = "unaligned";
  const std::uint64_t part = 2 * cfg.dma_chunk_bytes;
  w.regions.push_back(Region{"grid", (std::uint64_t{1} << 20) + 8,
                             cfg.tiles * part, RefClass::strided});
  w.regions.push_back(Region{"priv", std::uint64_t{1} << 24,
                             cfg.tiles * 2048, RefClass::random_noalias});
  const Region& grid = w.regions[0];
  const Region& priv = w.regions[1];
  const std::uint64_t chunk = cfg.dma_chunk_bytes;
  const auto sweep = [&](std::uint64_t start, std::uint64_t bytes,
                         bool store) {
    return Phase{.streams = {Stream{.region = &grid, .store = store,
                                    .start = start, .stride = 16}},
                 .iterations = bytes / 16,
                 .gap_cycles = 1};
  };
  for (unsigned c = 0; c < cfg.tiles; ++c) {
    const std::uint64_t slice = c * part;
    std::vector<Phase> phases;
    phases.push_back(sweep(slice, part, false));
    phases.push_back(sweep(slice, chunk, false));
    phases.push_back(sweep(slice + chunk, chunk, true));
    phases.push_back(sweep(slice, part, false));
    phases.push_back(Phase{
        .streams = {Stream{.region = &priv, .kind = StreamKind::random,
                           .ref = RefClass::random_noalias,
                           .slice_bytes = 2048, .slice_base = c * 2048}},
        .iterations = 1,
        .gap_cycles = 1000000});
    phases.push_back(Phase{
        .streams = {Stream{.region = &grid, .kind = StreamKind::random_rmw,
                           .ref = RefClass::random_unknown, .elem_bytes = 8},
                    Stream{.region = &priv, .kind = StreamKind::random,
                           .ref = RefClass::random_noalias,
                           .slice_bytes = 2048, .slice_base = c * 2048,
                           .elem_bytes = 8}},
        .iterations = 256,
        .gap_cycles = 3});
    w.programs.push_back(
        std::make_unique<ScriptedProgram>(std::move(phases), 1000 + c));
  }
  return w;
}


TEST(System, UnalignedStridedRegionMatchesPinnedMetrics) {
  // Pinned field for field (hexfloat => bit-exact doubles) from the
  // simulator that kept SPM state in the line records.
  const SystemConfig cfg = small_cfg();
  const Metrics want[] = {
      Metrics{.cycles = 0x1.f776cp+19, .noc_flit_hops = 0x1.1706p+18,
              .e_l1 = 0x1.741e8p+19, .e_l2 = 0x1.3056p+17, .e_spm = 0x0p+0,
              .e_dram = 0x1.77258p+21, .e_noc = 0x1.a289p+19,
              .e_dir = 0x1.4008p+16, .e_static = 0x1.f776cp+24,
              .accesses = 36880u, .l1_hits = 32530u, .l1_misses = 4350u,
              .l2_hits = 36u, .l2_misses = 2561u, .spm_hits = 0u,
              .dram_line_reads = 2561u, .dram_line_writes = 0u,
              .invalidations = 3862u, .writebacks = 1u,
              .prefetch_fills = 2082u},
      Metrics{.cycles = 0x1.f75d4p+19, .noc_flit_hops = 0x1.4a144p+18,
              .e_l1 = 0x1.2ee4p+17, .e_l2 = 0x1.7e9ep+18,
              .e_spm = 0x1.a4ccp+17, .e_dram = 0x1.fa1a8p+21,
              .e_noc = 0x1.ef1e6p+19, .e_dir = 0x1.699p+15,
              .e_static = 0x1.f75d4p+24, .accesses = 36880u,
              .l1_hits = 5700u, .l1_misses = 2440u, .l2_hits = 3u,
              .l2_misses = 1407u, .spm_hits = 28740u,
              .dram_line_reads = 3455u, .dram_line_writes = 0u,
              .invalidations = 1074u, .writebacks = 32u,
              .prefetch_fills = 48u, .dma_transfers = 96u,
              .guarded_lookups = 8192u, .guarded_to_spm = 4164u,
              .remote_spm_accesses = 3898u},
  };
  const HierarchyMode modes[] = {HierarchyMode::cache_only,
                                 HierarchyMode::hybrid};
  for (int i = 0; i < 2; ++i) {
    Workload w = unaligned_workload(cfg);
    System sys{cfg, modes[i]};
    const Metrics m = sys.run(w);
    expect_metrics_equal(m, want[i]);
    EXPECT_TRUE(m == want[i]);  // bit-exact, not within 4 ulps
  }
}

/// Strided stores into the last 8 bytes of a chunk of a region whose base
/// is 8 bytes past a line boundary. Those bytes share a line with the next
/// chunk, which maps it; the stores keep working:
///  0. a store-only stride-8 sweep over each core's two chunks;
///  1. per core: store chunk 0's tail, store chunk 1 except its first line
///     (the tail store carries into chunk 1's write-allocated map and is
///     written back with it), load both chunks at stride 16 (the load of
///     chunk 1's first line checks the carried value), then store chunk
///     1's tail, which lies in the next core's first line;
///  2. core 0 only: region a is one chunk whose tail line is region b's
///     first line; load b, store a's tail (into b's SPM copy), then load
///     b's first line and a's tail.
Workload chunk_tail_workload(const SystemConfig& cfg, int variant) {
  Workload w;
  w.name = "chunk_tail";
  const std::uint64_t chunk = cfg.dma_chunk_bytes;
  const std::uint64_t base = (std::uint64_t{1} << 20) + 8;
  const auto sweep = [](const Region& r, std::uint64_t start,
                        std::uint64_t stride, std::uint64_t n, bool store) {
    return Phase{.streams = {Stream{.region = &r, .store = store,
                                    .start = start, .stride = stride}},
                 .iterations = n,
                 .gap_cycles = 1};
  };
  std::vector<std::vector<Phase>> ph(cfg.tiles);
  if (variant == 2) {
    w.regions.push_back(Region{"a", base, chunk, RefClass::strided});
    w.regions.push_back(Region{"b", base + chunk, chunk, RefClass::strided});
    const Region& a = w.regions[0];
    const Region& b = w.regions[1];
    ph[0].push_back(sweep(b, 0, 8, 1, false));
    ph[0].push_back(sweep(a, chunk - 8, 8, 1, true));
    ph[0].push_back(sweep(b, 0, 8, 1, false));
    ph[0].push_back(sweep(a, chunk - 8, 8, 1, false));
  } else {
    const std::uint64_t part = 2 * chunk;
    w.regions.push_back(
        Region{"out", base, cfg.tiles * part, RefClass::strided});
    const Region& out = w.regions[0];
    for (unsigned c = 0; c < cfg.tiles; ++c) {
      const std::uint64_t s = c * part;
      if (variant == 0) {
        ph[c].push_back(sweep(out, s, 8, part / 8, true));
        continue;
      }
      ph[c].push_back(sweep(out, s + chunk - 8, 8, 1, true));
      ph[c].push_back(sweep(out, s + chunk + 56, 16, (chunk - 64) / 16, true));
      ph[c].push_back(sweep(out, s, 16, part / 16, false));
      ph[c].push_back(sweep(out, s + part - 8, 8, 1, true));
    }
  }
  for (unsigned c = 0; c < cfg.tiles; ++c)
    w.programs.push_back(
        std::make_unique<ScriptedProgram>(std::move(ph[c]), 7 + c));
  return w;
}

TEST(System, ChunkTailStoresMatchPinnedMetrics) {
  // Hybrid metrics pinned (hexfloat => bit-exact doubles) from the
  // simulator that kept SPM state in the line records.
  const SystemConfig cfg = small_cfg();
  const Metrics want[] = {
      Metrics{.cycles = 0x1.034p+11, .noc_flit_hops = 0x1.018p+15,
              .e_spm = 0x1.bp+16, .e_noc = 0x1.824p+16, .e_dir = 0x1p+9,
              .e_static = 0x1.034p+16, .accesses = 16384u,
              .spm_hits = 16384u, .writebacks = 32u, .dma_transfers = 32u},
      Metrics{.cycles = 0x1.8b8p+10, .noc_flit_hops = 0x1.61bp+16,
              .e_l2 = 0x1.ep+16, .e_spm = 0x1.7f4p+16, .e_dram = 0x1.2cp+20,
              .e_noc = 0x1.0944p+18, .e_dir = 0x1p+10,
              .e_static = 0x1.8b8p+15, .accesses = 12256u,
              .spm_hits = 12256u, .dram_line_reads = 1024u,
              .writebacks = 48u, .dma_transfers = 64u},
      Metrics{.cycles = 0x1.82p+8, .noc_flit_hops = 0x1.01p+10,
              .e_l2 = 0x1.ep+11, .e_spm = 0x1.98p+8, .e_dram = 0x1.2cp+16,
              .e_noc = 0x1.818p+11, .e_dir = 0x1p+5, .e_static = 0x1.82p+13,
              .accesses = 4u, .spm_hits = 4u, .dram_line_reads = 64u,
              .writebacks = 1u, .dma_transfers = 2u},
  };
  for (int v = 0; v < 3; ++v) {
    SCOPED_TRACE(v);
    Workload w = chunk_tail_workload(cfg, v);
    System sys{cfg, HierarchyMode::hybrid};
    const Metrics m = sys.run(w);
    expect_metrics_equal(m, want[v]);
    EXPECT_TRUE(m == want[v]);  // bit-exact, not within 4 ulps
  }
}

TEST(System, OverlappingStridedRegionsThrowMapConflict) {
  // Region b starts half a chunk into region a, so b's chunk 0 covers the
  // upper half of a's chunk 0. Mapping both at once — from two cores or
  // from one core's two streams — is a map conflict.
  const SystemConfig cfg = small_cfg();
  const std::uint64_t chunk = cfg.dma_chunk_bytes;
  for (const unsigned b_core : {1u, 0u}) {
    Workload w;
    w.name = "overlap";
    w.regions.push_back(
        Region{"a", std::uint64_t{1} << 20, chunk, RefClass::strided});
    w.regions.push_back(Region{"b", (std::uint64_t{1} << 20) + chunk / 2,
                               chunk, RefClass::strided});
    const Region& a = w.regions[0];
    const Region& b = w.regions[1];
    std::vector<std::vector<Phase>> phases(cfg.tiles);
    phases[0].push_back(Phase{
        .streams = {Stream{.region = &a, .stride = 64}},
        .iterations = chunk / 2 / 64});
    // b's accesses start past a's end, so they resolve to region b.
    phases[b_core].push_back(Phase{
        .streams = {Stream{.region = &b, .start = chunk / 2, .stride = 64}},
        .iterations = chunk / 2 / 64});
    for (auto& p : phases)
      w.programs.push_back(std::make_unique<ScriptedProgram>(std::move(p), 1));
    System sys{cfg, HierarchyMode::hybrid};
    try {
      sys.run(w);
      ADD_FAILURE() << "expected an SPM map conflict";
    } catch (const raa::CheckError& e) {
      EXPECT_NE(std::string{e.what()}.find("SPM map conflict"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(System, FarAddressRunsInBoundedLineTable) {
  // One access near the top of the address space must not size anything
  // by its address (it used to allocate a page vector of 2^(addr bits -
  // 18) pointers).
  SystemConfig cfg;
  cfg.tiles = 4;
  cfg.mesh_x = 2;
  cfg.mesh_y = 2;
  std::vector<std::vector<Access>> per_core(cfg.tiles);
  per_core[0] = {Access{.addr = std::uint64_t{1} << 50, .is_store = true}};
  per_core[1] = {Access{.addr = ~std::uint64_t{0} - 63}};
  per_core[2] = {Access{.addr = 4096}};
  per_core[3] = {Access{.addr = std::uint64_t{1} << 50}};
  Workload w = list_workload(cfg, std::move(per_core));
  System sys{cfg, HierarchyMode::cache_only};
  const Metrics m = sys.run(w);
  EXPECT_EQ(m.accesses, 4u);
  EXPECT_EQ(m.l1_misses, 4u);
}

TEST(System, CheckFailureIsCatchableAsTypedCheckError) {
  // The robustness contract the fleet engine is built on: a RAA_CHECK
  // failure inside System::run must surface as raa::CheckError — a typed,
  // catchable exception — never an abort(). The wrong-program-count check
  // in begin_run is the cheapest deterministic trigger.
  const SystemConfig cfg = small_cfg();
  Workload w;
  w.name = "undersized";  // no programs at all, cfg.tiles expected
  System sys{cfg, HierarchyMode::hybrid};
  try {
    sys.run(w);
    FAIL() << "expected RAA_CHECK to throw";
  } catch (const raa::CheckError& e) {
    EXPECT_NE(std::string{e.what()}.find("one program per tile"),
              std::string::npos);
  }
  // CheckError derives from std::logic_error, so pre-existing catch
  // sites keep working.
  Workload w2;
  System sys2{cfg, HierarchyMode::cache_only};
  EXPECT_THROW(sys2.run(w2), std::logic_error);
}

TEST(System, DeterministicMetrics) {
  const SystemConfig cfg = small_cfg();
  auto wa = strided_workload(cfg, 2048, true, 3);
  auto wb = strided_workload(cfg, 2048, true, 3);
  System s1{cfg, HierarchyMode::hybrid};
  System s2{cfg, HierarchyMode::hybrid};
  const Metrics a = s1.run(wa);
  const Metrics b = s2.run(wb);
  EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
  EXPECT_DOUBLE_EQ(a.energy_pj(), b.energy_pj());
  EXPECT_DOUBLE_EQ(a.noc_flit_hops, b.noc_flit_hops);
}

}  // namespace
