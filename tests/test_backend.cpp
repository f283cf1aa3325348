// Unit and equivalence tests of the DRAM timing backends
// (memsim/backend.hpp).
//
//  * FlatBackend/BankedBackend FSM unit tests drive a backend directly
//    through enqueue/tick with a recording completion callback and check
//    hand-computed row-hit/miss/conflict/refresh latencies, FR-FCFS
//    ordering and burst aggregation.
//  * BackendEquivalence pins the refactor: the flat backend routed
//    through the MemBackend interface must reproduce the pre-backend
//    simulator's Metrics bit-for-bit. The goldens below were captured
//    from the last pre-refactor build (hexfloat, so FP sums are exact).
//  * BankedBackendSystem runs the banked model under the full simulator.
#include <gtest/gtest.h>

#include <vector>

#include "memsim/backend.hpp"
#include "memsim/system.hpp"
#include "memsim_testing.hpp"

namespace {

using raa::mem::BankedBackend;
using raa::mem::BurstTiming;
using raa::mem::FlatBackend;
using raa::mem::HierarchyMode;
using raa::mem::LineReq;
using raa::mem::MemBackendKind;
using raa::mem::Metrics;
using raa::mem::System;
using raa::mem::SystemConfig;
using raa::mem::Workload;
using raa::test_util::mixed_workload;

// --- backend FSM unit tests ----------------------------------------------

/// One completed request as seen by the callback.
struct Done {
  LineReq req;
  double latency = 0.0;
};

std::vector<Done>* capture(raa::mem::MemBackend& b) {
  static thread_local std::vector<Done> log;
  log.clear();
  b.set_completion(
      [](const LineReq& r, double lat) { log.push_back({r, lat}); });
  return &log;
}

/// Single channel, single bank, refresh off: every latency is a closed-form
/// function of t_rp/t_rcd/t_cas/line_cycles.
BankedBackend::Params unit_params() {
  BankedBackend::Params p;
  p.channels = 1;
  p.banks_per_channel = 1;
  p.row_bytes = 2048;
  p.t_rp = 40;
  p.t_rcd = 40;
  p.t_cas = 40;
  p.line_cycles = 4;
  p.refresh_interval = 0;
  return p;
}

LineReq read_at(std::uint64_t line, double issue, bool burst = false) {
  return LineReq{LineReq::Kind::read, line, 0, issue, burst};
}

void drain(raa::mem::MemBackend& b) {
  while (!b.idle()) b.tick();
}

TEST(BankedBackend, RowMissOpensTheRow) {
  BankedBackend b{unit_params(), 1};
  auto* log = capture(b);
  b.enqueue(read_at(0, 0.0));
  drain(b);
  ASSERT_EQ(log->size(), 1u);
  // Closed bank: activate + column access + data burst.
  EXPECT_DOUBLE_EQ((*log)[0].latency, 40 + 40 + 4);
  EXPECT_EQ(b.stats().row_misses, 1u);
  EXPECT_EQ(b.stats().row_hits, 0u);
  EXPECT_EQ(b.stats().line_reads, 1u);
}

TEST(BankedBackend, RowHitSkipsActivate) {
  BankedBackend b{unit_params(), 1};
  auto* log = capture(b);
  b.enqueue(read_at(0, 0.0));  // opens row 0, done at 84
  drain(b);
  b.enqueue(read_at(64, 100.0));  // same row, bank already idle
  drain(b);
  ASSERT_EQ(log->size(), 2u);
  EXPECT_DOUBLE_EQ((*log)[1].latency, 40 + 4);  // t_cas + line_cycles
  EXPECT_EQ(b.stats().row_hits, 1u);
  EXPECT_EQ(b.stats().row_misses, 1u);
}

TEST(BankedBackend, RowConflictAddsPrecharge) {
  BankedBackend b{unit_params(), 1};
  auto* log = capture(b);
  b.enqueue(read_at(0, 0.0));  // opens row 0
  drain(b);
  b.enqueue(read_at(2048, 200.0));  // row 1: precharge + activate + cas
  drain(b);
  ASSERT_EQ(log->size(), 2u);
  EXPECT_DOUBLE_EQ((*log)[1].latency, 40 + 40 + 40 + 4);
  EXPECT_EQ(b.stats().row_conflicts, 1u);
}

// A/B over the bank-hash address mapping: a two-block ping-pong whose
// stride aliases the bank interleave. Under the plain block mapping both
// blocks land on bank 0 with different rows — every access after the
// first is a row conflict. The XOR hash folds the row bits in, spreading
// the same two blocks across both banks: two cold misses, then row hits.
TEST(BankedBackend, XorMappingBreaksStrideRowConflicts) {
  BankedBackend::Params p = unit_params();
  p.banks_per_channel = 2;
  // Blocks 0 and 2: within-channel ids 0 and 2, rows 0 and 1.
  //   block:  bank = within % 2      -> both on bank 0 (conflict ping-pong)
  //   xor:    bank = (within^row)%2  -> banks 0 and 1 (no shared bank)
  const std::uint64_t a = 0;
  const std::uint64_t b_addr = 2 * p.row_bytes;

  const auto run = [&](raa::mem::BankMapping mapping) {
    p.mapping = mapping;
    BankedBackend b{p, 1};
    auto* log = capture(b);
    double at = 0.0;
    for (int i = 0; i < 4; ++i) {
      b.enqueue(read_at(a, at));
      drain(b);
      b.enqueue(read_at(b_addr, at + 500.0));
      drain(b);
      at += 1000.0;
    }
    EXPECT_EQ(log->size(), 8u);
    return b.stats();
  };

  const auto block = run(raa::mem::BankMapping::block);
  EXPECT_EQ(block.row_misses, 1u);
  EXPECT_EQ(block.row_conflicts, 7u);
  EXPECT_EQ(block.row_hits, 0u);

  const auto hashed = run(raa::mem::BankMapping::xor_hash);
  EXPECT_EQ(hashed.row_misses, 2u);
  EXPECT_EQ(hashed.row_conflicts, 0u);
  EXPECT_EQ(hashed.row_hits, 6u);
}

TEST(BankedBackend, RefreshClosesRowsAndBlocksTheBank) {
  BankedBackend::Params p = unit_params();
  p.refresh_interval = 1000;
  p.refresh_cycles = 128;
  BankedBackend b{p, 1};
  auto* log = capture(b);
  b.enqueue(read_at(0, 0.0));  // opens row 0 well before the refresh
  drain(b);
  // One elapsed interval (at t=1000) fires before this request; the open
  // row is closed again, so the same row misses instead of hitting.
  b.enqueue(read_at(64, 1500.0));
  drain(b);
  ASSERT_EQ(log->size(), 2u);
  EXPECT_DOUBLE_EQ((*log)[1].latency, 40 + 40 + 4);
  EXPECT_EQ(b.stats().refreshes, 1u);
  EXPECT_EQ(b.stats().row_hits, 0u);
  EXPECT_EQ(b.stats().row_misses, 2u);

  // A request arriving inside the refresh window waits it out: the bank
  // is blocked until 2000 + 128, then activate + cas + burst.
  b.enqueue(read_at(64, 2010.0));
  drain(b);
  ASSERT_EQ(log->size(), 3u);
  EXPECT_DOUBLE_EQ((*log)[2].latency, (2128.0 - 2010.0) + 40 + 40 + 4);
  EXPECT_EQ(b.stats().refreshes, 2u);
}

TEST(BankedBackend, FrFcfsPrefersOldestRowHit) {
  BankedBackend b{unit_params(), 1};
  auto* log = capture(b);
  // Three queued before any service: A(row 0), B(row 1), C(row 0).
  b.enqueue(read_at(0, 0.0));     // A
  b.enqueue(read_at(2048, 0.0));  // B
  b.enqueue(read_at(64, 0.0));    // C
  drain(b);
  ASSERT_EQ(log->size(), 3u);
  // A (oldest, no row open) first; it opens row 0, so C jumps B.
  EXPECT_EQ((*log)[0].req.line, 0u);
  EXPECT_EQ((*log)[1].req.line, 64u);
  EXPECT_EQ((*log)[2].req.line, 2048u);
  EXPECT_EQ(b.stats().row_hits, 1u);       // C
  EXPECT_EQ(b.stats().row_misses, 1u);     // A
  EXPECT_EQ(b.stats().row_conflicts, 1u);  // B
}

TEST(BankedBackend, WritesOccupyTimingButCountSeparately) {
  BankedBackend b{unit_params(), 1};
  auto* log = capture(b);
  b.enqueue(LineReq{LineReq::Kind::write, 0, 0, 0.0, false});
  drain(b);
  b.enqueue(read_at(64, 0.0));  // issued at 0 but the write holds the bank
  drain(b);
  ASSERT_EQ(log->size(), 2u);
  EXPECT_EQ(b.stats().line_writes, 1u);
  EXPECT_EQ(b.stats().line_reads, 1u);
  // Write done at 84; read waits, hits the row the write opened:
  // max(0+40 after ready 84 -> 124, bus 84) + 4.
  EXPECT_DOUBLE_EQ((*log)[1].latency, 84 + 40 + 4);
}

TEST(BankedBackend, BurstAggregatesServiceAndCadence) {
  BankedBackend b{unit_params(), 1};
  capture(b);
  b.begin_burst();
  for (std::uint64_t line = 0; line < 4 * 64; line += 64)
    b.enqueue(read_at(line, 0.0, /*burst=*/true));
  drain(b);
  // Same row: miss at 84, then hits every t_cas+line_cycles on the bus.
  const BurstTiming bt = b.finish_burst(4, 4);
  EXPECT_DOUBLE_EQ(bt.service, 84.0);
  EXPECT_DOUBLE_EQ(bt.cadence, 216.0 - 84.0);

  // Lines streamed from L2 ride at the DMA cadence on top.
  b.begin_burst();
  for (std::uint64_t line = 0; line < 4 * 64; line += 64)
    b.enqueue(read_at(line, 0.0, /*burst=*/true));
  drain(b);
  const BurstTiming bt2 = b.finish_burst(6, 4);
  EXPECT_DOUBLE_EQ(bt2.cadence, bt.cadence + 2.0 * 4);
}

TEST(BankedBackend, ChannelsInterleaveRowBlocks) {
  BankedBackend::Params p = unit_params();
  p.channels = 2;
  BankedBackend b{p, 1};
  capture(b);
  // Blocks 0 and 1 land on different channels: both serviced as misses
  // with no bus interference between them.
  b.enqueue(read_at(0, 0.0));
  b.enqueue(read_at(2048, 0.0));
  drain(b);
  EXPECT_EQ(b.stats().row_misses, 2u);
  EXPECT_EQ(b.stats().row_conflicts, 0u);
}

TEST(BankedBackend, BeginRunResetsAllState) {
  BankedBackend b{unit_params(), 1};
  auto* log = capture(b);
  b.enqueue(read_at(0, 0.0));
  drain(b);
  b.begin_run();
  EXPECT_EQ(b.stats().line_reads, 0u);
  b.enqueue(read_at(64, 0.0));  // same row as before; must MISS after reset
  drain(b);
  EXPECT_EQ(b.stats().row_misses, 1u);
  EXPECT_EQ(b.stats().row_hits, 0u);
  EXPECT_DOUBLE_EQ(log->back().latency, 40 + 40 + 4);
}

TEST(FlatBackend, FixedLatencyAndEnergy) {
  FlatBackend::Params p;  // defaults: 120 / 4 / 1200.0
  FlatBackend b{p};
  auto* log = capture(b);
  b.enqueue(read_at(0, 0.0));
  ASSERT_EQ(log->size(), 1u);  // synchronous completion
  EXPECT_DOUBLE_EQ((*log)[0].latency, 120.0);
  b.enqueue(LineReq{LineReq::Kind::write, 64, 0, 0.0, false});
  ASSERT_EQ(log->size(), 2u);
  EXPECT_DOUBLE_EQ((*log)[1].latency, 0.0);  // writebacks latency-hidden
  EXPECT_EQ(b.stats().line_reads, 1u);
  EXPECT_EQ(b.stats().line_writes, 1u);
  EXPECT_DOUBLE_EQ(b.stats().energy_pj, 2 * 1200.0);
  EXPECT_TRUE(b.idle());
  const BurstTiming bt = b.finish_burst(16, 7);
  EXPECT_DOUBLE_EQ(bt.service, 120.0);
  EXPECT_DOUBLE_EQ(bt.cadence, 16 * 4.0);
  EXPECT_EQ(b.stats().row_hits + b.stats().row_misses +
                b.stats().row_conflicts + b.stats().refreshes,
            0u);
}

// --- equivalence suites --------------------------------------------------

SystemConfig small_cfg() {
  SystemConfig cfg;
  cfg.tiles = 16;
  cfg.mesh_x = 4;
  cfg.mesh_y = 4;
  return cfg;
}

/// Pre-refactor Metrics, field for field (hexfloat => bit-exact doubles).
struct Golden {
  double cycles, noc_flit_hops;
  double e_l1, e_l2, e_spm, e_dram, e_noc, e_dir, e_static;
  std::uint64_t accesses, l1_hits, l1_misses, l2_hits, l2_misses, spm_hits;
  std::uint64_t dram_line_reads, dram_line_writes;
  std::uint64_t invalidations, writebacks, prefetch_fills, dma_transfers;
  std::uint64_t guarded_lookups, guarded_to_spm, remote_spm_accesses;
};

struct GoldenCase {
  std::uint64_t seed;
  HierarchyMode mode;
  Golden want;
};

// Captured at the commit preceding the backend refactor: small_cfg +
// mixed_workload(seed), System{cfg, mode}.run, default (flat) parameters.
const GoldenCase kGolden[] = {
    {11u, HierarchyMode::cache_only,
     Golden{0x1.b4f4p+15, 0x1.5c89p+18, 0x1.1309cp+20, 0x1.4028p+17, 0x0p+0,
            0x1.77258p+21, 0x1.0566cp+20, 0x1.8e08p+16, 0x1.b4f4p+20, 54226u,
            48439u, 5787u, 171u, 2561u, 0u, 2561u, 0u, 5394u, 16u, 2519u, 0u,
            0u, 0u, 0u}},
    {11u, HierarchyMode::hybrid,
     Golden{0x1.461ap+15, 0x1.490e4p+18, 0x1.3542p+17, 0x1.3236p+18,
            0x1.34b38p+18, 0x1.77258p+21, 0x1.ed956p+19, 0x1.6bcp+15,
            0x1.461ap+20, 54226u, 6208u, 2640u, 1635u, 519u, 45261u, 2561u,
            0u, 1598u, 68u, 50u, 80u, 8844u, 4418u, 4009u}},
    {23u, HierarchyMode::cache_only,
     Golden{0x1.9588p+15, 0x1.5238cp+18, 0x1.14348p+20, 0x1.458cp+17, 0x0p+0,
            0x1.77p+21, 0x1.fb552p+19, 0x1.8138p+16, 0x1.9588p+20, 54611u,
            48954u, 5657u, 218u, 2560u, 0u, 2560u, 0u, 5207u, 5u, 2471u, 0u,
            0u, 0u, 0u}},
    {23u, HierarchyMode::hybrid,
     Golden{0x1.299ap+15, 0x1.4606p+18, 0x1.1e5ap+17, 0x1.376dp+18,
            0x1.3c1b8p+18, 0x1.77p+21, 0x1.e909p+19, 0x1.5598p+15,
            0x1.299ap+20, 54611u, 5783u, 2499u, 1591u, 524u, 46205u, 2560u,
            0u, 1501u, 71u, 40u, 82u, 8418u, 4345u, 3943u}},
    {47u, HierarchyMode::cache_only,
     Golden{0x1.86ap+15, 0x1.5ce3cp+18, 0x1.0dd7p+20, 0x1.3fcep+17, 0x0p+0,
            0x1.77p+21, 0x1.05aadp+20, 0x1.9118p+16, 0x1.86ap+20, 53121u,
            47378u, 5743u, 169u, 2560u, 0u, 2560u, 0u, 5451u, 6u, 2574u, 0u,
            0u, 0u, 0u}},
    {47u, HierarchyMode::hybrid,
     Golden{0x1.167ep+15, 0x1.45284p+18, 0x1.3212p+17, 0x1.2a2fp+18,
            0x1.2c6cp+18, 0x1.77p+21, 0x1.e7bc6p+19, 0x1.6b18p+15,
            0x1.167ep+20, 53121u, 6125u, 2621u, 1630u, 515u, 44232u, 2560u,
            0u, 1557u, 64u, 43u, 78u, 8790u, 4439u, 4040u}},
    {95u, HierarchyMode::cache_only,
     Golden{0x1.9e98p+15, 0x1.30c1cp+18, 0x1.e9e78p+19, 0x1.33f8p+17, 0x0p+0,
            0x1.77p+21, 0x1.c922ap+19, 0x1.5f8p+16, 0x1.9e98p+20, 48387u,
            43339u, 5048u, 68u, 2560u, 0u, 2560u, 0u, 4669u, 13u, 2388u, 0u,
            0u, 0u, 0u}},
    {95u, HierarchyMode::hybrid,
     Golden{0x1.36c8p+15, 0x1.27f04p+18, 0x1.0a8cp+17, 0x1.089cp+18,
            0x1.141c8p+18, 0x1.77p+21, 0x1.bbe86p+19, 0x1.41f8p+15,
            0x1.36c8p+20, 48387u, 5311u, 2349u, 1437u, 519u, 40595u, 2560u,
            0u, 1315u, 62u, 48u, 72u, 7682u, 3863u, 3469u}},
    {191u, HierarchyMode::cache_only,
     Golden{0x1.af6cp+15, 0x1.7af94p+18, 0x1.2d2b8p+20, 0x1.5414p+17, 0x0p+0,
            0x1.77p+21, 0x1.1c3afp+20, 0x1.afb8p+16, 0x1.af6cp+20, 59435u,
            53071u, 6364u, 342u, 2560u, 0u, 2560u, 0u, 5990u, 9u, 2601u, 0u,
            0u, 0u, 0u}},
    {191u, HierarchyMode::hybrid,
     Golden{0x1.4b7cp+15, 0x1.68efp+18, 0x1.4e2cp+17, 0x1.5e19p+18,
            0x1.54f08p+18, 0x1.77p+21, 0x1.0eb34p+20, 0x1.8808p+15,
            0x1.4b7cp+20, 59435u, 6753u, 2852u, 1869u, 522u, 49675u, 2560u,
            0u, 1814u, 77u, 45u, 88u, 9586u, 4774u, 4317u}},
};

class BackendEquivalence : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(BackendEquivalence, FlatThroughInterfaceMatchesPreRefactorMetrics) {
  const GoldenCase& g = GetParam();
  const SystemConfig cfg = small_cfg();  // memory defaults to flat
  Workload w = mixed_workload(cfg, g.seed);
  System sys{cfg, g.mode};
  const Metrics m = sys.run(w);
  // Doubles compared with == on purpose: the contract is bit-identity.
  EXPECT_EQ(m.cycles, g.want.cycles);
  EXPECT_EQ(m.noc_flit_hops, g.want.noc_flit_hops);
  EXPECT_EQ(m.e_l1, g.want.e_l1);
  EXPECT_EQ(m.e_l2, g.want.e_l2);
  EXPECT_EQ(m.e_spm, g.want.e_spm);
  EXPECT_EQ(m.e_dram, g.want.e_dram);
  EXPECT_EQ(m.e_noc, g.want.e_noc);
  EXPECT_EQ(m.e_dir, g.want.e_dir);
  EXPECT_EQ(m.e_static, g.want.e_static);
  EXPECT_EQ(m.accesses, g.want.accesses);
  EXPECT_EQ(m.l1_hits, g.want.l1_hits);
  EXPECT_EQ(m.l1_misses, g.want.l1_misses);
  EXPECT_EQ(m.l2_hits, g.want.l2_hits);
  EXPECT_EQ(m.l2_misses, g.want.l2_misses);
  EXPECT_EQ(m.spm_hits, g.want.spm_hits);
  EXPECT_EQ(m.dram_line_reads, g.want.dram_line_reads);
  EXPECT_EQ(m.dram_line_writes, g.want.dram_line_writes);
  EXPECT_EQ(m.invalidations, g.want.invalidations);
  EXPECT_EQ(m.writebacks, g.want.writebacks);
  EXPECT_EQ(m.prefetch_fills, g.want.prefetch_fills);
  EXPECT_EQ(m.dma_transfers, g.want.dma_transfers);
  EXPECT_EQ(m.guarded_lookups, g.want.guarded_lookups);
  EXPECT_EQ(m.guarded_to_spm, g.want.guarded_to_spm);
  EXPECT_EQ(m.remote_spm_accesses, g.want.remote_spm_accesses);
  // The pre-refactor simulator had no row-buffer model at all.
  EXPECT_EQ(m.dram_row_hits, 0u);
  EXPECT_EQ(m.dram_row_misses, 0u);
  EXPECT_EQ(m.dram_row_conflicts, 0u);
  EXPECT_EQ(m.dram_refreshes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Goldens, BackendEquivalence, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string{"seed"} + std::to_string(info.param.seed) + "_" +
             (info.param.mode == HierarchyMode::hybrid ? "hybrid"
                                                       : "cache_only");
    });

// --- banked backend under the full simulator ----------------------------

SystemConfig banked_cfg() {
  SystemConfig cfg = small_cfg();
  cfg.memory.kind = MemBackendKind::banked;
  // A short interval so refreshes actually fire inside the test run.
  cfg.memory.banked.refresh_interval = 2048;
  return cfg;
}

TEST(BankedBackendSystem, TimingDiffersFromFlatButWorkDoesNot) {
  const SystemConfig flat_cfg = small_cfg();
  const SystemConfig bank_cfg = banked_cfg();
  Workload wf = mixed_workload(flat_cfg, 7);
  Workload wb = mixed_workload(bank_cfg, 7);
  System fs{flat_cfg, HierarchyMode::hybrid};
  System bs{bank_cfg, HierarchyMode::hybrid};
  const Metrics mf = fs.run(wf);
  const Metrics mb = bs.run(wb);
  // Same functional simulation: identical work counters...
  EXPECT_EQ(mf.accesses, mb.accesses);
  EXPECT_EQ(mf.dram_line_reads, mb.dram_line_reads);
  // ...different timing model: cycles diverge and refreshes fire.
  EXPECT_NE(mf.cycles, mb.cycles);
  EXPECT_GT(mb.dram_refreshes, 0u);
  // The banked model classifies every DRAM line transfer by row state.
  EXPECT_EQ(mb.dram_row_hits + mb.dram_row_misses + mb.dram_row_conflicts,
            mb.dram_line_reads + mb.dram_line_writes);
  EXPECT_GT(mb.dram_row_hits, 0u);
}

}  // namespace
