#pragma once
/// \file memsim_testing.hpp
/// Helpers shared by the memsim-level test suites: exact field-wise
/// Metrics equality, and the mixed-class workload that the equivalence
/// suites and the BackendEquivalence goldens run.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "kernels/program.hpp"
#include "memsim/config.hpp"
#include "memsim/system.hpp"

namespace raa::test_util {

/// Field-by-field Metrics equality. Every equivalence contract here is
/// exact (both sides execute the identical simulation), so even the FP
/// sums must match bit-for-bit. A failure names the field.
inline void expect_metrics_equal(const mem::Metrics& a,
                                 const mem::Metrics& b) {
  EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
  EXPECT_DOUBLE_EQ(a.noc_flit_hops, b.noc_flit_hops);
  EXPECT_DOUBLE_EQ(a.e_l1, b.e_l1);
  EXPECT_DOUBLE_EQ(a.e_l2, b.e_l2);
  EXPECT_DOUBLE_EQ(a.e_spm, b.e_spm);
  EXPECT_DOUBLE_EQ(a.e_dram, b.e_dram);
  EXPECT_DOUBLE_EQ(a.e_noc, b.e_noc);
  EXPECT_DOUBLE_EQ(a.e_dir, b.e_dir);
  EXPECT_DOUBLE_EQ(a.e_static, b.e_static);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.l1_hits, b.l1_hits);
  EXPECT_EQ(a.l1_misses, b.l1_misses);
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.spm_hits, b.spm_hits);
  EXPECT_EQ(a.dram_line_reads, b.dram_line_reads);
  EXPECT_EQ(a.dram_line_writes, b.dram_line_writes);
  EXPECT_EQ(a.dram_row_hits, b.dram_row_hits);
  EXPECT_EQ(a.dram_row_misses, b.dram_row_misses);
  EXPECT_EQ(a.dram_row_conflicts, b.dram_row_conflicts);
  EXPECT_EQ(a.dram_refreshes, b.dram_refreshes);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.writebacks, b.writebacks);
  EXPECT_EQ(a.prefetch_fills, b.prefetch_fills);
  EXPECT_EQ(a.dma_transfers, b.dma_transfers);
  EXPECT_EQ(a.guarded_lookups, b.guarded_lookups);
  EXPECT_EQ(a.guarded_to_spm, b.guarded_to_spm);
  EXPECT_EQ(a.remote_spm_accesses, b.remote_spm_accesses);
  // The defaulted operator== must agree with the field-wise comparison
  // (it catches a field added to Metrics but not to the list above).
  EXPECT_TRUE(a == b);
}

/// FT-like mixed-class workload: strided SPM streams over per-core slices,
/// guarded rmw scatter over the shared region, and random no-alias traffic
/// in a cache-served region. Exercises every access class plus DMA
/// map/unmap, guarded redirection, and the prefetcher.
inline mem::Workload mixed_workload(const mem::SystemConfig& cfg,
                                    std::uint64_t seed) {
  using kern::Phase;
  using kern::Stream;
  using kern::StreamKind;
  using mem::RefClass;
  Rng rng{seed};
  mem::Workload w;
  w.name = "mixed";
  kern::AddressSpace as{cfg.dma_chunk_bytes};
  const std::uint64_t part = 2 * cfg.dma_chunk_bytes;
  const mem::Region& shared =
      as.add(w, "shared", cfg.tiles * part, RefClass::strided);
  const mem::Region& priv =
      as.add(w, "private", cfg.tiles * 2048, RefClass::random_noalias);

  for (unsigned c = 0; c < cfg.tiles; ++c) {
    std::vector<Phase> phases;
    const unsigned rounds = 2 + static_cast<unsigned>(rng.below(2));
    for (unsigned k = 0; k < rounds; ++k) {
      phases.push_back(Phase{
          .streams = {Stream{.region = &shared, .store = (k % 2 == 1),
                             .start = c * part, .stride = 8}},
          .iterations = part / 8,
          .gap_cycles = static_cast<std::uint32_t>(rng.below(6))});
      phases.push_back(Phase{
          .streams = {Stream{.region = &shared, .kind = StreamKind::random_rmw,
                             .ref = RefClass::random_unknown,
                             .elem_bytes = 8},
                      Stream{.region = &priv, .kind = StreamKind::random,
                             .ref = RefClass::random_noalias,
                             .slice_bytes = 2048, .slice_base = c * 2048,
                             .elem_bytes = 8}},
          .iterations = 64 + rng.below(96),
          .gap_cycles = static_cast<std::uint32_t>(rng.below(8))});
    }
    w.programs.push_back(std::make_unique<kern::ScriptedProgram>(
        std::move(phases), seed * 131 + c));
  }
  return w;
}

}  // namespace raa::test_util
