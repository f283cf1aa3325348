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
/// sums must match bit-for-bit: doubles compare with ==, not within ULPs.
/// A failure names the field.
inline void expect_metrics_equal(const mem::Metrics& a,
                                 const mem::Metrics& b) {
  for (const auto& f : mem::kMetricsReals)
    EXPECT_EQ(a.*f.member, b.*f.member) << f.name;
  for (const auto& f : mem::kMetricsCounts)
    EXPECT_EQ(a.*f.member, b.*f.member) << f.name;
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
