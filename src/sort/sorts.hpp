#pragma once
/// \file sorts.hpp
/// The §3.2 sorting algorithms, implemented against the simulated vector
/// ISA (see vector/vpu.hpp):
///
///   * vsr_sort          — the paper's contribution: vectorised LSD radix
///                         sort using VPI/VLU for intra-vector conflict
///                         resolution; bucket table is NOT replicated, so
///                         wide digits (8 bits) and few passes;
///   * vector_radix_sort — prior art (Zagha-Blelloch style): per-slot
///                         replicated counters avoid conflicts without new
///                         instructions, but replication shrinks the digit
///                         (4 bits) and doubles the passes;
///   * vector_quicksort  — compress-based partitioning + in-register
///                         bitonic base case;
///   * bitonic_sort      — full bitonic mergesort (unit-stride friendly but
///                         O(n log^2 n) work);
///   * scalar_radix_sort / scalar_quicksort — the scalar baseline.
///
/// All sorts sort 32-bit keys held in vec::Elem slots, ascending, and are
/// functionally verified against std::sort by the tests.

#include <cstdint>
#include <string>
#include <vector>

#include "common/enum_names.hpp"
#include "vector/scalar_core.hpp"
#include "vector/vpu.hpp"

namespace raa::sort {

/// Cycle outcome of one sort execution.
struct SortStats {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;

  double cpt(std::size_t n) const {
    return n == 0 ? 0.0 : static_cast<double>(cycles) /
                              static_cast<double>(n);
  }
};

SortStats vsr_sort(vec::Vpu& vpu, std::vector<vec::Elem>& data);
SortStats vector_radix_sort(vec::Vpu& vpu, std::vector<vec::Elem>& data);
SortStats vector_quicksort(vec::Vpu& vpu, std::vector<vec::Elem>& data);
SortStats bitonic_sort(vec::Vpu& vpu, std::vector<vec::Elem>& data);

SortStats scalar_radix_sort(vec::ScalarCore& core,
                            std::vector<vec::Elem>& data);
SortStats scalar_quicksort(vec::ScalarCore& core,
                           std::vector<vec::Elem>& data);

/// Registry used by tests and the Figure 3 bench.
enum class Algorithm {
  vsr,
  vector_radix,
  vector_quicksort,
  bitonic,
};

inline EnumNames<Algorithm> enum_names(Algorithm) {
  static constexpr EnumName<Algorithm> kNames[] = {
      {"vsr", Algorithm::vsr}, {"vector_radix", Algorithm::vector_radix},
      {"vector_quicksort", Algorithm::vector_quicksort},
      {"bitonic", Algorithm::bitonic}};
  return {"sort algorithm", kNames};
}
using raa::to_string;

/// Run `algorithm` on a fresh VPU with `config`; returns the stats.
SortStats run_vector_sort(Algorithm algorithm, const vec::VpuConfig& config,
                          std::vector<vec::Elem>& data);

}  // namespace raa::sort
