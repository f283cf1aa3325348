#pragma once
/// \file access.hpp
/// The memory-access stream interface between workloads (kernels/) and the
/// hierarchy simulator (system.hpp).
///
/// §2 of the paper: the compiler classifies every memory reference as
///   * strided            — mapped to the SPMs through tiling software
///                          caches (DMA-managed chunks);
///   * random, no-alias   — served by the cache hierarchy;
///   * random, unknown    — a *guarded* access: the hardware decides at
///                          run time which memory holds the valid copy.
/// The classification is an attribute of the reference (i.e. of the access
/// stream), mirroring what the compiler derives statically.

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/enum_names.hpp"

namespace raa::mem {

using raa::to_string;

/// Compiler reference class (see file comment).
enum class RefClass : std::uint8_t {
  strided,
  random_noalias,
  random_unknown,
};

inline EnumNames<RefClass> enum_names(RefClass) {
  static constexpr EnumName<RefClass> kNames[] = {
      {"strided", RefClass::strided},
      {"random_noalias", RefClass::random_noalias},
      {"random_unknown", RefClass::random_unknown}};
  return {"reference class", kNames};
}

/// One memory access issued by a core.
struct Access {
  std::uint64_t addr = 0;        ///< byte address
  bool is_store = false;
  RefClass ref = RefClass::random_noalias;
  /// Compute cycles the core spends *before* this access (models the
  /// non-memory work between two references).
  std::uint32_t gap_cycles = 0;
};

/// A per-core access-stream generator. Streams are pulled lazily so multi-
/// million-access workloads never materialise a trace. The simulator pulls
/// through `fill()` in batches, amortising the virtual dispatch over up to
/// a buffer's worth of accesses; `next()` remains as the single-access
/// shim for hand-rolled programs and tests.
class CoreProgram {
 public:
  virtual ~CoreProgram() = default;
  /// Produce the next access; false at end of stream.
  virtual bool next(Access& out) = 0;
  /// Produce up to out.size() accesses (in stream order); returns how many
  /// were written. 0 means end of stream — and must stay 0 thereafter. The
  /// default loops next(); generators override it to batch.
  virtual std::size_t fill(std::span<Access> out) {
    std::size_t n = 0;
    while (n < out.size() && next(out[n])) ++n;
    return n;
  }
};

/// A declared data region with its compiler classification. The hybrid
/// system maps `strided` regions to the SPM tiling software-cache; the
/// guarded-access filter answers membership queries against the currently
/// mapped chunks.
struct Region {
  std::string name;
  std::uint64_t base = 0;
  std::uint64_t bytes = 0;
  RefClass ref = RefClass::strided;

  bool contains(std::uint64_t addr) const noexcept {
    return addr >= base && addr < base + bytes;
  }
  friend bool operator==(const Region&, const Region&) = default;
};

/// A complete multi-core workload: one program per core plus the region
/// table (the "compiler output"). Regions live in a deque so that
/// references handed out during construction stay valid as more regions
/// are added.
struct Workload {
  std::string name;
  std::deque<Region> regions;
  std::vector<std::unique_ptr<CoreProgram>> programs;  ///< one per core
};

}  // namespace raa::mem
