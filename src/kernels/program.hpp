#pragma once
/// \file program.hpp
/// Building blocks for the NAS-like workload generators: a phase/stream
/// "scripted program" that lazily produces deterministic access streams,
/// and a bump allocator for laying regions out in the simulated address
/// space.
///
/// A program is a sequence of *phases*; each phase advances a set of
/// *streams* round-robin for a given number of iterations (one access per
/// stream per iteration, in declaration order). Linear streams model the
/// compiler's strided references; random streams model gathers/scatters
/// (classified no-alias or unknown); rmw streams emit load+store pairs to
/// the same random address (histogram updates). This is expressive enough
/// to reproduce the access structure of all six NAS kernels used in
/// Figure 1 without materialising traces.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "memsim/access.hpp"

namespace raa::kern {

/// How a stream generates addresses.
enum class StreamKind : std::uint8_t {
  linear,      ///< base + i * stride (strided reference)
  random,      ///< uniform random element within the region slice
  random_rmw,  ///< random element, emits load then store (same address)
};

inline EnumNames<StreamKind> enum_names(StreamKind) {
  static constexpr EnumName<StreamKind> kNames[] = {
      {"linear", StreamKind::linear},
      {"random", StreamKind::random},
      {"random_rmw", StreamKind::random_rmw}};
  return {"stream kind", kNames};
}

/// One reference stream inside a phase.
struct Stream {
  const mem::Region* region = nullptr;
  StreamKind kind = StreamKind::linear;
  bool store = false;              ///< ignored by random_rmw (load+store)
  mem::RefClass ref = mem::RefClass::strided;
  std::uint64_t start = 0;         ///< byte offset into the region
  std::uint64_t stride = 8;        ///< linear: bytes between accesses
  std::uint64_t slice_bytes = 0;   ///< random: span to draw from (0 = all)
  std::uint64_t slice_base = 0;    ///< random: slice offset in the region
  std::uint32_t elem_bytes = 8;    ///< random: element granularity
};

/// A loop nest flattened into "iterations x streams".
struct Phase {
  std::vector<Stream> streams;
  std::uint64_t iterations = 0;
  std::uint32_t gap_cycles = 0;  ///< compute between consecutive accesses
};

/// CoreProgram interpreter over a phase list. Deterministic in `seed`.
/// Generates accesses in batches (one virtual `fill` call produces up to a
/// buffer's worth); `next()` is the one-access shim over the same
/// generator, so both entry points yield the identical sequence.
class ScriptedProgram final : public mem::CoreProgram {
 public:
  ScriptedProgram(std::vector<Phase> phases, std::uint64_t seed)
      : phases_(std::move(phases)), rng_(seed) {}

  bool next(mem::Access& out) override;
  std::size_t fill(std::span<mem::Access> out) override;

 private:
  std::vector<Phase> phases_;
  Rng rng_;
  std::size_t phase_ = 0;
  std::uint64_t iter_ = 0;
  std::size_t stream_ = 0;
  bool pending_store_ = false;     ///< second half of an rmw pair
  std::uint64_t pending_addr_ = 0;
  mem::RefClass pending_ref_ = mem::RefClass::random_unknown;
};

/// Bump allocator for the simulated physical address space; regions are
/// aligned to DMA chunks so per-core slices can be chunk-aligned.
class AddressSpace {
 public:
  explicit AddressSpace(std::uint64_t align_bytes)
      : align_(align_bytes), cursor_(1ull << 20) {}

  /// Allocate and register a region in the workload.
  const mem::Region& add(mem::Workload& w, std::string name,
                         std::uint64_t bytes, mem::RefClass ref) {
    const std::uint64_t base = (cursor_ + align_ - 1) / align_ * align_;
    cursor_ = base + bytes;
    w.regions.push_back(
        mem::Region{std::move(name), base, bytes, ref});
    return w.regions.back();
  }

 private:
  std::uint64_t align_;
  std::uint64_t cursor_;
};

}  // namespace raa::kern
