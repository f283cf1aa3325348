#pragma once
/// \file spm.hpp
/// The SPM side of the hybrid hierarchy (§2): the compiler transforms
/// strided references to run through per-core, per-region DMA-managed
/// chunks with double buffering. This header holds the software-cache
/// state — which chunk each stream has resident and that chunk's SPM
/// contents — plus the mapped-chunk directory the guarded-access filter
/// consults, and the per-tile capacity accounting. The timing/energy of
/// DMA transfers is charged by the system model.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace raa::mem {

/// One (core, strided-region) software cache: which chunk is resident, the
/// SPM copy of its lines, whether it was written, and when its prefetch
/// completes (double-buffer overlap model: the DMA for the next chunk is
/// issued when the current one is entered; switching earlier than its
/// completion stalls the core).
struct SoftwareCacheState {
  static constexpr std::uint64_t kNoChunk = ~std::uint64_t{0};
  /// Slot flag: the SPM holds a valid copy of the line. Values are
  /// versions, which stay below 2^63, so the flag never collides.
  static constexpr std::uint64_t kValid = std::uint64_t{1} << 63;

  std::uint64_t current_chunk = kNoChunk;  ///< chunk index within region
  /// Line index of the resident chunk's first line.
  std::uint64_t first_line = 0;
  /// SPM copy of each line the resident chunk maps, indexed from
  /// `first_line`: value | kValid, or 0 while the SPM has no valid copy
  /// (write-allocated lines become valid as they are written). Empty when
  /// no chunk is resident.
  std::vector<std::uint64_t> lines;
  bool dirty = false;
  bool open = false;  ///< stream touched at least once (slot reserved)
  double prefetch_done_cycle = 0.0;
};

/// The mapped-chunk directory: the line-index ranges of the chunks
/// currently mapped into some SPM, each naming the stream (index into the
/// System's flat (core, region) stream table) that holds it. It answers
/// the guarded-access filter, the no-alias check, the prefetcher's hybrid
/// skip and the map-conflict check. Ranges are disjoint and kept sorted by
/// first line; there are at most tiles x strided-regions of them, so a
/// flat vector with binary search is the whole data structure.
class ChunkDirectory {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Stream whose resident chunk maps line index `line`, or kNone.
  std::uint32_t find(std::uint64_t line) const {
    // The last range starting at or before `line` is the only candidate.
    const auto it = std::upper_bound(first_.begin(), first_.end(), line);
    if (it == first_.begin()) return kNone;
    const Entry& e =
        entries_[static_cast<std::size_t>(it - first_.begin()) - 1];
    return line < e.end ? e.stream : kNone;
  }

  /// Map lines [first, end) to `stream`. Returns false, inserting nothing,
  /// when the range overlaps a mapped one.
  bool insert(std::uint64_t first, std::uint64_t end, std::uint32_t stream) {
    RAA_CHECK(first < end);
    const auto it = std::lower_bound(first_.begin(), first_.end(), first);
    const auto i = it - first_.begin();
    if (it != first_.end() && *it < end) return false;
    if (i > 0 && entries_[static_cast<std::size_t>(i) - 1].end > first)
      return false;
    first_.insert(it, first);
    entries_.insert(entries_.begin() + i, Entry{end, stream});
    return true;
  }

  /// Unmap the range starting at line index `first` (must be mapped).
  void erase(std::uint64_t first) {
    const auto it = std::lower_bound(first_.begin(), first_.end(), first);
    RAA_CHECK(it != first_.end() && *it == first);
    entries_.erase(entries_.begin() + (it - first_.begin()));
    first_.erase(it);
  }

  void clear() {
    first_.clear();
    entries_.clear();
  }
  std::size_t size() const noexcept { return first_.size(); }

 private:
  struct Entry {
    std::uint64_t end;  ///< one past the range's last line index
    std::uint32_t stream;
  };

  std::vector<std::uint64_t> first_;  ///< sorted range starts (search keys)
  std::vector<Entry> entries_;        ///< parallel to first_
};

/// Per-tile SPM capacity accounting. Chunks are allocated double-buffered
/// (2x chunk size per active stream) like the paper's tiling software
/// caches; exceeding the SPM capacity is a configuration error.
class SpmAllocator {
 public:
  SpmAllocator(unsigned spm_bytes, unsigned chunk_bytes)
      : capacity_(spm_bytes), chunk_bytes_(chunk_bytes) {}

  /// Reserve a double-buffered stream slot.
  void reserve_stream() {
    used_ += 2 * chunk_bytes_;
    RAA_CHECK_MSG(used_ <= capacity_,
                  "SPM capacity exceeded: too many strided streams for "
                  "spm_bytes/dma_chunk_bytes");
  }

  unsigned used_bytes() const noexcept { return used_; }
  unsigned capacity_bytes() const noexcept { return capacity_; }

 private:
  unsigned capacity_ = 0;
  unsigned chunk_bytes_ = 0;
  unsigned used_ = 0;
};

}  // namespace raa::mem
