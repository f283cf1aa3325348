#pragma once
/// \file linetable.hpp
/// Flat, line-indexed storage for the per-line facts the cache side of the
/// hierarchy simulator tracks. The simulated address space is
/// bump-allocated and dense (kern::AddressSpace), so the per-access hash
/// maps the simulator historically paid for — DRAM values, the store
/// oracle, the coherence directory and the per-core prefetch-tag sets —
/// collapse into ONE 32-byte `LineInfo` record per line, stored in
/// demand-allocated dense pages. A typical access then does a single
/// shift+index instead of several hash probes. SPM contents and the
/// mapped-chunk directory live on the SPM side (spm.hpp), because
/// cache_only runs never need them.
///
/// Pages: a dense top-level page vector for low page indices plus a sparse
/// map for the rest, so one far address cannot size the vector.
///
/// Reference stability: a `LineInfo&` returned by `at()` stays valid until
/// `clear()` — pages are never moved or freed while the table lives. The
/// simulator relies on this to hold a line's record across victim
/// evictions that create other lines.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/check.hpp"

namespace raa::mem {

/// Everything the cache side knows about one cache line. The all-zero
/// record is the default and encodes absence exactly like a missing
/// hash-map entry used to: DRAM/oracle values 0, no directory state, no
/// prefetch tags, no owner. 32-byte aligned, so a record never straddles a
/// host cache line.
///
/// The directory owner (the tile holding the line Modified/Exclusive) is
/// not stored: every protocol path keeps `owner >= 0 => sharers ==
/// bit(owner)`, so one "owned" flag in the top bit of the oracle's version
/// word plus the single sharer bit name the owner. Versions stay below
/// 2^63 (System::fresh_version checks it), so the flag never collides with
/// a value.
struct alignas(32) LineInfo {
  std::uint64_t dram = 0;           ///< functional DRAM value
  std::uint64_t sharers = 0;        ///< directory sharer bitmask (<=64 tiles)
  std::uint64_t prefetch_mask = 0;  ///< cores holding the line prefetch-tagged

  /// Value of the last store in simulation order.
  std::uint64_t oracle() const noexcept { return version_ & ~kOwned; }
  void set_oracle(std::uint64_t v) noexcept {
    version_ = (version_ & kOwned) | v;
  }

  /// Tile holding the line Modified/Exclusive, or -1.
  int owner() const {
    if ((version_ & kOwned) == 0) return -1;
    RAA_CHECK(std::has_single_bit(sharers));
    return std::countr_zero(sharers);
  }
  /// Make `tile` the sole holder and owner of the line.
  void grant_owner(unsigned tile) {
    RAA_CHECK(tile < 64);
    sharers = std::uint64_t{1} << tile;
    version_ |= kOwned;
  }
  /// Drop ownership; the sharer bits are the caller's to adjust.
  void clear_owner() {
    RAA_CHECK((version_ & kOwned) == 0 || std::has_single_bit(sharers));
    version_ &= ~kOwned;
  }

  /// Top bit of the version word: the line has an owner.
  static constexpr std::uint64_t kOwned = std::uint64_t{1} << 63;

 private:
  std::uint64_t version_ = 0;  ///< oracle value | kOwned
};
static_assert(sizeof(LineInfo) == 32);
static_assert(alignof(LineInfo) == 32);

/// See file comment.
class LineTable {
 public:
  /// Lines per page. 4096 lines x 64 B = a 256 KiB address span per page;
  /// one page is 128 KiB of LineInfo, so dense workload regions amortise
  /// the allocation while sparse address spaces stay cheap.
  static constexpr unsigned kPageLineBits = 12;
  static constexpr std::size_t kPageLines = std::size_t{1} << kPageLineBits;
  /// Page indices below this live in the dense top-level vector (at most
  /// 512 KiB of pointers: a 16 GiB address span at 64-byte lines); higher
  /// pages go to a sparse map, so one far address cannot size the vector.
  static constexpr std::size_t kDensePages = std::size_t{1} << 16;

  explicit LineTable(unsigned line_bytes) : line_bytes_(line_bytes) {
    RAA_CHECK(line_bytes > 0);
    line_pow2_ = std::has_single_bit(line_bytes);
    if (line_pow2_)
      line_shift_ = static_cast<unsigned>(std::countr_zero(line_bytes));
  }

  /// Line index of a byte address (the record key).
  std::uint64_t index_of(std::uint64_t addr) const {
    return line_pow2_ ? addr >> line_shift_ : addr / line_bytes_;
  }

  /// Get-or-create the record for a (line-aligned) address.
  LineInfo& at(std::uint64_t line_addr) {
    const std::uint64_t idx = index_of(line_addr);
    const std::uint64_t page = idx >> kPageLineBits;
    if (page < pages_.size() && pages_[page] != nullptr)
      return (*pages_[page])[idx & (kPageLines - 1)];
    return (*slow_page(page))[idx & (kPageLines - 1)];
  }

  /// Read-only lookup that never allocates. Returns nullptr when the
  /// line's page was never allocated. A null result is equivalent to a
  /// default-constructed LineInfo.
  const LineInfo* peek(std::uint64_t line_addr) const {
    const std::uint64_t idx = index_of(line_addr);
    const std::uint64_t page = idx >> kPageLineBits;
    const Page* p = nullptr;
    if (page < pages_.size()) {
      p = pages_[page];
    } else if (const auto it = high_pages_.find(page);
               it != high_pages_.end()) {
      p = it->second;
    }
    return p ? &(*p)[idx & (kPageLines - 1)] : nullptr;
  }

  /// Drop every record (invalidates all references).
  void clear() {
    pages_.clear();
    high_pages_.clear();
    blocks_.clear();
  }

  /// Allocated page count. Diagnostics.
  std::size_t pages_allocated() const noexcept { return blocks_.size(); }

  /// Size of the dense top-level page vector (never more than
  /// kDensePages). Diagnostics.
  std::size_t page_slots() const noexcept { return pages_.size(); }

 private:
  using Page = std::array<LineInfo, kPageLines>;
  // Pages live in raw byte blocks and are never destroyed explicitly.
  static_assert(std::is_trivially_destructible_v<Page>);

  /// Get-or-allocate page `page` off the dense fast path: an absent dense
  /// slot, or any page in the sparse map. Lives in linetable.cpp, so that
  /// at() stays small enough to inline into every protocol path.
  Page* slow_page(std::uint64_t page);

  unsigned line_bytes_;
  unsigned line_shift_ = 0;
  bool line_pow2_ = false;
  std::vector<Page*> pages_;
  /// Pages at or above kDensePages (far, sparse addresses).
  std::map<std::uint64_t, Page*> high_pages_;
  /// Storage of every page in pages_ and high_pages_.
  std::vector<std::unique_ptr<std::byte[]>> blocks_;
};

}  // namespace raa::mem
