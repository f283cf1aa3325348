#pragma once
/// \file segmented.hpp
/// Storage of the runtime's task blocks and edge log: slots indexed by a
/// dense 32-bit id whose addresses never change, so any thread may use a
/// slot while other threads construct new ones.

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

namespace raa::rt::detail {

/// Slots live in fixed-size segments of 2^kSlotBits slots, each allocated
/// on first use and never moved. The segment pointers live in tables of
/// doubling size (16, 32, 64, ... pointers), so nothing is ever copied as
/// the store grows. Every table and segment is installed with one CAS (a
/// thread that loses the race frees its copy). A slot's storage is left
/// untouched until emplace() constructs it there, and the allocator hands
/// the equal-sized segments of one runtime to the next.
///
/// Each slot is emplaced at most once, by one thread; any thread may
/// emplace a different slot concurrently. A slot is readable through
/// operator[] by a thread that the constructing thread synchronised with,
/// and through find() by any thread.
template <class T, unsigned kSlotBits = 8>
class SegmentedStore {
 public:
  SegmentedStore() = default;
  SegmentedStore(const SegmentedStore&) = delete;
  SegmentedStore& operator=(const SegmentedStore&) = delete;

  ~SegmentedStore() {
    for (unsigned k = 0; k < kLevels; ++k) {
      std::atomic<Segment*>* table = tables_[k].load(std::memory_order_relaxed);
      if (table == nullptr) continue;
      for (std::uint32_t s = 0; s < table_size(k); ++s)
        delete table[s].load(std::memory_order_relaxed);
      delete[] table;
    }
  }

  /// Constructs slot `i` from `args` and publishes it to find().
  template <class... Args>
  T& emplace(std::uint32_t i, Args&&... args) {
    const auto [k, s] = locate(i >> kSlotBits);
    std::atomic<Segment*>* table = tables_[k].load(std::memory_order_acquire);
    if (table == nullptr)
      table = install(tables_[k], new std::atomic<Segment*>[table_size(k)](),
                      [](std::atomic<Segment*>* t) { delete[] t; });
    Segment* seg = table[s].load(std::memory_order_acquire);
    if (seg == nullptr)
      seg = install(table[s], new Segment, [](Segment* g) { delete g; });
    const std::uint32_t at = i & kMask;
    T* t = ::new (static_cast<void*>(seg->slot(at)))
        T(std::forward<Args>(args)...);
    seg->live[at].store(true, std::memory_order_release);
    return *t;
  }

  /// A constructed slot (see the class comment for who may call this).
  T& operator[](std::uint32_t i) const noexcept {
    const auto [k, s] = locate(i >> kSlotBits);
    Segment* seg = tables_[k].load(std::memory_order_acquire)[s].load(
        std::memory_order_acquire);
    return *std::launder(seg->slot(i & kMask));
  }

  /// Slot `i`, or null while it is not yet constructed.
  const T* find(std::uint32_t i) const noexcept {
    const auto [k, s] = locate(i >> kSlotBits);
    const std::atomic<Segment*>* table =
        tables_[k].load(std::memory_order_acquire);
    if (table == nullptr) return nullptr;
    const Segment* seg = table[s].load(std::memory_order_acquire);
    if (seg == nullptr ||
        !seg->live[i & kMask].load(std::memory_order_acquire))
      return nullptr;
    return std::launder(seg->slot(i & kMask));
  }

 private:
  static constexpr std::uint32_t kSlots = std::uint32_t{1} << kSlotBits;
  static constexpr std::uint32_t kMask = kSlots - 1;
  /// Table k holds the pointers of segments [16 (2^k - 1), 16 (2^(k+1) - 1));
  /// the last one reaches past the segment of the largest 32-bit id.
  static constexpr std::uint32_t kFirstTable = 16;
  static constexpr unsigned kLevels = 33 - kSlotBits - 4;

  static constexpr std::uint32_t table_size(unsigned k) noexcept {
    return kFirstTable << k;
  }

  struct Location {
    unsigned table;
    std::uint32_t entry;
  };
  static Location locate(std::uint32_t segment) noexcept {
    const std::uint32_t j = segment / kFirstTable + 1;
    const auto k = static_cast<unsigned>(std::bit_width(j) - 1);
    return {k, segment - (table_size(k) - kFirstTable)};
  }

  struct Segment {
    Segment() noexcept {}  // user-provided: `storage` is left untouched
    ~Segment() {
      for (std::uint32_t i = 0; i < kSlots; ++i)
        if (live[i].load(std::memory_order_relaxed)) std::destroy_at(slot(i));
    }
    Segment(const Segment&) = delete;
    Segment& operator=(const Segment&) = delete;

    T* slot(std::uint32_t i) noexcept {
      return reinterpret_cast<T*>(storage) + i;
    }
    const T* slot(std::uint32_t i) const noexcept {
      return reinterpret_cast<const T*>(storage) + i;
    }

    std::atomic<bool> live[kSlots] = {};
    alignas(T) unsigned char storage[kSlots * sizeof(T)];
  };

  /// Installs `fresh` in the empty `cell`, or frees it with `drop` and
  /// returns what another thread installed first.
  template <class P, class Drop>
  static P* install(std::atomic<P*>& cell, P* fresh, Drop drop) {
    P* expected = nullptr;
    if (cell.compare_exchange_strong(expected, fresh,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire))
      return fresh;
    drop(fresh);
    return expected;
  }

  std::atomic<std::atomic<Segment*>*> tables_[kLevels] = {};
};

}  // namespace raa::rt::detail
