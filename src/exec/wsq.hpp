#pragma once
/// \file wsq.hpp
/// Chase–Lev work-stealing deque (the weak-memory-model formulation of
/// Lê, Pop, Cohen & Zappa Nardelli, PPoPP'13): a single *owner* thread
/// pushes and pops at the bottom (LIFO, for locality of freshly spawned
/// work), any number of *thief* threads steal from the top (FIFO, so the
/// oldest — typically largest — task migrates). The only atomic
/// read-modify-write on the fast path is the compare-exchange that
/// arbitrates the last-element race between the owner and a thief.
///
/// The ring buffer grows on demand. Retired arrays are kept alive until
/// the deque is destroyed: a thief may still be reading a slot of an old
/// array after the owner swapped in a bigger one, and the CAS on `top_`
/// (not the array load) decides whether that read is used — so retired
/// storage must stay valid, but its *contents* never need to.
///
/// This deliberately breaks with the Core Guidelines CP.100 stance the
/// previous scheduler took ("no hand-rolled lock-free structures"): the
/// structure is a verbatim transcription of a published, model-checked
/// algorithm, confined to this one file, and swept by the TSan CI job
/// plus the owner/thief stress suite in tests/test_stealing.cpp.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"

// Thread sanitizer cannot model std::atomic_thread_fence (GCC rejects it
// outright under -Werror=tsan), so under TSan the lock-free code in this
// layer runs the *fence-free* formulation: fences drop out and the
// fence-adjacent accesses are promoted to seq_cst — the original
// sequentially-consistent Chase–Lev, which TSan models precisely. Outside
// TSan the cheaper fence-based weak-memory version runs.
#if defined(__SANITIZE_THREAD__)
#define RAA_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RAA_TSAN 1
#endif
#endif

namespace raa::exec {

namespace detail {
#ifdef RAA_TSAN
inline constexpr bool kTsan = true;
#else
inline constexpr bool kTsan = false;
#endif

/// seq_cst under TSan (fence-free formulation), `mo` otherwise.
constexpr std::memory_order sc_or(std::memory_order mo) noexcept {
  return kTsan ? std::memory_order_seq_cst : mo;
}

inline void fence_seq_cst() noexcept {
  if constexpr (!kTsan)
    std::atomic_thread_fence(std::memory_order_seq_cst);
}

inline void fence_release() noexcept {
  if constexpr (!kTsan)
    std::atomic_thread_fence(std::memory_order_release);
}

/// Bytes per host cache line. Words that different threads write live on
/// different lines, so one thread's write does not steal the line another
/// thread is using (false sharing).
inline constexpr std::size_t kCacheLine = 64;

/// A `T` on cache lines of its own, usable as the `T` it derives from: it
/// starts a line and fills its last one, so neither the next slot of an
/// array nor the next member of a class shares a line with it. The
/// executor and the runtime start each group of words that one kind of
/// thread writes with one of these, so the group owns its lines.
template <class T>
struct alignas(kCacheLine) CachePadded : T {
  using T::T;
};
}  // namespace detail

/// Single-owner / multi-thief deque of trivially copyable `T` where `T{}`
/// is the reserved "empty" sentinel (use pointers). push() and pop() may
/// only be called by the owner thread; steal() by any thread.
template <typename T>
class WorkStealingDeque {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// `capacity` is rounded up to a power of two, minimum 2.
  explicit WorkStealingDeque(std::int64_t capacity = 256) {
    std::int64_t c = 2;
    while (c < capacity) c *= 2;
    ring_.store(new Ring(c), std::memory_order_relaxed);
  }

  ~WorkStealingDeque() {
    delete ring_.load(std::memory_order_relaxed);
    for (Ring* r : retired_) delete r;
  }

  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  /// Owner only. Never fails; grows the ring when full.
  void push(T item) {
    RAA_CHECK(item != T{});
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Ring* a = ring_.load(std::memory_order_relaxed);
    if (b - t > a->capacity - 1) a = grow(a, t, b);
    a->store(b, item);
    detail::fence_release();
    bottom_.store(b + 1, detail::sc_or(std::memory_order_relaxed));
  }

  /// Owner only. Returns T{} when the deque is empty (or a thief won the
  /// race for the final element).
  T pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Ring* a = ring_.load(std::memory_order_relaxed);
    bottom_.store(b, detail::sc_or(std::memory_order_relaxed));
    detail::fence_seq_cst();
    std::int64_t t = top_.load(detail::sc_or(std::memory_order_relaxed));
    T item{};
    if (t <= b) {
      item = a->load(b);
      if (t == b) {
        // Single element left: race a concurrent steal for it.
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed))
          item = T{};  // thief won
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_relaxed);  // was empty
    }
    return item;
  }

  /// Any thread. Returns T{} when empty or when another thief (or the
  /// owner's pop) won the race — callers treat both as "try elsewhere".
  T steal() {
    std::int64_t t = top_.load(detail::sc_or(std::memory_order_acquire));
    detail::fence_seq_cst();
    const std::int64_t b = bottom_.load(detail::sc_or(std::memory_order_acquire));
    T item{};
    if (t < b) {
      // The array load must not be reordered before the top_ load above
      // (acquire), and the CAS below validates that slot t was still ours.
      Ring* a = ring_.load(std::memory_order_acquire);
      item = a->load(t);
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed))
        return T{};  // lost the race; `item` may be stale — discard it
    }
    return item;
  }

  /// Approximate (racy) — for stats and tests that quiesce first.
  std::int64_t size() const noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? b - t : 0;
  }
  bool empty() const noexcept { return size() == 0; }

  std::int64_t capacity() const noexcept {
    return ring_.load(std::memory_order_relaxed)->capacity;
  }

 private:
  /// Power-of-two ring of atomic slots, indexed modulo capacity.
  struct Ring {
    explicit Ring(std::int64_t c)
        : capacity(c), mask(c - 1),
          slots(std::make_unique<std::atomic<T>[]>(static_cast<std::size_t>(c))) {}

    T load(std::int64_t i) const noexcept {
      return slots[static_cast<std::size_t>(i & mask)].load(
          std::memory_order_relaxed);
    }
    void store(std::int64_t i, T v) noexcept {
      slots[static_cast<std::size_t>(i & mask)].store(
          v, std::memory_order_relaxed);
    }

    const std::int64_t capacity;
    const std::int64_t mask;
    std::unique_ptr<std::atomic<T>[]> slots;
  };

  /// Owner only: double the ring, copying live entries [t, b).
  Ring* grow(Ring* old, std::int64_t t, std::int64_t b) {
    Ring* bigger = new Ring(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->store(i, old->load(i));
    retired_.push_back(old);  // thieves may still be reading it
    ring_.store(bigger, std::memory_order_release);
    return bigger;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Ring*> ring_{nullptr};
  std::vector<Ring*> retired_;  ///< owner-only; freed in the destructor
};

}  // namespace raa::exec
