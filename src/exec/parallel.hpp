#pragma once
/// \file parallel.hpp
/// ordered_reduce over exec::Pool: fan out n independent tasks and merge
/// their results on the *calling thread, strictly in submission order*,
/// regardless of the order in which they complete. This is what keeps
/// every parallel consumer in the repo deterministic: bench --jobs merges
/// scenario reports in registration order, run_comparison assigns the
/// cache_only/hybrid halves by index, never by finishing time.
///
/// The wait help-runs tasks from the caller's own source (see pool.hpp),
/// so a task may itself call ordered_reduce on the same pool.

#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "exec/pool.hpp"

namespace raa::exec {

/// Run task(0..n-1) across the pool and call merge(i, result_i) on the
/// calling thread in index order. merge(i) runs as soon as result i is
/// available and all results < i are merged — completion order never
/// reorders the reduction. If task i throws, results 0..i-1 are still
/// merged, every task still runs to completion, and the lowest-index
/// exception is rethrown.
template <class R, class TaskFn, class MergeFn>
void ordered_reduce(Pool& pool, std::size_t n, TaskFn&& task, MergeFn&& merge) {
  if (n == 0) return;
  struct Slot {
    std::optional<R> value;
    bool done = false;  ///< true once the task finished (value empty: threw)
  };
  std::vector<Slot> slots(n);
  std::mutex mutex;  // guards slots
  Pool::Group group;
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit(group, [&, i] {
      try {
        R r = task(i);
        const std::scoped_lock lock{mutex};
        slots[i].value = std::move(r);
        slots[i].done = true;
      } catch (...) {
        {
          const std::scoped_lock lock{mutex};
          slots[i].done = true;
        }
        throw;  // captured by the pool under the group's submission index
      }
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    pool.help_while([&] {
      const std::scoped_lock lock{mutex};
      return !slots[i].done;
    });
    std::optional<R> value;
    {
      const std::scoped_lock lock{mutex};
      value = std::move(slots[i].value);
    }
    if (!value) break;  // task i failed; drain and rethrow below
    try {
      merge(i, std::move(*value));
    } catch (...) {
      // Drain before unwinding: the remaining tasks reference the slots.
      (void)pool.wait_collect(group);
      throw;
    }
  }
  pool.wait(group);
}

}  // namespace raa::exec
