#pragma once
/// \file stealing.hpp
/// Work-stealing executor: per-worker Chase–Lev deques (exec/wsq.hpp), a
/// mutexed injection queue for items submitted from outside the worker
/// set, randomized victim selection with deterministic per-worker RNG
/// seeds, and a two-phase condvar Notifier so idle workers park instead
/// of spinning.
///
/// The executor is payload-agnostic: it moves `void*` items and calls a
/// user RunFn on each. The tasking runtime (rt::Runtime) submits its
/// ready TaskBlock*s to it directly, and exec::Pool submits its jobs.
///
/// Host-throughput disclaimer (why this cannot move simulated metrics):
/// everything here decides only *which host thread* runs a task and
/// *when* in wall-clock time. The simulated numbers — fig5 scalability,
/// ablation makespans — are computed by raa::sim::replay over a captured
/// TDG whose node ids, costs (when cost_hints are given) and edges are
/// fixed at spawn time; no replay input depends on host scheduling.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "exec/wsq.hpp"

namespace raa::exec {

/// Two-phase parking protocol (the shape of Eigen's EventCount, reduced
/// to a single epoch): a would-be sleeper *announces* itself
/// (prepare_wait: waiters_ increment, then epoch read), re-checks its
/// work sources, and only then sleeps (commit_wait) — it actually blocks
/// only if the epoch is unchanged. A producer makes work visible first,
/// then reads waiters_ behind a seq_cst fence (Dekker-style: either the
/// producer sees the waiter and bumps the epoch, or the waiter's
/// re-check — sequenced after its seq_cst waiters_ increment — sees the
/// produced work). The epoch is bumped under the mutex, so a bump between
/// prepare_wait and commit_wait can never be missed: commit_wait's
/// predicate reads it under the same mutex.
class Notifier {
 public:
  /// Phase 1: announce intent to sleep. Returns the epoch ticket to pass
  /// to commit_wait(). The caller MUST re-check its work sources between
  /// prepare_wait() and commit_wait()/cancel_wait().
  std::uint64_t prepare_wait() noexcept {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    return epoch_.load(std::memory_order_acquire);
  }

  /// Abandon a prepared wait (work was found on the re-check).
  void cancel_wait() noexcept {
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }

  /// Phase 2: sleep until the epoch moves past `epoch`.
  void commit_wait(std::uint64_t epoch) {
    {
      std::unique_lock<std::mutex> lock{mutex_};
      cv_.wait(lock, [&] {
        return epoch_.load(std::memory_order_relaxed) != epoch;
      });
    }
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }

  void notify_one() { notify(false); }
  void notify_all() { notify(true); }

 private:
  void notify(bool all) {
    // Pairs with the waiter's seq_cst waiters_ increment: the producer's
    // work is published before this barrier, so if we read waiters_ == 0
    // here the waiter's subsequent source re-check will see that work.
    // Under TSan the fence is replaced by a seq_cst RMW of waiters_ itself
    // (reads the latest value in modification order — a strictly stronger
    // Dekker half that GCC's -Wtsan can model; see wsq.hpp).
    if constexpr (detail::kTsan) {
      if (waiters_.fetch_add(0, std::memory_order_seq_cst) == 0) return;
    } else {
      detail::fence_seq_cst();
      if (waiters_.load(std::memory_order_relaxed) == 0) return;
    }
    {
      const std::scoped_lock lock{mutex_};
      epoch_.fetch_add(1, std::memory_order_acq_rel);
    }
    if (all)
      cv_.notify_all();
    else
      cv_.notify_one();
  }

  // Each group below starts a cache line of its own (kCacheLine).

  /// Sleep side: written by a notify() that finds a waiter (the epoch
  /// bump under the mutex) and by the threads that park and wake.
  detail::CachePadded<std::mutex> mutex_;
  std::condition_variable cv_;
  std::atomic<std::uint64_t> epoch_{0};

  /// Written by every thread that prepares to park or stops waiting; read
  /// by every notify(), that is by every submit of the executor.
  detail::CachePadded<std::atomic<std::uint64_t>> waiters_{0};
};

/// Work-stealing executor over `num_workers` threads — the one place in
/// src/exec/ that creates threads. Items are opaque non-null pointers;
/// `run` is invoked on the worker that acquired the item. Thread-safe:
/// submit()/pop_own()/try_pop() may be called from any thread.
class StealingExecutor {
 public:
  /// Called with (item, worker) — worker == num_workers when an external
  /// thread ran the item through try_pop().
  using RunFn = std::function<void(void*, unsigned)>;

  struct Options {
    unsigned num_workers = 0;
    std::uint64_t seed = 1;  ///< per-worker victim RNGs derive from it
  };

  StealingExecutor(Options options, RunFn run);

  /// shutdown() — safe if already shut down.
  ~StealingExecutor();

  StealingExecutor(const StealingExecutor&) = delete;
  StealingExecutor& operator=(const StealingExecutor&) = delete;

  /// Make `item` available and wake a worker. When the calling thread is
  /// worker `hint` of this executor, the item goes to that worker's own
  /// deque (LIFO, lock-free); otherwise to the injection queue.
  void submit(void* item, unsigned hint);

  /// Non-blocking acquire for thread `worker` (external threads pass
  /// num_workers): own source first, then a steal sweep. Returns nullptr
  /// when everything is dry.
  void* try_pop(unsigned worker);

  /// try_pop()'s first step alone: worker `worker`'s own deque (LIFO), or
  /// for an external thread the newest injected item. Never steals. As
  /// with try_pop(), only worker w itself may pass w < num_workers.
  void* pop_own(unsigned worker);

  /// The notifier the workers park on. Every submit() notifies it, so a
  /// thread outside the worker set that waits for work or for its own
  /// condition may park on it too: prepare_wait(), re-check the queues
  /// (try_pop) and the condition, then commit_wait(); whoever makes the
  /// condition true notifies after publishing it.
  Notifier& notifier() noexcept { return notifier_; }

  /// Stop and join the workers. Idempotent; called by the destructor.
  /// Items still queued are NOT run — drain before shutting down.
  void shutdown();

  /// Id of the calling thread within this executor, or num_workers when
  /// the caller is not one of our workers.
  unsigned current_worker() const noexcept;

  /// Total successful steals (sum over workers + external threads, each
  /// counter bumped with relaxed atomics — a diagnostic, not a fence).
  std::uint64_t steal_count() const noexcept;

  unsigned num_workers() const noexcept { return options_.num_workers; }

 private:
  void worker_loop(std::stop_token stop, unsigned w);
  void* steal_sweep(unsigned w);
  void* pop_injected(bool lifo);

  using Counter = detail::CachePadded<std::atomic<std::uint64_t>>;

  // Members are grouped by the thread that writes them, and each group
  // that threads write while the executor runs starts a cache line of its
  // own (kCacheLine), so no thread's write moves a line that another
  // thread's group sits on.

  /// Read-mostly: written by the constructor and shutdown() only. The
  /// per-worker slots behind rng_ and steals_ are padded to a line each.
  Options options_;
  RunFn run_;

  /// One deque per worker; slot w is owned by worker thread w.
  std::vector<std::unique_ptr<WorkStealingDeque<void*>>> deques_;

  /// Per-worker deterministic victim RNGs (slot w touched only by worker
  /// w); external threads rotate via ext_start_ instead.
  std::vector<detail::CachePadded<Rng>> rng_;

  /// Per-slot steal counters, slot num_workers = external threads. These
  /// cells are the single source of truth for steal counts: the obs
  /// counter registry samples them through an "exec.steals" external
  /// gauge attached for the executor's lifetime (see stealing.cpp), so
  /// no second copy of the count exists anywhere.
  std::unique_ptr<Counter[]> steals_;
  std::uint64_t obs_token_ = 0;  ///< registry external-gauge handle

  /// Items submitted by non-worker threads (spawns from main, from
  /// another runtime's workers, ...). Plain mutexed deque: external
  /// submitters pop the back (LIFO, matching the owner side of a deque),
  /// workers steal the front. Written by every external submit and by
  /// every pop or steal of an injected item.
  detail::CachePadded<std::mutex> inject_mutex_;
  std::deque<void*> injected_;

  /// Written by every steal sweep of an external thread.
  Counter ext_start_{0};

  /// Its sleep side and its waiter count each start a line of their own.
  Notifier notifier_;

  /// Read-mostly. Last member: the threads die before the state above.
  std::vector<std::jthread> threads_;
};

}  // namespace raa::exec
