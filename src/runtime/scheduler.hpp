#pragma once
/// \file scheduler.hpp
/// Ready-task scheduling policies for the RAA runtime, built on the
/// work-stealing executor (exec/stealing.hpp).
///
/// The Scheduler owns the worker threads (via the executor) and exposes
/// one push/pop surface for every policy:
///  - `work_stealing` maps straight onto the executor: per-worker
///    lock-free Chase–Lev deques, randomized stealing, parked idle
///    workers.
///  - `fifo` / `lifo` / `criticality_first` keep their central mutexed
///    queues (the ordering *is* the policy — a distributed structure
///    cannot promise global FIFO or strict criticality priority); the
///    executor's workers drain them through its poll hook, so parking
///    and wakeup are shared across all policies.

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

#include "common/enum_names.hpp"
#include "exec/stealing.hpp"
#include "runtime/task.hpp"

namespace raa::rt {

/// Scheduling policy selector.
enum class SchedulerPolicy : std::uint8_t {
  fifo,              ///< single central FIFO queue
  lifo,              ///< single central LIFO stack (depth-first)
  work_stealing,     ///< per-worker deques; owner LIFO, thieves FIFO
  criticality_first  ///< central queues; critical-annotated tasks first
};

inline EnumNames<SchedulerPolicy> enum_names(SchedulerPolicy) {
  static constexpr EnumName<SchedulerPolicy> kNames[] = {
      {"fifo", SchedulerPolicy::fifo}, {"lifo", SchedulerPolicy::lifo},
      {"work_stealing", SchedulerPolicy::work_stealing},
      {"criticality_first", SchedulerPolicy::criticality_first}};
  return {"scheduler policy", kNames};
}
using raa::to_string;

/// Ready-queue + worker threads. push()/pop() are thread-safe and
/// non-blocking; push() wakes a parked worker. The `run` callback is
/// invoked on a worker thread for every task its loop acquires.
class Scheduler {
 public:
  using RunFn = std::function<void(detail::TaskBlock*, unsigned)>;

  Scheduler(SchedulerPolicy policy, unsigned num_workers, std::uint64_t seed,
            RunFn run);

  /// Joins the workers (shutdown()).
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueue a ready task and wake a worker. `worker_hint` is the id of
  /// the worker that made it ready (owner-deque push under work
  /// stealing); pass num_workers for "no affinity" (e.g. the spawning
  /// main thread).
  void push(detail::TaskBlock* task, unsigned worker_hint);

  /// Dequeue work on behalf of `worker` (external/helping threads pass
  /// num_workers); nullptr when empty everywhere.
  detail::TaskBlock* pop(unsigned worker);

  /// Stop and join the worker threads. Idempotent. The owner must drain
  /// outstanding work first (the runtime taskwaits in its destructor).
  void shutdown();

  /// Executor-worker id of the calling thread, or num_workers when the
  /// caller is not one of this scheduler's workers.
  unsigned current_worker() const noexcept;

  /// The executor's notifier: push() notifies it, and the runtime's
  /// taskwait()/corun() park on it (exec::StealingExecutor::notifier()).
  exec::Notifier& notifier() noexcept { return executor_.notifier(); }

  SchedulerPolicy policy() const noexcept { return policy_; }
  unsigned num_workers() const noexcept { return num_workers_; }

  /// Total steals performed (diagnostic; relaxed-atomic sum, exact only
  /// once the queues are quiescent). Central policies never steal.
  std::uint64_t steal_count() const noexcept;

 private:
  detail::TaskBlock* pop_central();

  SchedulerPolicy policy_;
  unsigned num_workers_;

  // Central queues (fifo / lifo / criticality_first).
  std::mutex central_mutex_;
  std::deque<detail::TaskBlock*> central_;
  std::deque<detail::TaskBlock*> central_critical_;

  exec::StealingExecutor executor_;  ///< owns the worker threads
};

}  // namespace raa::rt
