#pragma once
/// \file pool.hpp
/// Grouped task pool: the parallel-execution surface under the bench
/// harness's --jobs fan-out, the fleet's job lanes and run_comparison's
/// concurrent halves. Every client submits coarse, independent units.
/// It is a thin layer over one private StealingExecutor (stealing.hpp),
/// which owns the worker threads and the queues; the pool adds groups,
/// error capture and helping waits.
///
/// Design points that the layers above rely on:
///  * Work-helping waits that pop only the waiter's own source: its own
///    deque if it is a pool worker, the executor's injection queue if it
///    is not. A waiter never steals. A submission goes to the submitter's
///    own source, so the tasks a waiter awaits are either there or already
///    running on another thread: a task may submit subtasks to its own
///    pool and wait on them without risking worker-starvation deadlock,
///    and a bench unit waiting on its sub-units does not steal other
///    lanes' units into its timing window. A Pool with zero worker threads
///    is therefore a valid inline executor.
///  * Deterministic failure reporting. Every task carries its submission
///    index within its Group; wait() rethrows the exception of the
///    *lowest-index* failed task, independent of completion order.
///  * Reuse. Groups reset on wait(); a pool is submitted to repeatedly
///    over its lifetime (every bench unit, every fleet job).

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>

#include "exec/stealing.hpp"

namespace raa::exec {

/// See file comment.
class Pool {
 public:
  /// Tracks one batch of submitted tasks. Owned by the submitting scope,
  /// which must wait() it before destruction; all bookkeeping fields are
  /// guarded by the pool mutex.
  class Group {
   public:
    Group() = default;
    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

   private:
    friend class Pool;
    std::size_t submitted = 0;
    std::size_t finished = 0;
    /// Submission index of the first (lowest-index) failed task.
    std::size_t error_index = 0;
    std::exception_ptr error;
  };

  /// Spawns `workers` threads. 0 is valid: every task then runs inline in
  /// some thread's wait()/help_while().
  explicit Pool(unsigned workers);

  /// Joins the workers. Tasks still queued — possible only when a Group
  /// was destroyed without wait(), violating its contract — are freed
  /// unrun (their captures may already dangle).
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Enqueue `fn` under `g` on the calling thread's own source. Runs on a
  /// worker or inside a helping wait; may be called from inside a task
  /// (nested submission).
  void submit(Group& g, std::function<void()> fn);

  /// Help-run tasks from the caller's own source until every task of `g`
  /// has finished, then rethrow the lowest-index captured exception (if
  /// any). Resets `g`.
  void wait(Group& g);

  /// wait() variant that returns the error instead of throwing (for
  /// cancellation paths that are already unwinding). Resets `g`.
  std::exception_ptr wait_collect(Group& g);

  /// Help-run tasks from the caller's own source while `not_ready()`
  /// returns true; when that source is dry, sleep until a task of this
  /// pool finishes or is submitted. The predicate runs with the pool lock
  /// held (that is what makes the sleep race-free), so it may take its own
  /// locks but must never call into the pool. The condition must be
  /// flipped by a task of this pool (or already be false), else this
  /// never returns.
  void help_while(const std::function<bool()>& not_ready);

 private:
  struct Task {
    std::function<void()> fn;
    Group* group = nullptr;
    std::size_t index = 0;
  };

  /// The executor's RunFn: run one task and record its completion.
  void run(Task* task);
  std::exception_ptr take_error(Group& g);

  std::mutex mutex_;
  std::condition_variable cv_;  ///< signalled on submission and completion
  /// Last member: its workers stop before the state above dies.
  StealingExecutor exec_;
};

}  // namespace raa::exec
