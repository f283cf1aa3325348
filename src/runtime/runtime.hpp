#pragma once
/// \file runtime.hpp
/// Public facade of the RAA tasking runtime (the paper's OmpSs/Nanos-like
/// layer): spawn tasks with data-region annotations, let the runtime build
/// the Task Dependency Graph and execute tasks out-of-order on a
/// work-stealing worker pool, then inspect the TDG and execution trace.
/// Ready tasks go straight to exec::StealingExecutor: a worker's releases
/// and spawns land on its own deque, other threads' in the executor's
/// injection queue, and idle workers steal.
/// A task body is any callable taking no arguments; one of at most 48
/// bytes whose move cannot throw (a lambda capturing up to six pointers,
/// say) is stored in the task's own block, so spawning it allocates
/// nothing. Larger bodies are stored on the heap.
///
/// Example:
/// \code
///   raa::rt::Runtime rt{{.num_workers = 4}};
///   double a = 0, b = 0;
///   rt.spawn({raa::rt::out(a)}, [&] { a = produce(); });
///   rt.spawn({raa::rt::out(b)}, [&] { b = produce(); });
///   rt.spawn({raa::rt::in(a), raa::rt::in(b)}, [&] { consume(a + b); });
///   rt.taskwait();
/// \endcode
///
/// Nested parallelism (taskflow-shaped): a running task body may spawn
/// children with silent_async() and cooperatively join them with corun();
/// children a body leaves unjoined are joined implicitly before the task
/// completes.
/// \code
///   rt.spawn([&] {
///     rt.silent_async([&] { left = fib(n - 1); });
///     rt.silent_async([&] { right = fib(n - 2); });
///     rt.corun();  // runs/steals tasks until both children finished
///     result = left + right;
///   });
/// \endcode

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "exec/stealing.hpp"
#include "runtime/dependences.hpp"
#include "runtime/graph.hpp"
#include "runtime/segmented.hpp"
#include "runtime/task.hpp"

namespace raa::rt {

namespace detail {

/// The task blocks one executor slot spawned, in that slot's spawn order
/// (each block keeps its task id). Worker w fills store w alone; every
/// thread outside the worker set fills the last store under its `mutex`.
/// A store's header starts a cache line of its own and only its spawning
/// threads write it: a spawn constructs block `count`, then publishes it
/// with a release store of `count + 1`; graph() and trace() read `count`
/// with acquire and walk the blocks below it.
struct alignas(exec::detail::kCacheLine) TaskStore {
  std::mutex mutex;  ///< the external store's spawns only
  std::atomic<std::uint32_t> count{0};
  SegmentedStore<TaskBlock> blocks;
};

}  // namespace detail

/// Construction-time options.
struct RuntimeOptions {
  /// Worker threads in addition to the calling thread. The caller also
  /// executes tasks while blocked in taskwait() ("work helping"), so
  /// num_workers == 0 gives a valid serial runtime.
  unsigned num_workers = 0;
  std::uint64_t seed = 1;  ///< seeds the executor's victim RNGs
};

/// Aggregate execution statistics.
struct RuntimeStats {
  std::uint64_t tasks_spawned = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t edges = 0;
  std::uint64_t steals = 0;
};

/// The tasking runtime. Thread-compatible: any thread (including task
/// bodies, for nested parallelism) may call spawn(); taskwait() may be
/// called from the constructor thread or from threads outside any task
/// body of this runtime (it is a full barrier over all spawned tasks).
class Runtime {
 public:
  explicit Runtime(RuntimeOptions options = {});

  /// Blocks until all tasks finish, then joins the workers.
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Submit a task. `deps` lists the byte ranges the task reads/writes;
  /// the runtime orders it after every conflicting earlier task. `body`
  /// is any callable taking no arguments (a lambda, a std::function, a
  /// function pointer); a null std::function or pointer is rejected
  /// (RAA_CHECK). Bodies of at most 48 bytes are stored in place.
  template <TaskCallable F>
  TaskId spawn(std::vector<Dep> deps, F&& body, TaskAttrs attrs = {}) {
    return spawn_impl(deps, detail::TaskBody{std::forward<F>(body)},
                      std::move(attrs), /*nested=*/false);
  }

  /// Convenience overload without dependences (embarrassingly parallel).
  template <TaskCallable F>
  TaskId spawn(F&& body, TaskAttrs attrs = {}) {
    return spawn_impl({}, detail::TaskBody{std::forward<F>(body)},
                      std::move(attrs), /*nested=*/false);
  }

  /// Nested spawn: a dependence-free child task. When called from inside
  /// a task body of this runtime, the child is linked to the running task
  /// — the parent will not complete (and its dependants will not be
  /// released) until the child has finished, joined either cooperatively
  /// via corun() or implicitly when the body returns. From any other
  /// thread this is equivalent to spawn() with no dependences.
  template <TaskCallable F>
  TaskId silent_async(F&& body, TaskAttrs attrs = {}) {
    return spawn_impl({}, detail::TaskBody{std::forward<F>(body)},
                      std::move(attrs), /*nested=*/true);
  }

  /// Cooperative join: from inside a task body of this runtime, run/steal
  /// ready tasks until every child the current task spawned so far via
  /// silent_async() has finished (parking, not spinning, when nothing is
  /// ready). From any other thread, behaves as taskwait().
  void corun();

  /// Full barrier: returns when every task spawned so far has finished.
  /// The calling thread executes ready tasks while it waits. Must not be
  /// called from inside a task body of this runtime (use corun() there).
  void taskwait();

  /// The TDG of every task spawned so far, built from the task blocks and
  /// the edge log: node ids are task ids, edges are added in spawn order.
  /// A node's cost is its task's cost_hint when one was given, else the
  /// measured execution time in nanoseconds (at least 1) once the task has
  /// finished, and 1 before. Call after taskwait() for a stable view.
  tdg::Graph graph() const;

  /// Execution trace (one record per finished task), ordered by end time,
  /// ties by task id.
  std::vector<TraceRecord> trace() const;

  RuntimeStats stats() const;

  unsigned num_workers() const noexcept { return options_.num_workers; }

 private:
  TaskId spawn_impl(std::span<const Dep> deps, detail::TaskBody&& body,
                    TaskAttrs&& attrs, bool nested);

  /// Reserves the next task id and constructs its block in the store of
  /// executor slot `slot` (the calling thread's).
  detail::TaskBlock& new_block(unsigned slot, detail::TaskBody&& body,
                               TaskAttrs&& attrs);

  /// The next ready task for `worker_id` (own deque, then a steal sweep),
  /// or nullptr when none is ready.
  detail::TaskBlock* try_pop(unsigned worker_id);

  /// Run one ready task if available. Returns false when no task was ready.
  bool run_one(unsigned worker_id);

  void execute(detail::TaskBlock* task, unsigned worker_id);

  /// Cooperatively run/steal until task->children == 0.
  void corun_children(detail::TaskBlock* task, unsigned worker_id);

  /// Every task spawned so far has finished (seq_cst reads; see
  /// docs/ARCHITECTURE.md "Why no wakeup is lost").
  bool barrier_reached() const noexcept;

  /// Tasks executed: the sum of the executed slots.
  std::uint64_t executed() const noexcept;

  std::uint64_t now_ns() const;

  using Counter = exec::detail::CachePadded<std::atomic<std::uint64_t>>;

  // Members are grouped by the thread that writes them, and each group
  // that threads write while tasks run starts a cache line of its own
  // (exec::detail::kCacheLine), so no thread's write moves a line that
  // another thread's group sits on.

  /// Read-mostly: written by the constructor and the destructor only
  /// (the tables of dependents_ and edges_ also when a spawn adds a
  /// 256-slot segment). Every completion reads options_, executed_ and
  /// epoch_. The task stores behind stores_ each start a line of their
  /// own.
  RuntimeOptions options_;
  std::chrono::steady_clock::time_point epoch_;
  /// Tasks executed, one counter per executor slot (worker w, and slot
  /// num_workers for every thread outside the worker set), each on its own
  /// cache line.
  std::unique_ptr<Counter[]> executed_;

  /// Registry external-gauge handles ("rt.tasks_spawned" /
  /// "rt.tasks_executed"): the counters of this runtime stay the single
  /// source of truth — RuntimeStats and the obs registry both read them.
  /// Detached in the destructor before any member is torn down.
  std::uint64_t obs_spawned_token_ = 0;
  std::uint64_t obs_executed_token_ = 0;

  /// Task blocks, one store per executor slot (num_workers + 1), so a
  /// spawn writes its block into memory of the spawning thread's own.
  std::unique_ptr<detail::TaskStore[]> stores_;
  /// The blocks of dependent tasks by id: written under the graph mutex by
  /// their spawns, read there by the spawns that link onto their release
  /// chains, and by completions releasing them. Dependence-free tasks are
  /// never anyone's predecessor or successor and have no entry.
  detail::SegmentedStore<detail::TaskBlock*> dependents_;
  /// Every dependence edge in spawn order (one spawn's edges by ascending
  /// predecessor id). It is both the TDG's edge list (graph()) and the
  /// storage of the release chains (TaskBlock::succ_head). Appended under
  /// the graph mutex; completions index the entries of their chains.
  detail::SegmentedStore<detail::Edge> edges_;

  /// Spawn side, written by every spawning thread. The next task id:
  /// ids are reserved with one fetch_add, so it is also the count of
  /// tasks spawned.
  exec::detail::CachePadded<std::atomic<TaskId>> next_id_{0};
  /// Graph mutex: guards the dependence registry, the predecessor scratch
  /// list, dependents_ and edge-log appends, and the id order of dependent
  /// spawns (a dependent spawn reserves its id under it, so its
  /// predecessors always have smaller ids). Completions and dependence-free
  /// spawns never take it. An external dependent spawn takes the external
  /// store's mutex inside it; never the other way round.
  mutable std::mutex graph_mutex_;
  detail::EdgeId edge_count_ = 0;  ///< graph mutex
  DependenceRegistry registry_;
  std::vector<TaskId> preds_;  ///< spawn's reused predecessor scratch list

  /// Threads parked in taskwait(), written by each of them; every
  /// completion reads it. A completion checks the barrier, and wakes
  /// them, only while some thread is.
  exec::detail::CachePadded<std::atomic<unsigned>> barrier_waiters_{0};

  /// Owns the worker threads and the ready queues. Declared last so
  /// everything it may touch outlives it; the destructor additionally
  /// drains + shuts it down explicitly.
  exec::StealingExecutor executor_;
};

/// Parallel-for convenience built on the runtime: splits [begin, end) into
/// `chunks` tasks (no dependences) and taskwaits. Used by the mini-apps.
void parallel_for(Runtime& rt, std::size_t begin, std::size_t end,
                  std::size_t chunks,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace raa::rt
