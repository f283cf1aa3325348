#include "runtime/runtime.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"

namespace raa::rt {

namespace {
/// Identity of the task the current thread is executing, if any. Lets
/// silent_async() link children to their spawning task, corun() find the
/// join target, and taskwait() reject the guaranteed deadlock of being
/// called from inside one of this runtime's own task bodies (the barrier
/// would wait for the caller's own completion). Scoped per runtime so a
/// task body may drive a *different* runtime freely.
struct CurrentTask {
  Runtime* rt = nullptr;
  detail::TaskBlock* task = nullptr;
};
thread_local CurrentTask t_current;
}  // namespace

Runtime::Runtime(RuntimeOptions options)
    : options_(options),
      epoch_(std::chrono::steady_clock::now()),
      executed_(std::make_unique<Counter[]>(options.num_workers + 1)),
      executor_({.num_workers = options.num_workers, .seed = options.seed},
                [this](void* t, unsigned w) {
                  execute(static_cast<detail::TaskBlock*>(t), w);
                }) {
  // Expose the per-runtime task counters through the obs registry as
  // external gauges (summed across live runtimes) so ablation_scheduler
  // and RuntimeStats read the very same cells — no duplicated counts.
  auto& reg = obs::Registry::instance();
  obs_spawned_token_ = reg.attach_external("rt.tasks_spawned", [this] {
    return std::uint64_t{next_id_.load(std::memory_order_relaxed)};
  });
  obs_executed_token_ =
      reg.attach_external("rt.tasks_executed", [this] { return executed(); });
}

Runtime::~Runtime() {
  taskwait();
  auto& reg = obs::Registry::instance();
  reg.detach_external(obs_spawned_token_);
  reg.detach_external(obs_executed_token_);
  // Stop + join the workers before any member is torn down; after this,
  // member destruction order is irrelevant.
  executor_.shutdown();
}

std::uint64_t Runtime::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

detail::TaskBlock& Runtime::new_block(detail::TaskBody&& body,
                                      TaskAttrs&& attrs) {
  const TaskId id = next_id_.fetch_add(1, std::memory_order_seq_cst);
  RAA_CHECK(id != kNoTask);  // ids fit
  return tasks_.emplace(id, id, std::move(body), std::move(attrs));
}

TaskId Runtime::spawn_impl(std::span<const Dep> deps, detail::TaskBody&& body,
                           TaskAttrs&& attrs, bool nested) {
  RAA_CHECK(body);
  // Spawns from a worker thread go to that worker's own deque (lock-free
  // owner push); external threads use the injection queue.
  const unsigned hint = executor_.current_worker();
  // Ranges are checked before an id is reserved: a spawn that throws must
  // leave no task behind for taskwait() to wait on forever.
  constexpr auto kTop = std::numeric_limits<std::uintptr_t>::max();
  bool dependent = false;
  for (const Dep& d : deps) {
    RAA_CHECK_MSG(d.bytes <= kTop - d.base,
                  "dependence range wraps around the address space");
    dependent = dependent || d.bytes != 0;
  }
  if (!dependent) {
    // Nothing to register and no edges: ready at once, no lock.
    detail::TaskBlock& t = new_block(std::move(body), std::move(attrs));
    if (nested && t_current.rt == this && t_current.task != nullptr) {
      t.parent = t_current.task;
      const std::uint32_t before =
          t.parent->children.fetch_add(1, std::memory_order_relaxed);
      RAA_CHECK((before & detail::TaskBlock::kJoinParked) == 0 &&
                before + 1 < detail::TaskBlock::kJoinParked);
    }
    const TaskId id = t.id;
    executor_.submit(&t, hint);  // submit wakes a parked thread itself
    RAA_OBS_HOST_EVENT(rt, task_spawn, instant, static_cast<std::uint64_t>(id),
                       0);
    return id;
  }

  std::unique_lock lock{graph_mutex_};
  detail::TaskBlock& t = new_block(std::move(body), std::move(attrs));
  const TaskId id = t.id;
  preds_.clear();
  registry_.register_task(id, deps, preds_);
  const std::size_t npreds = preds_.size();

  // Log every edge, and link it onto the release chain of its predecessor
  // unless that one has finished (closed its chain). The guard keeps
  // pending_preds above zero until the links are counted below.
  RAA_CHECK(npreds < detail::kClosed - edge_count_);  // ids fit
  t.pending_preds.store(static_cast<std::uint32_t>(npreds) + 1,
                        std::memory_order_relaxed);
  std::uint32_t settled = 1;  // the guard, plus every finished predecessor
  for (const TaskId p : preds_) {
    const detail::EdgeId e = edge_count_++;
    detail::Edge& edge = edges_.emplace(e, detail::Edge{p, id});
    // Acquire on reading kClosed: this task is ordered after the
    // predecessor's body even when this spawn is what pushes it.
    std::atomic<detail::EdgeId>& head = tasks_[p].succ_head;
    detail::EdgeId next = head.load(std::memory_order_acquire);
    if (next != detail::kClosed) {
      edge.next = next;
      // Release: the completion that detaches the edge sees `t` and `edge`.
      // Only that completion can change `head` meanwhile, so a failed CAS
      // means the predecessor just finished.
      if (head.compare_exchange_strong(next, e, std::memory_order_release,
                                       std::memory_order_acquire))
        continue;
      RAA_CHECK(next == detail::kClosed);
    }
    ++settled;
  }
  lock.unlock();

  const std::uint32_t before =
      t.pending_preds.fetch_sub(settled, std::memory_order_acq_rel);
  RAA_CHECK(before >= settled);
  if (before == settled) executor_.submit(&t, hint);
  RAA_OBS_HOST_EVENT(rt, task_spawn, instant, static_cast<std::uint64_t>(id),
                     npreds);
  return id;
}

void Runtime::execute(detail::TaskBlock* task, unsigned worker_id) {
  TraceRecord& rec = task->trace;
  rec.task = task->id;
  rec.worker = worker_id;
  rec.start_ns = now_ns();
  {
    const CurrentTask outer = t_current;
    t_current = CurrentTask{this, task};
    task->body();
    // Implicit join: children spawned via silent_async() that the body
    // did not corun() must finish before this task completes and its
    // dependants are released.
    corun_children(task, worker_id);
    t_current = outer;
  }
  rec.end_ns = now_ns();
  RAA_OBS_HOST_EVENT(rt, task_run, complete, rec.end_ns - rec.start_ns,
                     static_cast<std::uint64_t>(task->id));
  task->body.reset();  // release captured state before completing

  // Close the release chain (publishing `rec` to trace() and graph()) and
  // detach it. It lists the successors newest first: reverse it in place
  // to release them in spawn order.
  detail::EdgeId e =
      task->succ_head.exchange(detail::kClosed, std::memory_order_acq_rel);
  detail::EdgeId spawn_order = detail::kNoEdge;
  while (e != detail::kNoEdge) {
    const detail::EdgeId older = std::exchange(edges_[e].next, spawn_order);
    spawn_order = e;
    e = older;
  }
  for (e = spawn_order; e != detail::kNoEdge; e = edges_[e].next) {
    detail::TaskBlock& succ = tasks_[edges_[e].to];
    const std::uint32_t before =
        succ.pending_preds.fetch_sub(1, std::memory_order_acq_rel);
    RAA_CHECK(before > 0);
    if (before == 1) executor_.submit(&succ, worker_id);
  }

  exec::Notifier& notifier = executor_.notifier();
  if (task->parent != nullptr) {
    // Release: the parent's acquire load of 0 sees this body's writes.
    const std::uint32_t before =
        task->parent->children.fetch_sub(1, std::memory_order_acq_rel);
    RAA_CHECK((before & ~detail::TaskBlock::kJoinParked) > 0);
    // The last child of a parked join wakes it.
    if (before == (detail::TaskBlock::kJoinParked | 1)) notifier.notify_all();
  }
  executed_[worker_id].fetch_add(1, std::memory_order_seq_cst);
  if (barrier_waiters_.load(std::memory_order_seq_cst) > 0 &&
      barrier_reached())
    notifier.notify_all();
}

detail::TaskBlock* Runtime::try_pop(unsigned worker_id) {
  return static_cast<detail::TaskBlock*>(executor_.try_pop(worker_id));
}

bool Runtime::run_one(unsigned worker_id) {
  detail::TaskBlock* t = try_pop(worker_id);
  if (t == nullptr) return false;
  execute(t, worker_id);
  return true;
}

void Runtime::corun() {
  if (t_current.rt != this || t_current.task == nullptr) {
    taskwait();
    return;
  }
  corun_children(t_current.task, executor_.current_worker());
}

void Runtime::corun_children(detail::TaskBlock* task, unsigned worker_id) {
  exec::Notifier& notifier = executor_.notifier();
  while (task->children.load(std::memory_order_acquire) != 0) {
    // Children outstanding: help run ready tasks (our children, or
    // anything else — stealing unrelated work is what keeps every
    // worker busy during a join).
    if (run_one(worker_id)) continue;
    // Nothing ready: park until a push or the last child's completion.
    // Setting kJoinParked after prepare_wait() makes the last child see
    // it and notify, unless the count was already 0 when it was set.
    const std::uint64_t epoch = notifier.prepare_wait();
    const bool drained =
        task->children.fetch_or(detail::TaskBlock::kJoinParked,
                                std::memory_order_acq_rel) == 0;
    detail::TaskBlock* t = drained ? nullptr : try_pop(worker_id);
    if (drained || t != nullptr)
      notifier.cancel_wait();
    else
      notifier.commit_wait(epoch);
    task->children.fetch_and(~detail::TaskBlock::kJoinParked,
                             std::memory_order_relaxed);
    if (t != nullptr) execute(t, worker_id);
  }
}

void Runtime::taskwait() {
  RAA_CHECK_MSG(t_current.rt != this,
                "taskwait() called from inside a task body; the barrier "
                "covers all tasks and would deadlock — use corun() for a "
                "nested join");
  // The caller helps execute tasks (worker id = num_workers: the shared
  // "external" slot of the executor).
  const unsigned self = executor_.current_worker();
  exec::Notifier& notifier = executor_.notifier();
  for (;;) {
    if (run_one(self)) continue;
    // Nothing ready: park until a push or the completion that reaches the
    // barrier. Counting ourselves in barrier_waiters_ first makes that
    // completion check the barrier, unless this check sees it reached.
    barrier_waiters_.fetch_add(1, std::memory_order_seq_cst);
    const std::uint64_t epoch = notifier.prepare_wait();
    const bool done = barrier_reached();
    detail::TaskBlock* t = done ? nullptr : try_pop(self);
    if (done || t != nullptr)
      notifier.cancel_wait();
    else
      notifier.commit_wait(epoch);
    barrier_waiters_.fetch_sub(1, std::memory_order_relaxed);
    if (done) return;
    if (t != nullptr) execute(t, self);
  }
}

std::uint64_t Runtime::executed() const noexcept {
  std::uint64_t sum = 0;
  for (unsigned w = 0; w <= options_.num_workers; ++w)
    sum += executed_[w].load(std::memory_order_seq_cst);
  return sum;
}

bool Runtime::barrier_reached() const noexcept {
  // Executed counts first: a task is counted spawned before it can be
  // counted executed, so equal sums read in this order mean every task
  // spawned before the last read had finished by the first one.
  const std::uint64_t done = executed();
  return done == next_id_.load(std::memory_order_seq_cst);
}

tdg::Graph Runtime::graph() const {
  const std::scoped_lock lock{graph_mutex_};
  tdg::Graph g;
  const TaskId n = next_id_.load(std::memory_order_acquire);
  for (TaskId id = 0; id < n; ++id) {
    const detail::TaskBlock* t = tasks_.find(id);
    if (t == nullptr) {
      // Reserved by a dependence-free spawn still constructing its block.
      g.add_node(1.0);
      continue;
    }
    double cost = t->attrs.cost_hint;
    if (cost <= 0.0)
      // The measured duration once finished (>= 1 ns so graph analyses
      // never see zero-cost nodes), else a placeholder of 1.
      cost = t->finished()
                 ? std::max<double>(1.0, static_cast<double>(
                                             t->trace.end_ns -
                                             t->trace.start_ns))
                 : 1.0;
    g.add_node(cost, t->attrs.label,
               t->attrs.criticality == Criticality::critical);
  }
  for (detail::EdgeId e = 0; e < edge_count_; ++e)
    g.add_edge(edges_[e].from, edges_[e].to);
  return g;
}

std::vector<TraceRecord> Runtime::trace() const {
  std::vector<TraceRecord> out;
  out.reserve(static_cast<std::size_t>(executed()));
  const TaskId n = next_id_.load(std::memory_order_acquire);
  for (TaskId id = 0; id < n; ++id) {
    const detail::TaskBlock* t = tasks_.find(id);
    if (t != nullptr && t->finished()) out.push_back(t->trace);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.end_ns < b.end_ns;
                   });
  return out;
}

RuntimeStats Runtime::stats() const {
  // Executed first, so a snapshot never shows more executed than spawned.
  const std::uint64_t executed_tasks = executed();
  const std::uint64_t spawned = next_id_.load(std::memory_order_seq_cst);
  const std::scoped_lock lock{graph_mutex_};
  return RuntimeStats{spawned, executed_tasks, edge_count_,
                      executor_.steal_count()};
}

void parallel_for(Runtime& rt, std::size_t begin, std::size_t end,
                  std::size_t chunks,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  RAA_CHECK(begin <= end && chunks > 0);
  const std::size_t n = end - begin;
  const std::size_t chunk = (n + chunks - 1) / chunks;
  for (std::size_t lo = begin; lo < end; lo += chunk) {
    const std::size_t hi = std::min(end, lo + chunk);
    rt.spawn([body, lo, hi] { body(lo, hi); });
  }
  rt.taskwait();
}

}  // namespace raa::rt
