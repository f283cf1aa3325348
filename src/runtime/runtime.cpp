#include "runtime/runtime.hpp"

#include <algorithm>

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
      scheduler_(options.policy, options.num_workers, options.seed,
                 [this](detail::TaskBlock* t, unsigned w) {
                   run_popped(t, w);
                 }) {
  // Expose the per-runtime task counters through the obs registry as
  // external gauges (summed across live runtimes) so ablation_scheduler
  // and RuntimeStats read the very same cells — no duplicated counts.
  auto& reg = obs::Registry::instance();
  obs_spawned_token_ = reg.attach_external("rt.tasks_spawned", [this] {
    const std::scoped_lock lock{graph_mutex_};
    return spawned_;
  });
  obs_executed_token_ = reg.attach_external("rt.tasks_executed", [this] {
    const std::scoped_lock lock{graph_mutex_};
    return executed_;
  });
}

Runtime::~Runtime() {
  taskwait();
  auto& reg = obs::Registry::instance();
  reg.detach_external(obs_spawned_token_);
  reg.detach_external(obs_executed_token_);
  // Stop + join the workers before any member is torn down; after this,
  // member destruction order is irrelevant.
  scheduler_.shutdown();
}

std::uint64_t Runtime::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

TaskId Runtime::spawn_impl(std::span<const Dep> deps, detail::TaskBody&& body,
                           TaskAttrs&& attrs, bool nested) {
  RAA_CHECK(body);
  // Spawns from a worker thread go to that worker's own deque (lock-free
  // owner push under work stealing); external threads use the shared slot.
  const unsigned hint = scheduler_.current_worker();
  const std::scoped_lock lock{graph_mutex_};
  const auto id = static_cast<TaskId>(tasks_.size());
  detail::TaskBlock& t = tasks_.emplace_back();
  t.id = id;
  t.body = std::move(body);
  t.attrs = std::move(attrs);
  if (nested && t_current.rt == this && t_current.task != nullptr) {
    t.parent = t_current.task;
    t.parent->children.fetch_add(1, std::memory_order_relaxed);
  }
  ++spawned_;

  preds_.clear();
  registry_.register_task(id, deps, preds_);

  // Log every edge; an unfinished predecessor also gets the edge on the
  // tail of its release chain, so completion releases in spawn order.
  RAA_CHECK(preds_.size() < detail::kNoEdge - edges_.size());  // ids fit
  for (const TaskId p : preds_) {
    const auto e = static_cast<detail::EdgeId>(edges_.size());
    edges_.push_back({p, id, detail::kNoEdge});
    detail::TaskBlock& pred = tasks_[p];
    if (pred.finished) continue;
    if (pred.succ_tail == detail::kNoEdge)
      pred.succ_head = e;
    else
      edges_[pred.succ_tail].next = e;
    pred.succ_tail = e;
    ++t.pending_preds;
  }
  if (t.pending_preds == 0) {
    // Count before the push: once pushed, a worker may pop and decrement.
    ready_count_.fetch_add(1, std::memory_order_relaxed);
    scheduler_.push(&t, hint);  // push wakes a parked worker itself
  }
  RAA_OBS_HOST_EVENT(rt, task_spawn, instant, static_cast<std::uint64_t>(id),
                     preds_.size());
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

  bool wake = false;
  {
    const std::scoped_lock lock{graph_mutex_};
    task->finished = true;  // publishes `rec` to trace() and graph()
    ++executed_;
    for (detail::EdgeId e = task->succ_head; e != detail::kNoEdge;
         e = edges_[e].next) {
      detail::TaskBlock& succ = tasks_[edges_[e].to];
      RAA_CHECK(succ.pending_preds > 0);
      if (--succ.pending_preds == 0) {
        ready_count_.fetch_add(1, std::memory_order_relaxed);
        scheduler_.push(&succ, worker_id);
      }
    }
    bool joined = false;
    if (task->parent != nullptr) {
      // Release: the parent's acquire load of 0 sees this body's writes.
      const std::uint32_t before =
          task->parent->children.fetch_sub(1, std::memory_order_release);
      RAA_CHECK(before > 0);
      joined = before == 1;  // may unblock the parent's corun/join
    }
    // Workers park inside the executor and are woken by scheduler_.push();
    // done_cv_ wakes threads blocked in taskwait()/corun(), and only when
    // one of their predicates holds: a wakeup that would find none true
    // just parks again.
    wake = waiters_ > 0 &&
           (joined || executed_ == spawned_ ||
            ready_count_.load(std::memory_order_relaxed) > 0);
  }
  if (wake) done_cv_.notify_all();
}

void Runtime::run_popped(detail::TaskBlock* task, unsigned worker_id) {
  const std::uint64_t before =
      ready_count_.fetch_sub(1, std::memory_order_relaxed);
  RAA_CHECK(before > 0);
  execute(task, worker_id);
}

bool Runtime::run_one(unsigned worker_id) {
  detail::TaskBlock* t = scheduler_.pop(worker_id);
  if (t == nullptr) return false;
  run_popped(t, worker_id);
  return true;
}

void Runtime::corun() {
  if (t_current.rt != this || t_current.task == nullptr) {
    taskwait();
    return;
  }
  corun_children(t_current.task, scheduler_.current_worker());
}

void Runtime::corun_children(detail::TaskBlock* task, unsigned worker_id) {
  const auto drained = [task] {
    return task->children.load(std::memory_order_acquire) == 0;
  };
  while (!drained()) {
    // Children outstanding: help run ready tasks (our children, or
    // anything else — stealing unrelated work is what keeps every
    // worker busy during a join).
    if (run_one(worker_id)) continue;
    // Park. The last child's decrement happens under the graph mutex and
    // reads waiters_ in the same hold, so it either sees this waiter and
    // notifies, or has already drained the count this predicate reads.
    std::unique_lock lock{graph_mutex_};
    ++waiters_;
    done_cv_.wait(lock, [&] {
      return drained() || ready_count_.load(std::memory_order_relaxed) > 0;
    });
    --waiters_;
  }
}

void Runtime::taskwait() {
  RAA_CHECK_MSG(t_current.rt != this,
                "taskwait() called from inside a task body; the barrier "
                "covers all tasks and would deadlock — use corun() for a "
                "nested join");
  // The caller helps execute tasks (worker id = num_workers: the shared
  // "external" slot of the scheduler).
  const unsigned self = scheduler_.current_worker();
  for (;;) {
    if (run_one(self)) continue;
    std::unique_lock lock{graph_mutex_};
    if (executed_ == spawned_) return;
    // Nothing ready but tasks still in flight on workers: wait for a
    // completion that reaches the barrier or makes new tasks ready.
    ++waiters_;
    done_cv_.wait(lock, [&] {
      return executed_ == spawned_ ||
             ready_count_.load(std::memory_order_relaxed) > 0;
    });
    --waiters_;
    if (executed_ == spawned_) return;
  }
}

tdg::Graph Runtime::graph() const {
  const std::scoped_lock lock{graph_mutex_};
  tdg::Graph g;
  for (const detail::TaskBlock& t : tasks_) {
    double cost = t.attrs.cost_hint;
    if (cost <= 0.0)
      // The measured duration once finished (>= 1 ns so graph analyses
      // never see zero-cost nodes), else a placeholder of 1.
      cost = t.finished ? std::max<double>(1.0, static_cast<double>(
                                                    t.trace.end_ns -
                                                    t.trace.start_ns))
                        : 1.0;
    g.add_node(cost, t.attrs.label,
               t.attrs.criticality == Criticality::critical);
  }
  for (const detail::Edge& e : edges_) g.add_edge(e.from, e.to);
  return g;
}

std::vector<TraceRecord> Runtime::trace() const {
  const std::scoped_lock lock{graph_mutex_};
  std::vector<TraceRecord> out;
  out.reserve(static_cast<std::size_t>(executed_));
  for (const detail::TaskBlock& t : tasks_)
    if (t.finished) out.push_back(t.trace);
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.end_ns < b.end_ns;
                   });
  return out;
}

RuntimeStats Runtime::stats() const {
  const std::scoped_lock lock{graph_mutex_};
  return RuntimeStats{spawned_, executed_, edges_.size(),
                      scheduler_.steal_count()};
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
