#include "runtime/scheduler.hpp"

#include "common/check.hpp"

namespace raa::rt {

Scheduler::Scheduler(SchedulerPolicy policy, unsigned num_workers,
                     std::uint64_t seed, RunFn run)
    : policy_(policy),
      num_workers_(num_workers),
      executor_(
          exec::StealingExecutor::Options{.num_workers = num_workers,
                                          .seed = seed},
          // Worker drain loop -> runtime task execution.
          [run = std::move(run)](void* item, unsigned w) {
            run(static_cast<detail::TaskBlock*>(item), w);
          },
          // Central policies park on the executor's notifier like
          // everyone else; its workers reach the central queues through
          // this poll hook. Under work_stealing the deques are the only
          // source.
          policy == SchedulerPolicy::work_stealing
              ? exec::StealingExecutor::PollFn{}
              : [this](unsigned) -> void* { return pop_central(); }) {}

Scheduler::~Scheduler() { shutdown(); }

void Scheduler::shutdown() { executor_.shutdown(); }

unsigned Scheduler::current_worker() const noexcept {
  return executor_.current_worker();
}

void Scheduler::push(detail::TaskBlock* task, unsigned worker_hint) {
  RAA_CHECK(task != nullptr);
  switch (policy_) {
    case SchedulerPolicy::fifo:
    case SchedulerPolicy::lifo: {
      {
        const std::scoped_lock lock{central_mutex_};
        central_.push_back(task);
      }
      executor_.notify_one();
      return;
    }
    case SchedulerPolicy::criticality_first: {
      {
        const std::scoped_lock lock{central_mutex_};
        if (task->attrs.criticality == Criticality::critical)
          central_critical_.push_back(task);
        else
          central_.push_back(task);
      }
      executor_.notify_one();
      return;
    }
    case SchedulerPolicy::work_stealing:
      executor_.submit(task, worker_hint);
      return;
  }
}

detail::TaskBlock* Scheduler::pop(unsigned worker) {
  if (policy_ == SchedulerPolicy::work_stealing)
    return static_cast<detail::TaskBlock*>(executor_.try_pop(worker));
  // Central policies: external threads go straight to the central
  // queues — the executor's deques and injection queue are never used.
  return pop_central();
}

detail::TaskBlock* Scheduler::pop_central() {
  const std::scoped_lock lock{central_mutex_};
  if (!central_critical_.empty()) {
    detail::TaskBlock* t = central_critical_.front();
    central_critical_.pop_front();
    return t;
  }
  if (central_.empty()) return nullptr;
  detail::TaskBlock* t = nullptr;
  if (policy_ == SchedulerPolicy::lifo) {
    t = central_.back();
    central_.pop_back();
  } else {
    t = central_.front();
    central_.pop_front();
  }
  return t;
}

std::uint64_t Scheduler::steal_count() const noexcept {
  return executor_.steal_count();
}

}  // namespace raa::rt
