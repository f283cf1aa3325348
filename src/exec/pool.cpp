#include "exec/pool.hpp"

#include <memory>
#include <utility>

#include "common/check.hpp"

namespace raa::exec {

Pool::Pool(unsigned workers)
    : exec_({.num_workers = workers}, [this](void* item, unsigned) {
        run(static_cast<Task*>(item));
      }) {}

Pool::~Pool() {
  exec_.shutdown();
  // Leftover tasks mean a group was destroyed without wait() — a contract
  // violation; its lambdas' captures may already dangle, so freeing them
  // unrun is the only safe option.
  while (void* item = exec_.try_pop(exec_.num_workers()))
    delete static_cast<Task*>(item);
}

void Pool::submit(Group& g, std::function<void()> fn) {
  RAA_CHECK(fn != nullptr);
  {
    // Pushed under the lock so a waiter's locked re-check of its own
    // source either sees the task or sleeps before the notify below.
    const std::scoped_lock lock{mutex_};
    exec_.submit(new Task{std::move(fn), &g, g.submitted++},
                 exec_.current_worker());
  }
  cv_.notify_all();
}

void Pool::run(Task* raw) {
  const std::unique_ptr<Task> task{raw};
  std::exception_ptr error;
  try {
    task->fn();
  } catch (...) {
    error = std::current_exception();
  }
  {
    const std::scoped_lock lock{mutex_};
    Group& g = *task->group;
    ++g.finished;
    if (error && (!g.error || task->index < g.error_index)) {
      // Move, don't share: the group's reference must be the only one, so
      // the exception object is freed by whoever finally takes it (the
      // waiter), never by a worker racing the waiter's rethrow-and-read.
      g.error = std::move(error);
      g.error_index = task->index;
    }
  }
  cv_.notify_all();
}

void Pool::help_while(const std::function<bool()>& not_ready) {
  const unsigned self = exec_.current_worker();
  std::unique_lock lock{mutex_};
  for (;;) {
    void* item = nullptr;
    // Every submission and completion notifies under this lock, so the
    // locked re-test cannot sleep through the predicate's flip or a task
    // arriving in our own source.
    cv_.wait(lock, [&] {
      return !not_ready() || (item = exec_.pop_own(self)) != nullptr;
    });
    if (item == nullptr) return;
    lock.unlock();
    run(static_cast<Task*>(item));
    lock.lock();
  }
}

std::exception_ptr Pool::take_error(Group& g) {
  const std::scoped_lock lock{mutex_};
  std::exception_ptr error = std::exchange(g.error, nullptr);
  g.submitted = 0;
  g.finished = 0;
  g.error_index = 0;
  return error;
}

void Pool::wait(Group& g) {
  if (std::exception_ptr error = wait_collect(g))
    std::rethrow_exception(error);
}

std::exception_ptr Pool::wait_collect(Group& g) {
  help_while([&] { return g.finished < g.submitted; });
  return take_error(g);
}

}  // namespace raa::exec
