#include "exec/stealing.hpp"

#include <string>
#include <thread>

#include "common/check.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"

namespace raa::exec {

namespace {
/// Owner identity of the current thread: set for the lifetime of a
/// worker_loop, so submit() can prove an owner-deque push is legal and
/// current_worker() can answer without a map lookup.
thread_local const StealingExecutor* t_exec = nullptr;
thread_local unsigned t_worker = 0;

/// Failed-acquire yields before a worker parks on the notifier. Short:
/// parking is cheap (one mutex + condvar), and on a host with fewer
/// hardware threads than runnable workers (shared vCPUs, or more workers
/// than cores as in the parking tests) a spinning worker takes time from
/// the thread that would produce its work.
constexpr int kYieldRounds = 16;

/// Full sweeps over every victim before a failed steal gives up.
constexpr unsigned kStealRounds = 2;
}  // namespace

StealingExecutor::StealingExecutor(Options options, RunFn run)
    : options_(options), run_(std::move(run)) {
  RAA_CHECK(run_ != nullptr);
  const unsigned n = options_.num_workers;
  deques_.reserve(n + 1);
  rng_.reserve(n);
  std::uint64_t sm = options_.seed;
  for (unsigned w = 0; w < n; ++w) {
    deques_.push_back(std::make_unique<Deque>());
    rng_.emplace_back(splitmix64(sm));  // deterministic per-worker stream
  }
  deques_.push_back(std::make_unique<Deque>());  // the injection queue
  steals_ = std::make_unique<Counter[]>(n + 1);
  // Surface the per-slot cells in the counter registry without copying
  // them: an external gauge summed under "exec.steals" across all live
  // executors. Detached in shutdown(), before any member is torn down.
  obs_token_ = obs::Registry::instance().attach_external(
      "exec.steals", [this] { return steal_count(); });
  try {
    threads_.reserve(n);
    for (unsigned w = 0; w < n; ++w)
      threads_.emplace_back(
          [this, w](std::stop_token stop) { worker_loop(stop, w); });
  } catch (...) {
    // Thread exhaustion mid-start: stop, wake and join the workers that
    // did start, and detach the gauge before the members die.
    shutdown();
    throw;
  }
}

StealingExecutor::~StealingExecutor() { shutdown(); }

void StealingExecutor::shutdown() {
  if (obs_token_ != 0) {
    // After detach returns, no snapshot is mid-call into our gauge.
    obs::Registry::instance().detach_external(obs_token_);
    obs_token_ = 0;
  }
  for (auto& t : threads_) t.request_stop();
  notifier_.notify_all();
  for (auto& t : threads_)
    if (t.joinable()) t.join();
  threads_.clear();
}

unsigned StealingExecutor::current_worker() const noexcept {
  return t_exec == this ? t_worker : options_.num_workers;
}

void StealingExecutor::submit(void* item, unsigned hint) {
  RAA_CHECK(item != nullptr);
  if (hint < options_.num_workers && t_exec == this && t_worker == hint) {
    deques_[hint]->push(item);  // owner push: lock-free fast path
  } else {
    const std::scoped_lock lock{inject_mutex_};
    deques_[options_.num_workers]->push(item);
  }
  notifier_.notify_one();
}

void* StealingExecutor::pop_own(unsigned worker) {
  if (worker < options_.num_workers) return deques_[worker]->pop();
  const std::scoped_lock lock{inject_mutex_};
  return deques_[options_.num_workers]->pop();
}

void* StealingExecutor::try_pop(unsigned worker) {
  const unsigned n = options_.num_workers;
  const unsigned self = worker <= n ? worker : n;
  if (void* item = pop_own(self)) return item;
  return steal_sweep(self);
}

void* StealingExecutor::steal_sweep(unsigned self) {
  RAA_OBS_HOST_EVENT(exec, steal_attempt, instant, self, 0);
  const unsigned n = options_.num_workers;
  // Victim space: the n worker deques plus the injection queue as victim
  // index n (stolen FIFO, without its lock — oldest external submission
  // first).
  const unsigned victims = n + 1;
  for (unsigned round = 0; round < kStealRounds; ++round) {
    // Randomized start breaks convoys. Workers draw from their own
    // deterministic stream; external threads share a rotating counter
    // (their victim order is not part of any determinism contract).
    unsigned start = 0;
    if (self < n)
      start = static_cast<unsigned>(rng_[self].below(victims));
    else
      start = static_cast<unsigned>(
          ext_start_.fetch_add(1, std::memory_order_relaxed) % victims);
    for (unsigned k = 0; k < victims; ++k) {
      const unsigned v = (start + k) % victims;
      if (v == self) continue;
      void* item = deques_[v]->steal();
      if (item != nullptr) {
        steals_[self].fetch_add(1, std::memory_order_relaxed);
        RAA_OBS_HOST_EVENT(exec, steal_success, instant, self, v);
        return item;
      }
    }
  }
  return nullptr;
}

std::uint64_t StealingExecutor::steal_count() const noexcept {
  std::uint64_t total = 0;
  for (unsigned w = 0; w <= options_.num_workers; ++w)
    total += steals_[w].load(std::memory_order_relaxed);
  return total;
}

void StealingExecutor::worker_loop(std::stop_token stop, unsigned w) {
  t_exec = this;
  t_worker = w;
#if RAA_OBS_ENABLED
  obs::set_thread_name("exec-w" + std::to_string(w));
#endif
  while (!stop.stop_requested()) {
    if (void* item = try_pop(w)) {
      run_(item, w);
      continue;
    }
    // Brief yield backoff: absorbs the push-right-after-empty-check
    // window without the full park/unpark round trip.
    void* item = nullptr;
    for (int i = 0; i < kYieldRounds && item == nullptr; ++i) {
      std::this_thread::yield();
      item = try_pop(w);
    }
    if (item != nullptr) {
      run_(item, w);
      continue;
    }
    // Two-phase park. The stop re-check sits after prepare_wait():
    // shutdown() requests the stop *before* notify_all(), so either we
    // read the flag here, or our epoch ticket predates the bump and
    // commit_wait() returns immediately.
    const std::uint64_t epoch = notifier_.prepare_wait();
    if (stop.stop_requested()) {
      notifier_.cancel_wait();
      break;
    }
    item = try_pop(w);
    if (item != nullptr) {
      notifier_.cancel_wait();
      run_(item, w);
      continue;
    }
    RAA_OBS_HOST_EVENT(exec, worker_park, begin, w, 0);
    notifier_.commit_wait(epoch);
    RAA_OBS_HOST_EVENT(exec, worker_park, end, w, 0);
  }
  t_exec = nullptr;
}

}  // namespace raa::exec
