// Tests of the grouped task pool (src/exec/pool.hpp): its work-helping
// waits, deterministic failure reporting and shutdown, and — most
// load-bearing — ordered_reduce's submission-order merge under adversarial
// completion order (the property every parallel consumer in the repo leans
// on for determinism). The executor underneath is tested in
// test_stealing.cpp.
//
// PoolStress scales with RAA_STRESS_ITERS (see the pool_stress CTest entry
// in tests/CMakeLists.txt, run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel.hpp"
#include "exec/pool.hpp"
#include "stress_budget.hpp"

namespace {

using raa::exec::Pool;
using raa::test_util::stress_iters;


TEST(PoolTest, RunsSubmittedTasks) {
  Pool pool{2};
  std::atomic<int> sum{0};
  Pool::Group g;
  for (int i = 1; i <= 100; ++i)
    pool.submit(g, [&sum, i] { sum.fetch_add(i); });
  pool.wait(g);
  EXPECT_EQ(sum.load(), 5050);
}

TEST(PoolTest, ZeroWorkersRunsEverythingInlineInWait) {
  // A pool without threads is a valid serial executor: the waiting thread
  // runs every task itself, each exactly once. (The order is the
  // executor's: ordered_reduce merges by index, not by run order.)
  Pool pool{0};
  std::vector<int> runs(8, 0);
  std::vector<std::thread::id> ran_on;
  Pool::Group g;
  for (std::size_t i = 0; i < runs.size(); ++i)
    pool.submit(g, [&, i] {
      ++runs[i];
      ran_on.push_back(std::this_thread::get_id());
    });
  pool.wait(g);
  for (int n : runs) EXPECT_EQ(n, 1);
  ASSERT_EQ(ran_on.size(), runs.size());
  for (const auto& id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(PoolTest, NestedSubmissionDoesNotStarve) {
  // A task submits subtasks to its own (single-worker) pool and waits on
  // them; the helping wait runs them instead of deadlocking.
  Pool pool{1};
  std::atomic<int> inner_done{0};
  Pool::Group outer;
  pool.submit(outer, [&] {
    Pool::Group inner;
    for (int i = 0; i < 4; ++i)
      pool.submit(inner, [&] { inner_done.fetch_add(1); });
    pool.wait(inner);
  });
  pool.wait(outer);
  EXPECT_EQ(inner_done.load(), 4);
}

TEST(PoolTest, ReuseAcrossRuns) {
  // One pool serves many submit/wait rounds (every bench unit and fleet
  // job reuses the pool it is handed).
  Pool pool{2};
  long total = 0;
  for (int round = 0; round < 20; ++round) {
    std::atomic<long> sum{0};
    Pool::Group g;
    for (int i = 0; i < 32; ++i) pool.submit(g, [&sum] { sum.fetch_add(1); });
    pool.wait(g);
    total += sum.load();
  }
  EXPECT_EQ(total, 20 * 32);
}

TEST(PoolTest, FailedGroupRunsEveryTaskAndPoolStaysUsable) {
  Pool pool{2};
  std::atomic<int> ran{0};
  Pool::Group g;
  for (int i = 0; i < 10; ++i)
    pool.submit(g, [&ran, i] {
      ran.fetch_add(1);
      if (i == 5) throw std::runtime_error("boom");
    });
  EXPECT_THROW(pool.wait(g), std::runtime_error);
  // Every task still ran (a failure does not cancel its siblings)...
  EXPECT_EQ(ran.load(), 10);
  // ...waiting the reset group is a no-op, and both the group and the
  // pool are reusable afterwards.
  pool.wait(g);
  std::atomic<int> after{0};
  for (int i = 0; i < 10; ++i) pool.submit(g, [&after] { after.fetch_add(1); });
  pool.wait(g);
  EXPECT_EQ(after.load(), 10);
}

TEST(PoolTest, WaitRethrowsLowestIndexErrorUnderAdversarialTiming) {
  // Two tasks fail; the lower submission index is reported regardless of
  // which failure was *observed* first.
  Pool pool{4};
  for (int attempt = 0; attempt < 10; ++attempt) {
    Pool::Group g;
    for (int i = 0; i < 8; ++i)
      pool.submit(g, [i] {
        if (i == 2) {
          std::this_thread::sleep_for(std::chrono::milliseconds(3));
          throw std::runtime_error("early-index, late-finishing");
        }
        if (i == 6) throw std::runtime_error("late-index, fast-failing");
      });
    try {
      pool.wait(g);
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "early-index, late-finishing");
    }
  }
}

TEST(OrderedReduce, MergesInSubmissionOrderUnderAdversarialJitter) {
  // Tasks finish in roughly *reverse* submission order (later tasks sleep
  // less); the merge must still observe 0, 1, 2, ... n-1.
  Pool pool{4};
  constexpr std::size_t n = 24;
  std::vector<std::size_t> merged;
  raa::exec::ordered_reduce<std::size_t>(
      pool, n,
      [&](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(200 * (n - i)));
        return i;
      },
      [&](std::size_t i, std::size_t&& value) {
        EXPECT_EQ(i, value);
        merged.push_back(value);
      });
  ASSERT_EQ(merged.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(merged[i], i);
}

TEST(OrderedReduce, MergePrefixSurvivesTaskFailure) {
  // Task 5 throws: results 0..4 still merge, everything still runs, and
  // the exception surfaces after the prefix.
  Pool pool{2};
  std::vector<std::size_t> merged;
  std::atomic<int> ran{0};
  EXPECT_THROW(raa::exec::ordered_reduce<std::size_t>(
                   pool, 10,
                   [&](std::size_t i) {
                     ran.fetch_add(1);
                     if (i == 5) throw std::runtime_error("task 5");
                     return i;
                   },
                   [&](std::size_t, std::size_t&& v) { merged.push_back(v); }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 10);
  ASSERT_EQ(merged.size(), 5u);
  for (std::size_t i = 0; i < merged.size(); ++i) EXPECT_EQ(merged[i], i);
}

TEST(OrderedReduce, WorksOnZeroWorkerPool) {
  Pool pool{0};
  long sum = 0;
  raa::exec::ordered_reduce<long>(
      pool, 100, [](std::size_t i) { return static_cast<long>(i); },
      [&](std::size_t, long&& v) { sum += v; });
  EXPECT_EQ(sum, 4950);
}

TEST(PoolShutdown, DropsPendingTasksOnZeroWorkerPool) {
  // Destroying a pool with tasks still queued (a violated Group contract)
  // must drop them unrun — deterministically observable on a zero-worker
  // pool, where nothing else could possibly run them.
  std::atomic<int> ran{0};
  Pool::Group g;  // outlives the pool on purpose
  {
    Pool pool{0};
    for (int i = 0; i < 16; ++i) pool.submit(g, [&ran] { ++ran; });
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(PoolShutdown, JoinsWorkersWithJobsStillQueued) {
  // Shutdown racing a half-drained queue: the dtor must stop and join the
  // workers without running the whole backlog or deadlocking. Counts are
  // loose by design — TSan value is the clean teardown, not a number.
  std::atomic<int> ran{0};
  Pool::Group g;
  {
    Pool pool{2};
    for (int i = 0; i < 64; ++i)
      pool.submit(g, [&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++ran;
      });
  }
  EXPECT_LE(ran.load(), 64);
}

TEST(PoolTest, HelpWhileRunsTasksUntilConditionFlips) {
  // help_while on a zero-worker pool must run the queued task that flips
  // the condition (this is how ordered_reduce waits for each result).
  Pool pool{0};
  bool ready = false;
  Pool::Group g;
  pool.submit(g, [&ready] { ready = true; });
  pool.help_while([&] { return !ready; });
  EXPECT_TRUE(ready);
  pool.wait(g);
}

TEST(PoolStress, NestedOrderedReduceWithJitterAndFailures) {
  // ordered_reduce inside ordered_reduce on two workers plus the waiting
  // thread: inner submissions land in whichever thread runs the outer
  // task, waiters help only from their own source, and two outer tasks
  // fail through an inner task each. Every round must merge the prefix
  // below the lower failure in order, rethrow that failure, and leave the
  // pool usable for the next round.
  constexpr std::size_t kOuter = 6;
  constexpr std::size_t kInner = 4;
  Pool pool{2};
  const unsigned rounds = stress_iters(4000) / 100;
  for (unsigned r = 0; r < rounds; ++r) {
    const std::size_t fail_at = r % (kOuter + 1);  // kOuter: no failure
    std::vector<std::size_t> merged;
    const auto jitter = [r](std::size_t i, std::size_t j) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(40 * ((i * 7 + j * 3 + r) % 5)));
    };
    try {
      raa::exec::ordered_reduce<std::size_t>(
          pool, kOuter,
          [&](std::size_t i) {
            std::size_t sum = 0;
            raa::exec::ordered_reduce<std::size_t>(
                pool, kInner,
                [&](std::size_t j) {
                  jitter(i, j);
                  if (j == kInner - 1 && (i == fail_at || i == fail_at + 2))
                    throw std::runtime_error("outer " + std::to_string(i));
                  return i * kInner + j;
                },
                [&](std::size_t j, std::size_t&& v) {
                  EXPECT_EQ(v, i * kInner + j);
                  sum += v;
                });
            return sum;
          },
          [&](std::size_t i, std::size_t&& sum) {
            EXPECT_EQ(sum, i * kInner * kInner + kInner * (kInner - 1) / 2);
            merged.push_back(i);
          });
      EXPECT_EQ(fail_at, kOuter) << "round " << r << " should have thrown";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string{e.what()}, "outer " + std::to_string(fail_at));
    }
    ASSERT_EQ(merged.size(), fail_at) << "round " << r;
    for (std::size_t i = 0; i < merged.size(); ++i) EXPECT_EQ(merged[i], i);
  }
}

}  // namespace
