// Work-stealing executor tests (exec/wsq.hpp, exec/stealing.hpp) and the
// StealEquivalence determinism contract.
//
//  * WorkStealingDeque: owner LIFO / thief FIFO semantics, ring growth,
//    and owner/thief interleaving stress — spawn storms, steal-all
//    drains, and the single-element pop-vs-steal race (exactly one side
//    may win, nothing is ever lost or duplicated).
//  * Notifier / StealingExecutor: parked workers wake on submission,
//    nested submits from inside workers (owner-deque pushes) all run.
//  * CacheLayout: the padded slot type and the line-aligned classes that
//    keep each writer's words on cache lines of their own.
//  * Runtime nested spawn: silent_async() children join implicitly at
//    body end, corun() joins cooperatively mid-body, recursive
//    divide-and-conquer (fib) is correct at every worker count.
//  * RuntimeLifecycleStress: nested fib beside a dependence wavefront on
//    3 workers, against serial references, RAA_STRESS_ITERS rounds with a
//    fresh executor seed each.
//  * RuntimeReleaseRace / RuntimeParking: lock-free releases against
//    concurrent links, every edge checked against the trace; wakeups of
//    parked joins and barriers; readers during lock-free spawns.
//  * StealEquivalence: the captured TDG — and every simulated metric
//    raa::sim::replay derives from it (the fig5/ablation_scheduler
//    pipeline) — is field-identical no matter how many host workers
//    executed the tasks or who stole what. Host scheduling decides
//    wall-clock only; simulated numbers must not move. The graphs of the
//    mixed program and of a fan-out/fan-in program are also pinned as
//    text against a checked-in golden.
//
// Stress iteration counts scale with RAA_STRESS_ITERS (see the
// stealing_stress CTest entry in tests/CMakeLists.txt, run under TSan
// in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "apps/miniapps.hpp"
#include "common/rng.hpp"
#include "exec/stealing.hpp"
#include "exec/wsq.hpp"
#include "golden_testing.hpp"
#include "runtime/runtime.hpp"
#include "simcore/tdg_sim.hpp"
#include "stress_budget.hpp"

namespace {

using raa::exec::StealingExecutor;
using raa::exec::WorkStealingDeque;
using raa::rt::Runtime;
using raa::rt::RuntimeOptions;
using raa::test_util::stress_iters;

void spin_until(const std::function<bool()>& pred) {
  while (!pred()) std::this_thread::yield();
}

// --- WorkStealingDeque ----------------------------------------------------

TEST(WorkStealingDeque, OwnerPopsLifoThievesStealFifo) {
  int vals[6] = {0, 1, 2, 3, 4, 5};
  WorkStealingDeque<int*> dq;
  EXPECT_TRUE(dq.empty());
  EXPECT_EQ(dq.pop(), nullptr);
  EXPECT_EQ(dq.steal(), nullptr);

  for (int& v : vals) dq.push(&v);
  EXPECT_EQ(dq.size(), 6);
  EXPECT_EQ(*dq.pop(), 5);      // owner side: newest first
  EXPECT_EQ(*dq.steal(), 0);    // thief side: oldest first
  EXPECT_EQ(*dq.steal(), 1);
  EXPECT_EQ(*dq.pop(), 4);
  EXPECT_EQ(*dq.pop(), 3);
  EXPECT_EQ(*dq.pop(), 2);
  EXPECT_EQ(dq.pop(), nullptr);
  EXPECT_TRUE(dq.empty());
}

TEST(WorkStealingDeque, GrowsPastInitialCapacityWithoutLoss) {
  const int n = 1000;
  std::vector<int> vals(n);
  std::iota(vals.begin(), vals.end(), 0);
  WorkStealingDeque<int*> dq{2};  // force repeated doubling
  EXPECT_EQ(dq.capacity(), 2);
  for (int& v : vals) dq.push(&v);
  EXPECT_GE(dq.capacity(), n);
  for (int i = n - 1; i >= 0; --i) {
    int* p = dq.pop();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, i);  // LIFO, contents intact across growth
  }
  EXPECT_EQ(dq.pop(), nullptr);
}

// Spawn storm: the owner pushes (and occasionally pops) while thieves
// steal everything they can. Every item must be consumed exactly once.
TEST(WorkStealingDeque, OwnerThiefInterleavingStress) {
  const unsigned n = stress_iters(20000);
  const unsigned kThieves = 3;
  std::vector<int> items(n);
  std::iota(items.begin(), items.end(), 0);
  std::vector<std::atomic<int>> seen(n);
  std::atomic<unsigned> consumed{0};

  WorkStealingDeque<int*> dq{4};  // small: growth under contention
  const auto consume = [&](int* p) {
    seen[static_cast<unsigned>(*p)].fetch_add(1, std::memory_order_relaxed);
    consumed.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::jthread> thieves;
  for (unsigned t = 0; t < kThieves; ++t)
    thieves.emplace_back([&] {
      while (consumed.load(std::memory_order_relaxed) < n) {
        if (int* p = dq.steal())
          consume(p);
        else
          std::this_thread::yield();
      }
    });

  // Owner: push all, popping every few pushes (interleaves the bottom
  // index against in-flight steals), then drain.
  for (unsigned i = 0; i < n; ++i) {
    dq.push(&items[i]);
    if (i % 5 == 4) {
      if (int* p = dq.pop()) consume(p);
    }
  }
  while (consumed.load(std::memory_order_relaxed) < n) {
    if (int* p = dq.pop())
      consume(p);
    else
      std::this_thread::yield();
  }
  thieves.clear();  // join

  EXPECT_EQ(consumed.load(), n);
  for (unsigned i = 0; i < n; ++i)
    EXPECT_EQ(seen[i].load(), 1) << "item " << i;
  EXPECT_TRUE(dq.empty());
}

// The classic Chase–Lev hazard: one element left, owner pop races a
// thief steal. Exactly one side must win every round.
TEST(WorkStealingDeque, SingleElementPopStealRace) {
  const unsigned rounds = stress_iters(20000) / 40;  // default 500
  WorkStealingDeque<int*> dq;
  int x = 42;
  unsigned owner_wins = 0;
  std::atomic<unsigned> thief_wins{0};
  std::barrier<> sync{2};

  std::jthread thief([&] {
    for (unsigned r = 0; r < rounds; ++r) {
      sync.arrive_and_wait();  // item is in
      if (dq.steal() != nullptr) thief_wins.fetch_add(1);
      sync.arrive_and_wait();  // round settled
    }
  });
  for (unsigned r = 0; r < rounds; ++r) {
    dq.push(&x);
    sync.arrive_and_wait();
    if (dq.pop() != nullptr) ++owner_wins;
    sync.arrive_and_wait();
    ASSERT_TRUE(dq.empty());
  }
  thief.join();
  EXPECT_EQ(owner_wins + thief_wins.load(), rounds);
}

// --- Notifier -------------------------------------------------------------

TEST(Notifier, TwoPhaseParkWakesOnNotify) {
  raa::exec::Notifier n;
  std::atomic<bool> flag{false};
  std::atomic<bool> parked_once{false};
  std::jthread consumer([&] {
    for (;;) {
      if (flag.load(std::memory_order_acquire)) return;
      const std::uint64_t e = n.prepare_wait();
      if (flag.load(std::memory_order_acquire)) {  // re-check after announce
        n.cancel_wait();
        return;
      }
      parked_once.store(true, std::memory_order_release);
      n.commit_wait(e);
    }
  });
  spin_until([&] { return parked_once.load(std::memory_order_acquire); });
  flag.store(true, std::memory_order_release);
  n.notify_one();  // a lost wakeup here would hang the join below
  consumer.join();
}

// --- Cache-line layout ----------------------------------------------------

// Each group of words that one kind of thread writes starts with a
// CachePadded member, so it owns its lines: the wrapper starts a line and
// fills its last one, and the classes holding such groups are line-aligned.
using raa::exec::detail::CachePadded;
using raa::exec::detail::kCacheLine;

template <class T>
constexpr bool owns_its_lines =
    alignof(T) == kCacheLine && sizeof(T) % kCacheLine == 0;

static_assert(owns_its_lines<CachePadded<std::atomic<std::uint64_t>>>);
static_assert(owns_its_lines<CachePadded<std::atomic<unsigned>>>);
static_assert(owns_its_lines<CachePadded<std::mutex>>);
static_assert(owns_its_lines<CachePadded<raa::Rng>>);
static_assert(owns_its_lines<raa::exec::Notifier>);
static_assert(owns_its_lines<StealingExecutor>);
static_assert(owns_its_lines<Runtime>);

TEST(CacheLayout, PaddedSlotsEachOwnALine) {
  constexpr unsigned kSlots = 5;
  auto slots = std::make_unique<CachePadded<std::atomic<std::uint64_t>>[]>(
      kSlots);
  std::vector<CachePadded<raa::Rng>> rngs;
  for (unsigned i = 0; i < kSlots; ++i) rngs.emplace_back(i);
  for (unsigned i = 0; i < kSlots; ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&slots[i]) % kCacheLine, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&rngs[i]) % kCacheLine, 0u);
    EXPECT_EQ(slots[i].load(), 0u) << "slots start at zero";
    slots[i].fetch_add(i + 1);  // used as the atomic it derives from
    EXPECT_EQ(rngs[i](), raa::Rng{i}());
  }
  for (unsigned i = 0; i < kSlots; ++i) EXPECT_EQ(slots[i].load(), i + 1);

  // Heap objects keep the alignment their groups need.
  const auto rt = std::make_unique<Runtime>(RuntimeOptions{.num_workers = 1});
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(rt.get()) % kCacheLine, 0u);
}

// --- StealingExecutor -----------------------------------------------------

TEST(StealingExecutor, RunsEverySubmittedItemExactlyOnce) {
  const unsigned n = stress_iters(20000) / 2;
  std::vector<std::atomic<int>> ran(n);
  std::atomic<unsigned> done{0};
  StealingExecutor ex{
      {.num_workers = 4, .seed = 9},
      [&](void* item, unsigned worker) {
        ASSERT_LT(worker, 4u);  // items only run on worker threads here
        const auto idx = reinterpret_cast<std::uintptr_t>(item) - 1;
        ran[idx].fetch_add(1, std::memory_order_relaxed);
        done.fetch_add(1, std::memory_order_relaxed);
      }};
  for (std::uintptr_t i = 0; i < n; ++i)
    ex.submit(reinterpret_cast<void*>(i + 1), ex.num_workers());
  spin_until([&] { return done.load(std::memory_order_relaxed) >= n; });
  ex.shutdown();
  for (unsigned i = 0; i < n; ++i) EXPECT_EQ(ran[i].load(), 1) << i;
  EXPECT_LE(ex.steal_count(), static_cast<std::uint64_t>(n));
}

// Spawn storm from inside the workers: every item of depth d submits two
// of depth d-1 through the owner-deque fast path; the full binary tree
// must run. Exercises push/pop/steal under real worker contention.
TEST(StealingExecutor, NestedSubmitsFromWorkersAllRun) {
  const unsigned depth = 11;  // 2^12 - 1 = 4095 items
  std::atomic<std::uint64_t> executed{0};
  StealingExecutor* self = nullptr;
  StealingExecutor ex{
      {.num_workers = 3, .seed = 11},
      [&](void* item, unsigned worker) {
        executed.fetch_add(1, std::memory_order_relaxed);
        const auto d = reinterpret_cast<std::uintptr_t>(item) - 1;
        if (d > 0) {
          self->submit(reinterpret_cast<void*>(d), worker);
          self->submit(reinterpret_cast<void*>(d), worker);
        }
      }};
  self = &ex;
  ex.submit(reinterpret_cast<void*>(std::uintptr_t{depth} + 1),
            ex.num_workers());
  const std::uint64_t expected = (std::uint64_t{1} << (depth + 1)) - 1;
  spin_until(
      [&] { return executed.load(std::memory_order_relaxed) >= expected; });
  ex.shutdown();
  EXPECT_EQ(executed.load(), expected);
}

TEST(StealingExecutor, ExternalThreadTryPopHelps) {
  std::atomic<int> ran{0};
  StealingExecutor ex{{.num_workers = 0, .seed = 1},
                      [&](void*, unsigned) { ran.fetch_add(1); }};
  ex.submit(reinterpret_cast<void*>(std::uintptr_t{1}), 0);
  ex.submit(reinterpret_cast<void*>(std::uintptr_t{2}), 0);
  // No workers: the external thread drains through try_pop.
  void* a = ex.try_pop(ex.num_workers());
  void* b = ex.try_pop(ex.num_workers());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a), 2u);  // external side: LIFO
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b), 1u);
  EXPECT_EQ(ex.try_pop(ex.num_workers()), nullptr);
  EXPECT_EQ(ran.load(), 0);  // try_pop hands the item over, never runs it
}

// --- Runtime nested spawn (silent_async / corun) --------------------------

TEST(NestedSpawn, ImplicitJoinBeforeDependantsRun) {
  for (const unsigned workers : {0u, 4u}) {
    Runtime rt{{.num_workers = workers}};
    std::atomic<int> children_done{0};
    int observed = -1;
    double token = 0.0;
    rt.spawn({raa::rt::out(token)}, [&] {
      for (int i = 0; i < 64; ++i)
        rt.silent_async(
            [&] { children_done.fetch_add(1, std::memory_order_relaxed); });
      // No corun(): the runtime must join the children before releasing
      // the dependant below.
    });
    rt.spawn({raa::rt::in(token)}, [&] {
      observed = children_done.load(std::memory_order_relaxed);
    });
    rt.taskwait();
    EXPECT_EQ(observed, 64) << "workers=" << workers;
  }
}

TEST(NestedSpawn, CorunJoinsChildrenMidBody) {
  for (const unsigned workers : {0u, 2u}) {
    Runtime rt{{.num_workers = workers}};
    std::atomic<int> done{0};
    int after_corun = -1;
    int after_second = -1;
    rt.spawn([&] {
      for (int i = 0; i < 16; ++i)
        rt.silent_async([&] { done.fetch_add(1); });
      rt.corun();
      after_corun = done.load();
      for (int i = 0; i < 8; ++i)
        rt.silent_async([&] { done.fetch_add(1); });
      rt.corun();
      after_second = done.load();
    });
    rt.taskwait();
    EXPECT_EQ(after_corun, 16) << "workers=" << workers;
    EXPECT_EQ(after_second, 24) << "workers=" << workers;
  }
}

TEST(NestedSpawn, GrandchildrenJoinTransitively) {
  Runtime rt{{.num_workers = 2}};
  std::atomic<int> leaves{0};
  rt.spawn([&] {
    for (int i = 0; i < 4; ++i)
      rt.silent_async([&] {
        for (int j = 0; j < 4; ++j)
          rt.silent_async([&] { leaves.fetch_add(1); });
        // no corun: each child implicit-joins its own 4 leaves
      });
  });
  rt.taskwait();
  EXPECT_EQ(leaves.load(), 16);
}

TEST(NestedSpawn, DeepChainOfNestedJoins) {
  Runtime rt{{.num_workers = 1}};
  std::atomic<unsigned> depth_reached{0};
  std::function<void(unsigned)> descend = [&](unsigned d) {
    depth_reached.fetch_add(1);
    if (d > 0) {
      rt.silent_async([&, d] { descend(d - 1); });
      rt.corun();
    }
  };
  rt.spawn([&] { descend(64); });
  rt.taskwait();
  EXPECT_EQ(depth_reached.load(), 65u);
}

TEST(NestedSpawn, OutsideTaskBodyActsLikePlainSpawn) {
  Runtime rt{{.num_workers = 2}};
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) rt.silent_async([&] { ran.fetch_add(1); });
  rt.corun();  // outside a task body: equivalent to taskwait()
  EXPECT_EQ(ran.load(), 32);
  const auto st = rt.stats();
  EXPECT_EQ(st.tasks_spawned, 32u);
  EXPECT_EQ(st.tasks_executed, 32u);
}

std::uint64_t fib_reference(unsigned n) {
  return n < 2 ? n : fib_reference(n - 1) + fib_reference(n - 2);
}

std::uint64_t fib_nested(Runtime& rt, unsigned n) {
  if (n < 2) return n;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  rt.silent_async([&rt, &a, n] { a = fib_nested(rt, n - 1); });
  rt.silent_async([&rt, &b, n] { b = fib_nested(rt, n - 2); });
  rt.corun();
  return a + b;
}

TEST(NestedSpawn, RecursiveFibAcrossWorkerCounts) {
  const std::uint64_t want = fib_reference(14);  // 377; ~1200 tasks
  for (const unsigned workers : {0u, 4u}) {
    Runtime rt{{.num_workers = workers}};
    std::uint64_t got = 0;
    rt.spawn([&] { got = fib_nested(rt, 14); });
    rt.taskwait();
    EXPECT_EQ(got, want) << "workers=" << workers;
  }
}

// --- Runtime lifecycle stress ----------------------------------------------
//
// The runtime's lock-free paths under contention: releases racing
// dependent spawns, a join's acquire fast check of its children count,
// and parking on the executor's notifier only when nothing is ready.
// Each round runs a nested fib beside a dependence wavefront on 3 workers
// plus the caller, both checked against serial references; the executor
// seed changes per round.
// The runtime_stress CTest entry raises the round count (RAA_STRESS_ITERS)
// for the TSan job.

constexpr std::size_t kWaveGrid = 64;  // 64 x 64 cells, one task each

std::uint64_t wave_cell(std::uint64_t up, std::uint64_t left,
                        std::uint64_t self) {
  return (up * 0x9e3779b97f4a7c15ULL) ^ (left + 0x632be59bd9b4e019ULL) ^
         (self * 31);
}

/// Cell (i,j) updates itself from its upper and left neighbours.
void wave_serial(std::vector<std::uint64_t>& g) {
  for (std::size_t i = 0; i < kWaveGrid; ++i)
    for (std::size_t j = 0; j < kWaveGrid; ++j)
      g[i * kWaveGrid + j] =
          wave_cell(i ? g[(i - 1) * kWaveGrid + j] : 0,
                    j ? g[i * kWaveGrid + j - 1] : 0, g[i * kWaveGrid + j]);
}

/// The same sweep as inout(cell) / in(up) / in(left) tasks (no taskwait).
void wave_spawn(Runtime& rt, std::vector<std::uint64_t>& g) {
  for (std::size_t i = 0; i < kWaveGrid; ++i)
    for (std::size_t j = 0; j < kWaveGrid; ++j) {
      std::uint64_t* c = &g[i * kWaveGrid + j];
      const std::uint64_t* up = i ? c - kWaveGrid : nullptr;
      const std::uint64_t* left = j ? c - 1 : nullptr;
      std::vector<raa::rt::Dep> deps{raa::rt::inout(*c)};
      if (up) deps.push_back(raa::rt::in(*up));
      if (left) deps.push_back(raa::rt::in(*left));
      rt.spawn(std::move(deps), [c, up, left] {
        *c = wave_cell(up ? *up : 0, left ? *left : 0, *c);
      });
    }
}

TEST(RuntimeLifecycleStress, FibAndWavefrontMatchSerialReferences) {
  const unsigned rounds = stress_iters(3);
  constexpr unsigned kFibN = 16;  // ~3200 nested tasks
  const std::uint64_t fib_want = fib_reference(kFibN);
  std::vector<std::uint64_t> grid0(kWaveGrid * kWaveGrid);
  std::iota(grid0.begin(), grid0.end(), std::uint64_t{1});
  std::vector<std::uint64_t> grid_want = grid0;
  wave_serial(grid_want);
  for (unsigned r = 0; r < rounds; ++r) {
    Runtime rt{{.num_workers = 3, .seed = r + 1}};
    std::uint64_t fib = 0;
    rt.spawn([&] { fib = fib_nested(rt, kFibN); });
    std::vector<std::uint64_t> grid = grid0;
    wave_spawn(rt, grid);
    rt.taskwait();
    ASSERT_EQ(fib, fib_want) << "round " << r;
    ASSERT_EQ(grid, grid_want) << "round " << r;
    const auto st = rt.stats();
    ASSERT_EQ(st.tasks_executed, st.tasks_spawned) << "round " << r;
    ASSERT_EQ(rt.trace().size(), st.tasks_spawned) << "round " << r;
    // A cell's task waits on the tasks of its upper and left neighbours
    // only (the cell itself has no earlier writer in a fresh runtime).
    ASSERT_EQ(st.edges, 2 * kWaveGrid * (kWaveGrid - 1)) << "round " << r;
  }
}

// --- Release races and parking ---------------------------------------------
//
// Completions release their successors without a lock while dependent
// spawns link onto the release chains of unfinished predecessors, and
// taskwait()/corun() park on the executor's notifier. These tests aim at
// the windows in between: a predecessor that finishes while a successor
// links onto it, a push while every other thread is parked, and readers
// of graph()/trace()/stats() while dependence-free spawns reserve ids.

/// Byte ranges shared by the release-race tasks, with a per-slot count of
/// the tasks writing it right now: a writer must find no other writer and
/// no reader, a reader no writer.
struct RaceSlots {
  static constexpr std::size_t kSlots = 6;
  std::array<std::uint64_t, kSlots> value{};
  std::array<std::atomic<int>, kSlots> writers{};
  std::array<std::atomic<int>, kSlots> readers{};
  std::atomic<int> conflicts{0};
};

/// One tiny task: inout(slot a) and in(slots [b, b+2)), partly
/// overlapping other tasks' ranges, so registration splits segments.
void spawn_race_task(Runtime& rt, RaceSlots& s, std::size_t a,
                     std::size_t b) {
  const std::span<const std::uint64_t> reads{&s.value[b], 2};
  rt.spawn({raa::rt::inout(s.value[a]), raa::rt::in(reads)}, [&s, a, b] {
    if (s.writers[a].fetch_add(1) != 0 || s.readers[a].load() != 0)
      s.conflicts.fetch_add(1);
    for (std::size_t r = b; r < b + 2; ++r)
      if (r != a) {
        s.readers[r].fetch_add(1);
        if (s.writers[r].load() != 0) s.conflicts.fetch_add(1);
      }
    ++s.value[a];
    for (std::size_t r = b; r < b + 2; ++r)
      if (r != a) s.readers[r].fetch_sub(1);
    s.writers[a].fetch_sub(1);
  });
}

/// Every edge of the captured graph is respected by the measured trace.
void expect_trace_respects_edges(const Runtime& rt, const std::string& what) {
  const auto g = rt.graph();
  const auto trace = rt.trace();
  ASSERT_EQ(trace.size(), g.node_count()) << what;
  std::vector<std::uint64_t> start_ns(g.node_count());
  std::vector<std::uint64_t> end_ns(g.node_count());
  for (const auto& rec : trace) {
    start_ns[rec.task] = rec.start_ns;
    end_ns[rec.task] = rec.end_ns;
  }
  for (raa::tdg::NodeId v = 0; v < g.node_count(); ++v)
    for (const auto succ : g.successors(v))
      ASSERT_LE(end_ns[v], start_ns[succ]) << what << ": " << v << " -> "
                                           << succ;
}

// Dependent tasks spawned from inside running tasks on 3 workers: eight
// drivers each spawn 48 tiny tasks over six shared slots, so releases and
// links interleave on the same chains. The release_race_stress CTest
// entry raises the round count (RAA_STRESS_ITERS) under the TSan job.
TEST(RuntimeReleaseRace, NestedDependentSpawnsRespectEveryEdge) {
  const unsigned rounds = stress_iters(4);
  constexpr unsigned kDrivers = 8;
  constexpr unsigned kTasksPerDriver = 48;
  for (unsigned r = 0; r < rounds; ++r) {
    Runtime rt{{.num_workers = 3, .seed = r + 1}};
    RaceSlots s;
    for (unsigned d = 0; d < kDrivers; ++d)
      rt.spawn([&rt, &s, seed = r * kDrivers + d] {
        raa::Rng rng{seed};
        for (unsigned i = 0; i < kTasksPerDriver; ++i)
          spawn_race_task(rt, s, rng.below(RaceSlots::kSlots),
                          rng.below(RaceSlots::kSlots - 1));
      });
    rt.taskwait();
    const std::string what = "round " + std::to_string(r);
    ASSERT_EQ(s.conflicts.load(), 0) << what;
    std::uint64_t writes = 0;
    for (const std::uint64_t v : s.value) writes += v;
    ASSERT_EQ(writes, kDrivers * kTasksPerDriver) << what;
    const auto st = rt.stats();
    ASSERT_EQ(st.tasks_executed, st.tasks_spawned) << what;
    ASSERT_EQ(st.tasks_spawned, kDrivers * (kTasksPerDriver + 1)) << what;
    expect_trace_respects_edges(rt, what);
  }
}

// More workers than the host has hardware threads. P's child C runs on
// another thread (P waits until it started), so P's corun parks. C sleeps
// until every other thread has had time to park, then pushes its own
// child G to its deque and spins until G is done: only a parked thread
// woken by that push can run G. Then C's implicit join, P's parked corun
// and the caller's parked taskwait must all wake. A lost wakeup hangs
// here, under the runtime_parking CTest timeout.
TEST(RuntimeParking, LastTaskPushedWhileEveryoneElseIsParked) {
  const unsigned workers =
      std::clamp(std::thread::hardware_concurrency() + 4, 8u, 16u);
  for (unsigned round = 0; round < stress_iters(3); ++round) {
    Runtime rt{{.num_workers = workers, .seed = round + 1}};
    std::atomic<bool> c_started{false};
    std::atomic<bool> g_done{false};
    bool p_joined = false;
    rt.spawn([&] {
      rt.silent_async([&] {
        c_started.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        rt.silent_async([&] { g_done.store(true); });
        spin_until([&] { return g_done.load(); });
      });
      spin_until([&] { return c_started.load(); });
      rt.corun();
      p_joined = g_done.load();
    });
    rt.taskwait();
    EXPECT_TRUE(p_joined) << "round " << round;
    EXPECT_EQ(rt.stats().tasks_executed, 3u) << "round " << round;
  }
}

// graph(), trace() and stats() read the task store while dependence-free
// spawns reserve ids and construct their blocks without the graph mutex
// (and dependent spawns append edges under it). Every snapshot must be
// consistent; under TSan this also checks the blocks' publication.
TEST(RuntimeParking, ReadersStaySafeWhileSpawnsReserveIds) {
  Runtime rt{{.num_workers = 2}};
  constexpr unsigned kSpawns = 2000;
  std::atomic<bool> spawning{true};
  double chained = 0.0;
  std::jthread spawner([&] {
    for (unsigned i = 0; i < kSpawns; ++i) {
      if (i % 8 == 0)
        rt.spawn({raa::rt::inout(chained)}, [&chained] { chained += 1.0; });
      else
        rt.spawn([] {}, {.label = "free" + std::to_string(i)});
    }
    spawning.store(false);
  });
  unsigned snapshots = 0;
  while (spawning.load() || snapshots < 3) {
    const auto before = rt.stats();
    const auto g = rt.graph();
    const auto trace = rt.trace();
    const auto after = rt.stats();
    ASSERT_LE(before.tasks_executed, before.tasks_spawned);
    ASSERT_LE(before.tasks_spawned, g.node_count());
    ASSERT_LE(g.node_count(), after.tasks_spawned);
    ASSERT_LE(before.edges, g.edge_count());
    ASSERT_LE(g.edge_count(), after.edges);
    // A task closes its release chain (and shows in trace()) just before
    // it counts as executed.
    ASSERT_LE(trace.size(), after.tasks_spawned);
    for (const auto& rec : trace) ASSERT_LT(rec.task, after.tasks_spawned);
    ++snapshots;
  }
  spawner.join();
  rt.taskwait();
  EXPECT_EQ(chained, kSpawns / 8.0);
  EXPECT_EQ(rt.stats().tasks_executed, kSpawns);
  const auto g = rt.graph();
  EXPECT_EQ(g.node_count(), kSpawns);
  EXPECT_EQ(g.edge_count(), kSpawns / 8 - 1);
  EXPECT_EQ(g.node(1).label, "free1");
}

// --- StealEquivalence -----------------------------------------------------
//
// The contract this PR must not break: simulated metrics are a pure
// function of the captured TDG, and the captured TDG is a pure function
// of the spawn sequence (ids are assigned in spawn order, costs come
// from cost_hints, edges from the dependence registry) — never of which
// host worker ran what or how often work was stolen.

/// A deterministic mixed DAG: chains, a reduction fan-in, independent
/// blocks, criticality annotations — spawned from the calling thread
/// with fixed cost hints.
raa::tdg::Graph captured_graph(unsigned workers) {
  Runtime rt{{.num_workers = workers, .seed = 5}};
  std::vector<double> cell(8, 0.0);
  double acc = 0.0;
  // Stage 1: producers.
  for (int i = 0; i < 8; ++i)
    rt.spawn({raa::rt::out(cell[static_cast<unsigned>(i)])},
             [&cell, i] { cell[static_cast<unsigned>(i)] += i; },
             {.label = "p" + std::to_string(i),
              .cost_hint = 1.0e5 * (1 + i % 3)});
  // Stage 2: chain over cell[0] (serialized inout).
  for (int s = 0; s < 6; ++s)
    rt.spawn({raa::rt::inout(cell[0])}, [&cell] { cell[0] *= 1.5; },
             {.label = "chain" + std::to_string(s),
              .criticality = s % 2 ? raa::rt::Criticality::critical
                                   : raa::rt::Criticality::normal,
              .cost_hint = 2.0e5});
  // Stage 3: reduction reading everything.
  std::vector<raa::rt::Dep> deps;
  for (auto& c : cell) deps.push_back(raa::rt::in(c));
  deps.push_back(raa::rt::out(acc));
  rt.spawn(deps,
           [&] {
             for (const double c : cell) acc += c;
           },
           {.label = "reduce", .cost_hint = 5.0e5});
  // Stage 4: independent tail noise.
  for (int i = 0; i < 12; ++i)
    rt.spawn([] {}, {.label = "t" + std::to_string(i), .cost_hint = 4.0e4});
  rt.taskwait();
  return rt.graph();
}

void expect_graphs_identical(const raa::tdg::Graph& a,
                             const raa::tdg::Graph& b,
                             const std::string& what) {
  ASSERT_EQ(a.node_count(), b.node_count()) << what;
  ASSERT_EQ(a.edge_count(), b.edge_count()) << what;
  for (raa::tdg::NodeId v = 0; v < a.node_count(); ++v) {
    EXPECT_EQ(a.node(v).cost, b.node(v).cost) << what << " node " << v;
    EXPECT_EQ(a.node(v).label, b.node(v).label) << what << " node " << v;
    EXPECT_EQ(a.node(v).critical_hint, b.node(v).critical_hint)
        << what << " node " << v;
    EXPECT_EQ(a.successors(v), b.successors(v)) << what << " node " << v;
  }
}

void expect_replays_identical(const raa::tdg::Graph& a,
                              const raa::tdg::Graph& b,
                              const std::string& what) {
  for (const unsigned cores : {8u, 16u, 32u}) {
    const raa::sim::MachineConfig m{.cores = cores};
    for (const bool blevel : {false, true}) {
      const auto prio = blevel ? raa::sim::priority_bottom_level()
                               : raa::sim::priority_fifo();
      const auto ra = raa::sim::replay(a, m, prio);
      const auto rb = raa::sim::replay(b, m, prio);
      const std::string ctx =
          what + " cores=" + std::to_string(cores) +
          (blevel ? " blevel" : " fifo");
      // Exact equality, not tolerance: these are the gated simulated
      // metrics, and host scheduling must be invisible to them.
      EXPECT_EQ(ra.makespan_ns, rb.makespan_ns) << ctx;
      EXPECT_EQ(ra.energy_j, rb.energy_j) << ctx;
      EXPECT_EQ(ra.busy_ns, rb.busy_ns) << ctx;
      EXPECT_EQ(ra.stall_ns, rb.stall_ns) << ctx;
      EXPECT_EQ(ra.freq_switches, rb.freq_switches) << ctx;
    }
  }
}

TEST(StealEquivalence, CapturedGraphAndReplayInvariantAcrossHosts) {
  // Serial reference: no workers, the caller runs every task.
  const raa::tdg::Graph ref = captured_graph(0);
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    const std::string what = "w" + std::to_string(workers);
    const raa::tdg::Graph g = captured_graph(workers);
    expect_graphs_identical(ref, g, what);
    expect_replays_identical(ref, g, what);
  }
}

/// Text form of a captured graph: every node's cost (hexfloat), hint and
/// label, then its successors and predecessors in the graph's own order.
std::string graph_text(const raa::tdg::Graph& g) {
  std::string out = "# nodes " + std::to_string(g.node_count()) +
                    " edges " + std::to_string(g.edge_count()) + "\n";
  const auto ids = [](const std::vector<raa::tdg::NodeId>& v) {
    std::string s;
    for (const raa::tdg::NodeId id : v) s += " " + std::to_string(id);
    return s;
  };
  for (raa::tdg::NodeId v = 0; v < g.node_count(); ++v) {
    const raa::tdg::Node& n = g.node(v);
    char cost[64];
    std::snprintf(cost, sizeof cost, "%a", n.cost);
    out += std::to_string(v) + " cost=" + cost +
           " critical=" + (n.critical_hint ? "1" : "0") + " label=" +
           n.label + "\n  succ:" + ids(g.successors(v)) +
           "\n  pred:" + ids(g.predecessors(v)) + "\n";
  }
  return out;
}

/// Fan-out and fan-in around one object, with a barrier in the middle: a
/// writer's successor list holds several readers in spawn order, a later
/// writer waits on all of them, and tasks spawned after the barrier get
/// edges to predecessors that had already finished.
raa::tdg::Graph fan_graph(unsigned workers) {
  Runtime rt{{.num_workers = workers, .seed = 9}};
  double x = 0.0, y = 0.0;
  const auto attrs = [](const std::string& label, double cost) {
    return raa::rt::TaskAttrs{.label = label, .cost_hint = cost};
  };
  rt.spawn({raa::rt::out(x)}, [&x] { x = 1.0; }, attrs("w0", 3.0e4));
  for (int i = 0; i < 4; ++i)
    rt.spawn({raa::rt::in(x), raa::rt::inout(y)}, [&x, &y] { y += x; },
             attrs("r" + std::to_string(i), 1.0e4 * (1 + i)));
  rt.taskwait();
  for (int i = 4; i < 7; ++i)
    rt.spawn({raa::rt::in(x)}, [&x] { (void)x; },
             attrs("r" + std::to_string(i), 1.0e4 * (1 + i)));
  rt.spawn({raa::rt::out(x), raa::rt::in(y)}, [&] { x = y; },
           attrs("w1", 2.0e4));
  rt.spawn({raa::rt::inout(x), raa::rt::inout(y)}, [&] { y += x; },
           attrs("w2", 5.0e4));
  rt.taskwait();
  return rt.graph();
}

// graph() must rebuild exactly the TDG the runtime has always produced:
// node costs, labels and hints, and the order of every successor and
// predecessor list, pinned as text in tests/data/runtime_graph.golden.txt.
TEST(StealEquivalence, CapturedGraphMatchesCheckedInGolden) {
  for (const unsigned workers : {0u, 4u}) {
    raa::test_util::expect_matches_golden(
        graph_text(captured_graph(workers)) + graph_text(fan_graph(workers)),
        "runtime_graph.golden.txt",
        "runtime_graph_w" + std::to_string(workers) + ".txt");
  }
}

// fig5's inputs are analytic TDGs (apps::*_tdg never touches the host
// runtime), so the strongest host-side attack is concurrent churn: a
// stealing runtime hammering all cores while the curves are computed.
TEST(StealEquivalence, Fig5CurvesUnmovedByConcurrentStealingRuntime) {
  using raa::apps::Style;
  const auto body = raa::apps::bodytrack_tdg(6, 8, Style::dataflow);
  const auto face = raa::apps::facesim_tdg(6, 16, Style::forkjoin);
  const auto quiet_body = raa::apps::scalability_curve(body, 8);
  const auto quiet_face = raa::apps::scalability_curve(face, 8);

  Runtime churn{{.num_workers = 4}};
  std::atomic<std::uint64_t> sink{0};
  for (int i = 0; i < 256; ++i)
    churn.spawn([&] {
      std::uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (int k = 0; k < 500; ++k) h = h * 6364136223846793005ULL + 1;
      sink.fetch_add(h, std::memory_order_relaxed);
    });

  const auto busy_body = raa::apps::scalability_curve(body, 8);
  const auto busy_face = raa::apps::scalability_curve(face, 8);
  churn.taskwait();

  EXPECT_EQ(quiet_body, busy_body);
  EXPECT_EQ(quiet_face, busy_face);
  EXPECT_GT(churn.stats().tasks_executed, 0u);
}

// Ablation-shaped check: replay the ablation bench's serial-vs-parallel
// question directly — the *host* runtime executes a workload while we
// replay its captured graph; steal counts may be anything, simulated
// makespans may not change.
TEST(StealEquivalence, StealsHappenButSimulatedMetricsHoldStill) {
  const raa::tdg::Graph ref = captured_graph(0);
  const raa::tdg::Graph g = captured_graph(8);
  expect_replays_identical(ref, g, "w8");
  // (No assertion on steal_count: it is informational and host-timing
  // dependent by design — see StealingExecutor::steal_count().)
}

}  // namespace
