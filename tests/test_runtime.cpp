// Tests for the tasking runtime: dependence-ordered execution, taskwait
// semantics, graph/trace capture and a randomized multi-worker stress
// test.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "runtime/runtime.hpp"

namespace {

using raa::rt::Criticality;
using raa::rt::Dep;
using raa::rt::Runtime;
using raa::rt::RuntimeOptions;
using raa::rt::TaskAttrs;

TEST(Runtime, RunsASingleTask) {
  Runtime rt;
  int x = 0;
  rt.spawn([&] { x = 42; });
  rt.taskwait();
  EXPECT_EQ(x, 42);
}

TEST(Runtime, RawDependenceOrdersProducerConsumer) {
  Runtime rt;
  double a = 0.0, b = 0.0;
  rt.spawn({raa::rt::out(a)}, [&] { a = 10.0; });
  rt.spawn({raa::rt::in(a), raa::rt::out(b)}, [&] { b = a * 2.0; });
  rt.taskwait();
  EXPECT_DOUBLE_EQ(b, 20.0);
}

TEST(Runtime, InoutChainAccumulates) {
  Runtime rt;
  long v = 0;
  for (int i = 1; i <= 10; ++i)
    rt.spawn({raa::rt::inout(v)}, [&v, i] { v = v * 10 + i % 10; });
  rt.taskwait();
  EXPECT_EQ(v, 1234567890L);
}

TEST(Runtime, IndependentTasksAllRun) {
  Runtime rt{{.num_workers = 3}};
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) rt.spawn([&] { count.fetch_add(1); });
  rt.taskwait();
  EXPECT_EQ(count.load(), 100);
}

TEST(Runtime, TaskwaitIsReusable) {
  Runtime rt;
  int x = 0;
  rt.spawn([&] { x = 1; });
  rt.taskwait();
  EXPECT_EQ(x, 1);
  rt.spawn([&] { x = 2; });
  rt.taskwait();
  EXPECT_EQ(x, 2);
}

TEST(Runtime, DestructorDrainsPendingTasks) {
  int x = 0;
  {
    Runtime rt{{.num_workers = 2}};
    for (int i = 0; i < 50; ++i) rt.spawn([&x] {
      // Benign: tasks write disjoint... actually same var; use atomic-free
      // increment guarded by inout dependence instead.
    });
    double slot = 0.0;
    for (int i = 0; i < 20; ++i)
      rt.spawn({raa::rt::inout(slot)}, [&x] { ++x; });
    // No taskwait: the destructor must run everything.
  }
  EXPECT_EQ(x, 20);
}

TEST(Runtime, NestedSpawnsExecute) {
  Runtime rt{{.num_workers = 2}};
  std::atomic<int> leaves{0};
  for (int i = 0; i < 4; ++i) {
    rt.spawn([&rt, &leaves] {
      for (int j = 0; j < 8; ++j) rt.spawn([&leaves] { ++leaves; });
    });
  }
  rt.taskwait();
  EXPECT_EQ(leaves.load(), 32);
}

TEST(Runtime, TaskwaitInsideTaskBodyRejected) {
  Runtime rt{{.num_workers = 1}};
  std::atomic<bool> threw{false};
  rt.spawn([&] {
    try {
      rt.taskwait();
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  rt.taskwait();
  EXPECT_TRUE(threw.load());
}

// A dependence range that wraps past the end of the address space is
// rejected before the spawn reserves a task id: the failed spawn leaves
// nothing behind, so taskwait() and the destructor still return.
TEST(Runtime, WrappingDependenceRangeLeavesNoTaskBehind) {
  Runtime rt{{.num_workers = 1}};
  const Dep wraps{std::numeric_limits<std::uintptr_t>::max() - 3, 8,
                  raa::rt::AccessMode::write};
  EXPECT_THROW(rt.spawn({wraps}, [] {}), std::logic_error);
  int x = 0;
  rt.spawn({raa::rt::out(x)}, [&] { x = 1; });
  rt.taskwait();
  EXPECT_EQ(x, 1);
  EXPECT_EQ(rt.stats().tasks_spawned, 1u);
  EXPECT_EQ(rt.stats().tasks_executed, 1u);
}

TEST(Runtime, CapturedGraphMatchesSpawns) {
  Runtime rt;
  double a = 0.0, b = 0.0, c = 0.0;
  rt.spawn({raa::rt::out(a)}, [&] { a = 1.0; }, {.label = "A"});
  rt.spawn({raa::rt::out(b)}, [&] { b = 2.0; }, {.label = "B"});
  rt.spawn({raa::rt::in(a), raa::rt::in(b), raa::rt::out(c)},
           [&] { c = a + b; }, {.label = "C"});
  rt.taskwait();
  const auto g = rt.graph();
  ASSERT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.node(2).label, "C");
  // C depends on A and B.
  const auto preds = g.predecessors(2);
  EXPECT_EQ(preds.size(), 2u);
  // Measured costs are positive after execution.
  for (const auto& n : g.nodes()) EXPECT_GT(n.cost, 0.0);
}

TEST(Runtime, CostHintOverridesMeasuredCost) {
  Runtime rt;
  rt.spawn([] {}, {.cost_hint = 123.0});
  rt.taskwait();
  EXPECT_DOUBLE_EQ(rt.graph().node(0).cost, 123.0);
}

TEST(Runtime, CriticalHintLandsInGraph) {
  Runtime rt;
  rt.spawn([] {}, {.criticality = Criticality::critical});
  rt.spawn([] {});
  rt.taskwait();
  EXPECT_TRUE(rt.graph().node(0).critical_hint);
  EXPECT_FALSE(rt.graph().node(1).critical_hint);
}

TEST(Runtime, TraceRecordsEveryTask) {
  Runtime rt{{.num_workers = 2}};
  for (int i = 0; i < 25; ++i) rt.spawn([] {});
  rt.taskwait();
  const auto trace = rt.trace();
  ASSERT_EQ(trace.size(), 25u);
  for (const auto& rec : trace) EXPECT_LE(rec.start_ns, rec.end_ns);
}

TEST(Runtime, StatsCountSpawnsAndEdges) {
  Runtime rt;
  double a = 0.0;
  rt.spawn({raa::rt::out(a)}, [&] { a = 1.0; });
  rt.spawn({raa::rt::in(a)}, [&] { (void)a; });
  rt.taskwait();
  const auto s = rt.stats();
  EXPECT_EQ(s.tasks_spawned, 2u);
  EXPECT_EQ(s.tasks_executed, 2u);
  EXPECT_EQ(s.edges, 1u);
}

TEST(Runtime, ParallelForCoversRangeExactlyOnce) {
  Runtime rt{{.num_workers = 3}};
  std::vector<std::atomic<int>> hits(1000);
  raa::rt::parallel_for(rt, 0, 1000, 16,
                        [&](std::size_t lo, std::size_t hi) {
                          for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                        });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Runtime, ParallelForEmptyRange) {
  Runtime rt;
  bool ran = false;
  raa::rt::parallel_for(rt, 10, 10, 4,
                        [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// Stress: random dependence patterns over a bank of slots; per-slot inout
// chains must execute in spawn order whatever the worker count.
class RuntimeStress : public ::testing::TestWithParam<unsigned> {};

TEST_P(RuntimeStress, PerSlotChainsExecuteInSpawnOrder) {
  Runtime rt{{.num_workers = GetParam()}};
  constexpr int kSlots = 16;
  constexpr int kTasks = 400;
  std::array<double, kSlots> slots{};
  std::array<std::vector<int>, kSlots> sequence;  // protected by deps
  raa::Rng rng{77};

  for (int t = 0; t < kTasks; ++t) {
    const int s = static_cast<int>(rng.below(kSlots));
    rt.spawn({raa::rt::inout(slots[static_cast<std::size_t>(s)])},
             [&sequence, s, t] {
               sequence[static_cast<std::size_t>(s)].push_back(t);
             });
  }
  rt.taskwait();

  int total = 0;
  for (const auto& seq : sequence) {
    EXPECT_TRUE(std::is_sorted(seq.begin(), seq.end()));
    total += static_cast<int>(seq.size());
  }
  EXPECT_EQ(total, kTasks);
  EXPECT_EQ(rt.stats().tasks_executed, static_cast<std::uint64_t>(kTasks));
}

INSTANTIATE_TEST_SUITE_P(Workers, RuntimeStress,
                         ::testing::Values(0u, 1u, 4u),
                         [](const auto& param_info) {
                           return "w" + std::to_string(param_info.param);
                         });

// Diamond joins: many fork-join diamonds; the join must observe both sides.
TEST(Runtime, DiamondJoinSeesBothBranches) {
  Runtime rt{{.num_workers = 4}};
  for (int rep = 0; rep < 50; ++rep) {
    double a = 0.0, b = 0.0, c = 0.0, d = 0.0;
    rt.spawn({raa::rt::out(a)}, [&a] { a = 1.0; });
    rt.spawn({raa::rt::in(a), raa::rt::out(b)}, [&a, &b] { b = a + 1.0; });
    rt.spawn({raa::rt::in(a), raa::rt::out(c)}, [&a, &c] { c = a + 2.0; });
    rt.spawn({raa::rt::in(b), raa::rt::in(c), raa::rt::out(d)},
             [&b, &c, &d] { d = b + c; });
    rt.taskwait();
    ASSERT_DOUBLE_EQ(d, 5.0);
  }
}

TEST(Runtime, GraphParallelismReflectsStructure) {
  // 1 chain of 10 vs 10 independent: parallelism ~1 vs ~10.
  Runtime chain_rt;
  double v = 0.0;
  for (int i = 0; i < 10; ++i)
    chain_rt.spawn({raa::rt::inout(v)}, [] {}, {.cost_hint = 5.0});
  chain_rt.taskwait();
  EXPECT_NEAR(chain_rt.graph().parallelism(), 1.0, 1e-9);

  Runtime wide_rt;
  for (int i = 0; i < 10; ++i) wide_rt.spawn([] {}, {.cost_hint = 5.0});
  wide_rt.taskwait();
  EXPECT_NEAR(wide_rt.graph().parallelism(), 10.0, 1e-9);
}

}  // namespace
