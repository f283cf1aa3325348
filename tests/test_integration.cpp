// Cross-layer integration tests: the paper's central loop is
// (1) the runtime executes an annotated task program and captures the TDG,
// (2) architecture components consume that TDG — criticality analysis,
//     DVFS governors, machine-model replay.
// These tests drive real task programs through the whole chain.
#include <gtest/gtest.h>

#include "apps/miniapps.hpp"
#include "rsu/criticality.hpp"
#include "rsu/rsu.hpp"
#include "runtime/runtime.hpp"
#include "simcore/tdg_sim.hpp"

namespace {

using raa::rt::Criticality;
using raa::rt::Runtime;
using raa::sim::MachineConfig;
using raa::sim::replay;

TEST(Integration, CapturedGraphReplaysWithSpeedup) {
  // Execute the dataflow bodytrack port for real, then replay its captured
  // TDG on wider simulated machines. The measured costs are host wall
  // times, which a preempted body inflates, so the replay gives every node
  // cost 1: the speedup is then a function of the captured dependence
  // structure alone (it reads 4.615 at any worker count).
  const raa::apps::BodytrackParams p{.frames = 6, .particles = 64,
                                     .chunks = 8, .pixels = 1024};
  Runtime rt;
  (void)raa::apps::bodytrack_parallel(p, rt, raa::apps::Style::dataflow);
  auto g = rt.graph();
  ASSERT_EQ(g.node_count(), p.frames * (p.chunks + 2));
  for (raa::tdg::NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_GE(g.node(v).cost, 1.0)
        << "finished node " << v << " carries its measured cost";
    g.node(v).cost = 1.0;
  }

  const auto r1 = replay(g, MachineConfig{.cores = 1},
                         raa::sim::priority_bottom_level());
  const auto r8 = replay(g, MachineConfig{.cores = 8},
                         raa::sim::priority_bottom_level());
  EXPECT_GT(r1.makespan_ns, 0.0);
  EXPECT_GT(r1.makespan_ns / r8.makespan_ns, 1.5)
      << "captured TDG must expose real parallelism";
}

TEST(Integration, ProgrammerHintsReachTheGovernor) {
  // Tasks annotated critical by the programmer (Sec. 3.1: "task criticality
  // can be simply annotated") must be boosted by the governor even when
  // graph analysis alone would not mark them.
  Runtime rt;
  double slots[8] = {};
  for (int i = 0; i < 8; ++i) {
    rt.spawn({raa::rt::out(slots[i])}, [] {},
             {.label = "t" + std::to_string(i),
              .criticality = i == 3 ? Criticality::critical
                                    : Criticality::normal,
              .cost_hint = 1000.0});
  }
  rt.taskwait();
  auto g = rt.graph();

  raa::rsu::CriticalityGovernor gov{
      {.slack_fraction = 0.0, .reconfig = raa::rsu::rsu_hardware()}};
  MachineConfig m{.cores = 2, .power_budget_w = 1000.0};
  const auto r = replay(g, m, raa::sim::priority_bottom_level(), &gov);
  // All eight tasks are independent and equal-cost: all are "on a longest
  // path" -> everything is turbo. Check instead with unequal costs:
  // the hinted task must be boosted regardless of its slack.
  Runtime rt2;
  double a = 0.0, b = 0.0;
  rt2.spawn({raa::rt::out(a)}, [] {}, {.cost_hint = 10000.0});
  rt2.spawn({raa::rt::out(b)}, [] {},
            {.criticality = Criticality::critical, .cost_hint = 10.0});
  rt2.taskwait();
  const auto g2 = rt2.graph();
  raa::rsu::CriticalityGovernor gov2{
      {.slack_fraction = 0.0, .reconfig = raa::rsu::rsu_hardware()}};
  const auto r2 = replay(g2, m, raa::sim::priority_bottom_level(), &gov2);
  EXPECT_DOUBLE_EQ(r2.timeline[1].op.freq_ghz, 2.4)
      << "hinted tiny task boosted";
  EXPECT_DOUBLE_EQ(r2.timeline[0].op.freq_ghz, 2.4)
      << "long task is the actual critical path";
  (void)r;
}

TEST(Integration, CriticalityStudyOnRuntimeCapturedGraph) {
  // The full Sec. 3.1 study applied to a TDG captured from a real dataflow
  // execution (facesim port) with synthetic per-task cost hints removed —
  // measured nanosecond costs are used as cycles.
  const raa::apps::FacesimParams p{.frames = 8, .nodes = 1024,
                                   .partitions = 16};
  Runtime rt;
  (void)raa::apps::facesim_parallel(p, rt, raa::apps::Style::dataflow);
  const auto g = rt.graph();
  const auto study =
      raa::rsu::run_criticality_study(g, MachineConfig{.cores = 16});
  // No fixed band (measured costs vary with host load); but the study must
  // be internally consistent and the RSU never worse than software DVFS.
  EXPECT_GT(study.fifo_nominal.makespan_ns, 0.0);
  EXPECT_LE(study.cats_rsu.makespan_ns,
            study.cats_sw.makespan_ns * (1.0 + 1e-9));
}

TEST(Integration, WorkHelpingExecutesEverythingWithoutWorkers) {
  // The whole dataflow facesim app runs to completion on zero workers
  // (pure work-helping in taskwait): no deadlock, correct results.
  const raa::apps::FacesimParams p{.frames = 4, .nodes = 256,
                                   .partitions = 4};
  const auto expect = raa::apps::facesim_serial(p);
  Runtime rt{{.num_workers = 0}};
  const auto got =
      raa::apps::facesim_parallel(p, rt, raa::apps::Style::dataflow);
  EXPECT_EQ(got, expect);
  EXPECT_EQ(rt.stats().tasks_executed, rt.stats().tasks_spawned);
}

TEST(Integration, TraceAndGraphAgree) {
  const raa::apps::BodytrackParams p{.frames = 3, .particles = 32,
                                     .chunks = 4, .pixels = 256};
  Runtime rt{{.num_workers = 2}};
  (void)raa::apps::bodytrack_parallel(p, rt, raa::apps::Style::dataflow);
  const auto g = rt.graph();
  const auto trace = rt.trace();
  ASSERT_EQ(trace.size(), g.node_count());
  // Every dependence edge is respected by the measured timestamps.
  std::vector<std::uint64_t> end_ns(g.node_count());
  std::vector<std::uint64_t> start_ns(g.node_count());
  for (const auto& rec : trace) {
    end_ns[rec.task] = rec.end_ns;
    start_ns[rec.task] = rec.start_ns;
  }
  for (raa::tdg::NodeId v = 0; v < g.node_count(); ++v)
    for (const auto s : g.successors(v))
      EXPECT_LE(end_ns[v], start_ns[s]) << v << " -> " << s;
}

TEST(Integration, AppsRunAtEveryWorkerCount) {
  const raa::apps::BodytrackParams p{.frames = 4, .particles = 32,
                                     .chunks = 4, .pixels = 256};
  const auto expect = raa::apps::bodytrack_serial(p);
  for (const unsigned workers : {0u, 1u, 3u}) {
    Runtime rt{{.num_workers = workers}};
    const auto got =
        raa::apps::bodytrack_parallel(p, rt, raa::apps::Style::dataflow);
    EXPECT_EQ(got, expect) << "workers=" << workers;
  }
}

}  // namespace
