// Ablation — ready-queue policy of the TDG replay: FIFO vs bottom-level
// (CATS-style) priority across workload families and machine widths.
// Quantifies how much of the Sec. 3.1 gain comes from *ordering* alone
// (before any DVFS is applied).
//
// Flags: --scale=1 (graph-size multiplier for larger scenarios; plus the
// harness flags, see bench/harness.hpp)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "harness.hpp"
#include "obs/counters.hpp"
#include "runtime/graph.hpp"
#include "runtime/runtime.hpp"
#include "simcore/tdg_sim.hpp"

RAA_BENCHMARK("ablation_scheduler", "§3.1 scheduling-policy ablation",
              "scale") {
  using raa::tdg::Synthetic;
  const auto scale = ctx.flag("scale", 1u, raa::bench::kMaxScale);
  ctx.report.set_param("scale", std::to_string(scale));
  const double c = 1.0e6;
  struct W {
    const char* name;
    raa::tdg::Graph g;
  };
  const std::vector<W> workloads = {
      {"cholesky-10", Synthetic::cholesky(10 * scale, c)},
      {"layered-random",
       Synthetic::layered_random(25 * scale, 20, 3, c / 4, c, 3)},
      {"pipeline-48x6", Synthetic::pipeline(48 * scale, 6, c)},
      {"skewed-mix", [&] {
         // Long chain + many independent shorts: FIFO's worst case.
         raa::tdg::Graph g;
         for (unsigned i = 0; i < 120 * scale; ++i) g.add_node(c / 4);
         raa::tdg::NodeId prev = raa::tdg::kNoNode;
         for (unsigned i = 0; i < 20 * scale; ++i) {
           const auto v = g.add_node(c);
           if (prev != raa::tdg::kNoNode) g.add_edge(prev, v);
           prev = v;
         }
         return g;
       }()},
  };

  if (ctx.printing())
    std::printf(
        "Ablation: ready-queue policy (makespan FIFO / bottom-level)\n\n");
  raa::Table t{{"workload", "8 cores", "16 cores", "32 cores"}};
  for (const auto& w : workloads) {
    std::vector<std::string> row{w.name};
    for (const unsigned cores : {8u, 16u, 32u}) {
      const raa::sim::MachineConfig m{.cores = cores};
      const auto fifo =
          raa::sim::replay(w.g, m, raa::sim::priority_fifo());
      const auto blevel =
          raa::sim::replay(w.g, m, raa::sim::priority_bottom_level());
      ctx.add_tasks(2.0 * static_cast<double>(w.g.node_count()));
      const double ratio = fifo.makespan_ns / blevel.makespan_ns;
      ctx.report.record(std::string{"makespan_ratio/"} + w.name + "_cores" +
                            std::to_string(cores),
                        ratio, "x");
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.3fx", ratio);
      row.push_back(buf);
    }
    t.row(std::move(row));
  }
  if (ctx.printing()) {
    t.print(std::cout);
    std::printf(
        "\nvalues > 1: criticality-ordered scheduling alone already "
        "shortens the makespan; DVFS boosting (fig2 bench) stacks on "
        "top.\n");
  }

  // --- micro_steal_throughput (informational) ---------------------------
  // Host throughput of the work-stealing executor underneath the runtime:
  // spawn a storm of tiny tasks and time the drain. Recorded with
  // record_info — host wall-clock numbers are machine-dependent by nature
  // and must never gate; the simulated makespan_ratio metrics above are
  // the gated ones and are independent of host scheduling by
  // construction (see docs/ARCHITECTURE.md, "Why simulated metrics
  // cannot move").
  // The numbers are read from the obs counter registry — the same
  // "rt.tasks_executed"/"exec.steals" gauges the runtime and executor
  // publish for everything else — as deltas across the storm, so the
  // bench and RuntimeStats can never drift apart (single source of
  // truth; see docs/OBSERVABILITY.md).
  {
    const unsigned host_workers = 4;
    const int storm = static_cast<int>(2048 * scale);
    ctx.report.set_param("host_workers", std::to_string(host_workers));
    auto& reg = raa::obs::Registry::instance();
    const std::uint64_t tasks_before = reg.value("rt.tasks_executed");
    const std::uint64_t steals_before = reg.value("exec.steals");
    const auto t0 = std::chrono::steady_clock::now();
    raa::rt::Runtime rt{{.num_workers = host_workers}};
    std::atomic<std::uint64_t> sink{0};
    for (int i = 0; i < storm; ++i)
      rt.spawn([&] { sink.fetch_add(1, std::memory_order_relaxed); });
    rt.taskwait();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    // Sampled while rt is alive: its gauges detach on destruction.
    const std::uint64_t tasks = reg.value("rt.tasks_executed") - tasks_before;
    const std::uint64_t steals = reg.value("exec.steals") - steals_before;
    ctx.report.record_info("host_tasks_per_second",
                           static_cast<double>(tasks) / std::max(secs, 1e-9),
                           "tasks/s");
    ctx.report.record_info("host_steal_count", static_cast<double>(steals),
                           "steals");
    if (ctx.printing())
      std::printf(
          "\nhost executor (informational): %llu tasks on %u workers, "
          "%.3g tasks/s, %llu steals\n",
          static_cast<unsigned long long>(tasks), host_workers,
          static_cast<double>(tasks) / std::max(secs, 1e-9),
          static_cast<unsigned long long>(steals));
  }
}
