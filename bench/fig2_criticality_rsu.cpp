// Figure 2 / §3.1 — criticality-aware DVFS through the Runtime Support
// Unit: performance and EDP improvements over static scheduling on a
// 32-core machine, plus the scaling of the reconfiguration mechanism
// (software-only locks vs the RSU) with the core count.
//
// Paper reference values: +6.6% performance and +20.0% EDP over static
// scheduling on a simulated 32-core processor; the software-only
// reconfiguration cost "rises with the number of cores".
//
// Flags: --cores=32 --task-cycles=1000000 (plus the harness flags, see
// bench/harness.hpp)
#include <cstdio>
#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "rsu/rsu.hpp"
#include "runtime/graph.hpp"

RAA_BENCHMARK("fig2_criticality_rsu", "§3.1 Figure 2", "cores", "task-cycles") {
  const auto cores = ctx.flag("cores", 32u, raa::bench::kMaxCores);
  const double c = ctx.flag("task-cycles", 1.0e6, 0, 0);  // ~500us tasks
  ctx.report.set_param("cores", std::to_string(cores));

  using raa::tdg::Graph;
  using raa::tdg::Synthetic;
  struct Workload {
    const char* name;
    Graph graph;
  };
  const std::vector<Workload> workloads = {
      {"cholesky-8", Synthetic::cholesky(8, c)},
      {"cholesky-10", Synthetic::cholesky(10, c)},
      {"pipeline-64x8", Synthetic::pipeline(64, 8, c)},
      {"layered-narrow", Synthetic::layered_random(40, 8, 2, c / 4, c, 7)},
      {"layered-medium", Synthetic::layered_random(30, 12, 3, c / 4, c, 9)},
      {"chain-100", Synthetic::chain(100, c)},
  };

  if (ctx.printing())
    std::printf(
        "Sec. 3.1: criticality-aware DVFS vs static scheduling, %u cores "
        "(paper: +6.6%% perf, +20.0%% EDP)\n\n",
        cores);

  raa::sim::MachineConfig machine{.cores = cores};
  raa::Table table{{"workload", "parallelism", "perf RSU", "EDP RSU",
                    "perf SW-DVFS", "EDP SW-DVFS"}};
  std::vector<double> perf, edp;
  for (const auto& w : workloads) {
    const auto study = raa::rsu::run_criticality_study(w.graph, machine);
    perf.push_back(study.perf_improvement_rsu());
    edp.push_back(study.edp_improvement_rsu());
    ctx.report.record(std::string{"perf_improvement/"} + w.name,
                      study.perf_improvement_rsu(), "frac");
    ctx.report.record(std::string{"edp_improvement/"} + w.name,
                      study.edp_improvement_rsu(), "frac");
    const auto pct = [](double x) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%+.1f%%", 100.0 * x);
      return std::string{buf};
    };
    table.row(w.name, w.graph.parallelism(),
              pct(study.perf_improvement_rsu()),
              pct(study.edp_improvement_rsu()),
              pct(study.perf_improvement_sw()),
              pct(study.edp_improvement_sw()));
  }
  ctx.report.record("perf_improvement/avg", raa::mean(perf), "frac", 0.066);
  ctx.report.record("edp_improvement/avg", raa::mean(edp), "frac", 0.20);
  if (ctx.printing()) {
    table.print(std::cout);
    std::printf(
        "\nmeasured avg: perf %+.1f%%, EDP %+.1f%%  (paper: +6.6%% / "
        "+20.0%%)\n\n",
        100.0 * raa::mean(perf), 100.0 * raa::mean(edp));
  }

  // --- mechanism scaling: per-switch cost vs core count ---
  if (ctx.printing())
    std::printf("reconfiguration mechanism cost vs core count\n");
  raa::Table scaling{{"cores", "SW stall/switch (ns)", "RSU stall/switch (ns)"}};
  for (const unsigned p : {8u, 16u, 32u, 64u, 128u}) {
    // A wide fork-join forces simultaneous reconfiguration on all cores.
    const Graph g = Synthetic::fork_join(p, 2.0 * c, c / 8);
    raa::sim::MachineConfig m{.cores = p};
    raa::rsu::CriticalityGovernor sw{
        {.slack_fraction = 0.0, .reconfig = raa::rsu::software_dvfs()}};
    (void)raa::sim::replay(g, m, raa::sim::priority_bottom_level(), &sw);
    raa::rsu::CriticalityGovernor hw{
        {.slack_fraction = 0.0, .reconfig = raa::rsu::rsu_hardware()}};
    (void)raa::sim::replay(g, m, raa::sim::priority_bottom_level(), &hw);
    const auto per = [](const raa::rsu::CriticalityGovernor& gov) {
      return gov.reconfig_count() > 0
                 ? gov.reconfig_stall_ns() /
                       static_cast<double>(gov.reconfig_count())
                 : 0.0;
    };
    const std::string suffix = "/cores" + std::to_string(p);
    ctx.report.record("sw_stall_per_switch" + suffix, per(sw), "ns");
    ctx.report.record("rsu_stall_per_switch" + suffix, per(hw), "ns");
    scaling.row(static_cast<int>(p), per(sw), per(hw));
  }
  if (ctx.printing()) {
    scaling.print(std::cout);
    std::printf(
        "\nSW-only cost grows with cores (global-lock serialisation); the RSU "
        "stays flat — the Figure 2 motivation.\n");
  }
}
