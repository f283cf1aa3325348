// Figure 5 — "Scalability comparison between OmpSs and Pthreads" for
// bodytrack and facesim on a 16-core machine.
//
// Paper reference shape: the OmpSs ports reach ~12x (bodytrack) and ~10x
// (facesim) at 16 cores by overlapping the serial I/O stages with
// computation; the Pthreads originals saturate lower (fork-join barriers).
//
// Scaling is replayed on a simulated machine (this container has one CPU;
// see the substitution table in docs/ARCHITECTURE.md).
// Flags: --cores=16 --frames=30 --scale=1 (frame-count multiplier for
// larger scenarios; plus the harness flags, see bench/harness.hpp)
#include <cstdio>
#include <iostream>

#include "apps/miniapps.hpp"
#include "common/table.hpp"
#include "harness.hpp"

RAA_BENCHMARK("fig5_task_scalability", "§5 Figure 5",
              "cores", "frames", "scale") {
  const auto cores = ctx.flag("cores", 16u, raa::bench::kMaxCores);
  const auto scale = ctx.flag<std::uint64_t>("scale", 1, raa::bench::kMaxScale);
  const auto frames =
      ctx.flag<std::uint64_t>("frames", 30, raa::bench::kMaxFrames) * scale;
  ctx.report.set_param("cores", std::to_string(cores));
  ctx.report.set_param("frames", std::to_string(frames));
  ctx.report.set_param("scale", std::to_string(scale));

  if (ctx.printing())
    std::printf(
        "Figure 5: OmpSs (dataflow) vs Pthreads (fork-join) scalability on a "
        "simulated %u-core machine\n\n",
        cores);

  struct App {
    const char* name;
    raa::tdg::Graph original;
    raa::tdg::Graph ompss;
  };
  const std::vector<App> apps = {
      {"bodytrack",
       raa::apps::bodytrack_tdg(frames, 32, raa::apps::Style::forkjoin),
       raa::apps::bodytrack_tdg(frames, 32, raa::apps::Style::dataflow)},
      {"facesim",
       raa::apps::facesim_tdg(frames, 32, raa::apps::Style::forkjoin),
       raa::apps::facesim_tdg(frames, 32, raa::apps::Style::dataflow)},
  };

  for (const auto& app : apps) {
    const auto orig = raa::apps::scalability_curve(app.original, cores);
    const auto ompss = raa::apps::scalability_curve(app.ompss, cores);
    // One replay per machine width per variant.
    ctx.add_tasks(static_cast<double>(app.original.node_count() +
                                      app.ompss.node_count()) *
                  static_cast<double>(cores));
    const double paper_at_16 =
        std::string(app.name) == "bodytrack" ? 12.0 : 10.0;
    for (const unsigned p : {cores / 2, cores}) {
      if (p == 0) continue;
      const std::string suffix = "_at" + std::to_string(p);
      ctx.report.record(std::string{"speedup_pthreads/"} + app.name + suffix,
                        orig[p - 1], "x");
      ctx.report.record(
          std::string{"speedup_ompss/"} + app.name + suffix, ompss[p - 1],
          "x", p == 16 ? std::optional<double>{paper_at_16} : std::nullopt);
    }
    if (ctx.printing()) {
      std::printf("%s speedup vs threads (paper: OmpSs ~%.0fx at 16)\n",
                  app.name, paper_at_16);
      raa::Table t{{"threads", "Original (Pthreads)", "OmpSs"}};
      for (unsigned p = 2; p <= cores; p += 2)
        t.row(static_cast<int>(p), orig[p - 1], ompss[p - 1]);
      t.print(std::cout);
      std::printf("\n");
    }
  }
  if (ctx.printing())
    std::printf(
        "The dataflow ports overlap the per-frame serial stage with the "
        "previous frame's parallel work; the fork-join originals cannot.\n");
}
