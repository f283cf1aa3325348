// Ablation — §4 checkpoint interval: overhead of the rollback scheme as a
// function of the checkpoint period, against the (interval-free) FEIR.
//
// Flags: --grid=192 --scale=1 (grid multiplier for larger scenarios; plus
// the harness flags, see bench/harness.hpp)
#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "harness.hpp"
#include "solver/cg.hpp"

RAA_BENCHMARK("ablation_ckpt_interval", "§4 checkpoint-interval ablation",
              "grid", "scale") {
  const auto scale = ctx.flag<std::uint64_t>("scale", 1, raa::bench::kMaxScale);
  const auto grid =
      ctx.flag<std::uint64_t>("grid", 192, raa::bench::kMaxGrid) * scale;
  ctx.report.set_param("grid", std::to_string(grid));
  ctx.report.set_param("scale", std::to_string(scale));
  const auto a = raa::solver::laplacian_2d(grid, grid);
  const std::vector<double> b(a.n, 1.0);

  std::vector<double> x;
  const auto ideal = raa::solver::solve_cg(
      a, b, x, raa::solver::CgOptions{.rel_tolerance = 1e-8});
  const auto inject_at = ideal.iterations / 2;

  const auto with = [&](raa::solver::Recovery rec, std::size_t interval) {
    raa::solver::CgOptions opt;
    opt.rel_tolerance = 1e-8;
    opt.recovery = rec;
    opt.checkpoint_interval = interval;
    opt.fault =
        raa::solver::FaultSpec{.enabled = true, .iteration = inject_at};
    std::vector<double> x2;
    return raa::solver::solve_cg(a, b, x2, opt);
  };

  if (ctx.printing())
    std::printf(
        "Ablation: checkpoint interval (2-D Poisson %zux%zu, DUE at "
        "iteration %zu of %zu)\n\n",
        grid, grid, inject_at, ideal.iterations);
  raa::Table t{{"mechanism", "interval", "time overhead", "iterations"}};
  const auto pct = [&](double time_s) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%+.2f%%",
                  100.0 * (time_s / ideal.time_s - 1.0));
    return std::string{buf};
  };
  for (const std::size_t interval : {10u, 50u, 100u, 500u, 1000u}) {
    const auto r = with(raa::solver::Recovery::checkpoint, interval);
    ctx.report.record(
        "ckpt_overhead_frac/interval" + std::to_string(interval),
        r.time_s / ideal.time_s - 1.0, "frac");
    t.row("checkpoint", static_cast<long>(interval), pct(r.time_s),
          static_cast<long>(r.iterations));
  }
  const auto feir = with(raa::solver::Recovery::feir, 1000);
  ctx.report.record("overhead_frac/feir", feir.time_s / ideal.time_s - 1.0,
                    "frac");
  t.row("feir", "-", pct(feir.time_s), static_cast<long>(feir.iterations));
  const auto afeir = with(raa::solver::Recovery::afeir, 1000);
  ctx.report.record("overhead_frac/afeir",
                    afeir.time_s / ideal.time_s - 1.0, "frac");
  t.row("afeir", "-", pct(afeir.time_s),
        static_cast<long>(afeir.iterations));
  if (ctx.printing()) {
    t.print(std::cout);
    std::printf(
        "\nShort intervals pay constant checkpoint copies, long intervals "
        "pay rollback re-execution; FEIR avoids the trade-off entirely.\n");
  }
}
