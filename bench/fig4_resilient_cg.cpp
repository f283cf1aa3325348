// Figure 4 — "CG execution example with a single error occurring at the
// same time for all implemented mechanisms": convergence (log10 relative
// residual) over time for Ideal / Ckpt / Lossy Restart / FEIR / AFEIR.
//
// Paper reference shape: the checkpoint scheme rolls back (visible time
// overhead), the lossy restart converges at a shallower slope, FEIR tracks
// the ideal run closely and AFEIR has an even smaller overhead.
//
// The matrix is a 2-D Poisson stand-in for thermal2 (see the substitution
// table in docs/ARCHITECTURE.md);
// --grid sets the side (n = grid^2).
//
// Flags: --grid=256 --inject-frac=0.5 --ckpt-interval=1000 --series (plus
// the harness flags, see bench/harness.hpp)
#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "harness.hpp"
#include "solver/cg.hpp"

namespace {

raa::solver::CgResult run(const raa::solver::Csr& a,
                          std::span<const double> b,
                          raa::solver::Recovery rec, std::size_t inject_at,
                          std::size_t ckpt_interval) {
  raa::solver::CgOptions opt;
  opt.rel_tolerance = 1e-8;
  opt.recovery = rec;
  opt.checkpoint_interval = ckpt_interval;
  if (rec != raa::solver::Recovery::none)
    opt.fault = raa::solver::FaultSpec{.enabled = true,
                                       .iteration = inject_at,
                                       .target = raa::solver::FaultTarget::x,
                                       .block = 5,
                                       .num_blocks = 16};
  std::vector<double> x;
  return raa::solver::solve_cg(a, b, x, opt);
}

}  // namespace

RAA_BENCHMARK("fig4_resilient_cg", "§4 Figure 4",
              "ckpt-interval", "grid", "inject-frac", "series") {
  const raa::Cli& cli = ctx.cli;
  const auto grid = ctx.flag<std::uint64_t>("grid", 256, raa::bench::kMaxGrid);
  const double inject_frac =
      ctx.flag("inject-frac", 0.5, 0, raa::json::bind::fraction);
  const auto ckpt_interval = ctx.flag<std::uint64_t>(
      "ckpt-interval", 1000, raa::bench::kMaxCkptInterval);
  const bool series = cli.get_bool("series", false);
  ctx.report.set_param("grid", std::to_string(grid));
  ctx.report.set_param("ckpt_interval", std::to_string(ckpt_interval));

  const auto a = raa::solver::laplacian_2d(grid, grid);
  const std::vector<double> b(a.n, 1.0);
  if (ctx.printing())
    std::printf(
        "Figure 4: CG with one DUE (thermal2 stand-in: 2-D Poisson %zux%zu, "
        "n=%zu, nnz=%zu)\n\n",
        grid, grid, a.n, a.nnz());

  // Ideal run defines the injection point (paper: ~30 s of ~70 s).
  const auto ideal = run(a, b, raa::solver::Recovery::none, 0, ckpt_interval);
  const auto inject_at = static_cast<std::size_t>(
      inject_frac * static_cast<double>(ideal.iterations));

  struct Series {
    const char* name;
    raa::solver::CgResult result;
  };
  const std::vector<Series> all = {
      {"Ideal", ideal},
      {"Ckpt", run(a, b, raa::solver::Recovery::checkpoint, inject_at,
                   ckpt_interval)},
      {"Lossy Restart",
       run(a, b, raa::solver::Recovery::lossy_restart, inject_at,
           ckpt_interval)},
      {"FEIR", run(a, b, raa::solver::Recovery::feir, inject_at,
                   ckpt_interval)},
      {"AFEIR", run(a, b, raa::solver::Recovery::afeir, inject_at,
                    ckpt_interval)},
  };

  raa::Table summary{{"mechanism", "time (ms)", "overhead vs ideal",
                      "iterations", "recovery (us)"}};
  for (const auto& s : all) {
    const std::string key{s.name == std::string{"Lossy Restart"}
                              ? "LossyRestart"
                              : s.name};
    ctx.report.record("time_ms/" + key, 1e3 * s.result.time_s, "ms");
    ctx.report.record("overhead_frac/" + key,
                      s.result.time_s / ideal.time_s - 1.0, "frac");
    ctx.report.record("iterations/" + key,
                      static_cast<double>(s.result.iterations), "iters");
    char over[32], rec[32];
    std::snprintf(over, sizeof over, "%+.2f%%",
                  100.0 * (s.result.time_s / ideal.time_s - 1.0));
    std::snprintf(rec, sizeof rec, "%.1f", 1e6 * s.result.recovery_time_s);
    summary.row(s.name, 1e3 * s.result.time_s, std::string{over},
                static_cast<long>(s.result.iterations), std::string{rec});
  }
  if (ctx.printing()) {
    summary.print(std::cout);
    std::printf(
        "\nDUE injected at iteration %zu (%.0f%% of the ideal solve); paper "
        "shape: Ckpt pays a rollback, Lossy Restart converges slower, FEIR "
        "tracks Ideal, AFEIR overhead is smallest.\n",
        inject_at, 100.0 * inject_frac);
  }

  if (ctx.printing() && series) {
    std::printf("\ntime_ms log10_rel_residual per mechanism\n");
    for (const auto& s : all) {
      std::printf("# %s\n", s.name);
      const auto& tr = s.result.trace;
      const std::size_t step = std::max<std::size_t>(1, tr.size() / 40);
      for (std::size_t i = 0; i < tr.size(); i += step)
        std::printf("%.3f %.3f\n", 1e3 * tr[i].time_s,
                    std::log10(std::max(tr[i].rel_residual, 1e-300)));
    }
  }
}
