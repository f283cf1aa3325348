// Figure 1 — "Performance, energy and NoC traffic speedup of the hybrid
// memory hierarchy on a 64-core processor with respect to a cache-only
// system" for the NAS-like kernels CG, EP, FT, IS, MG, SP.
//
// Paper reference values: average improvements of 14.7% (execution time),
// 18.5% (energy), 31.2% (NoC traffic); EP shows no degradation.
//
// Flags: --tiles=64 --scale=1 --verbose (plus the harness
// flags, see bench/harness.hpp). `fig1_paper_scale` additionally accepts
// --paper-scale=N (default 8) for the paper-scale working sets.
#include <cstdio>
#include <iostream>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "kernels/nas.hpp"
#include "memsim/system.hpp"

namespace {

/// Shared body of the default and paper-scale Figure 1 benchmarks.
void run_fig1(raa::bench::Context& ctx, unsigned tiles, unsigned scale) {
  const raa::Cli& cli = ctx.cli;
  raa::mem::SystemConfig cfg;
  cfg.tiles = tiles;
  // Square-ish mesh.
  cfg.mesh_x = 8;
  cfg.mesh_y = cfg.tiles / cfg.mesh_x;
  if (cfg.tiles == 16) cfg.mesh_x = cfg.mesh_y = 4;
  if (cfg.tiles == 32) {
    cfg.mesh_x = 8;
    cfg.mesh_y = 4;
  }
  const bool verbose = cli.get_bool("verbose", false);
  ctx.report.set_param("tiles", std::to_string(cfg.tiles));
  ctx.report.set_param("scale", std::to_string(scale));
  // The harness pool (when --jobs > 1) runs the cache_only/hybrid halves
  // concurrently; results are assigned by index, so no metric moves.
  const raa::mem::ComparisonOptions copt{.pool = ctx.pool};

  if (ctx.printing())
    std::printf(
        "Figure 1: hybrid SPM+cache hierarchy vs cache-only, %u tiles, "
        "scale %u (paper: avg 1.147x time, 1.185x energy, 1.312x NoC)\n\n",
        cfg.tiles, scale);

  raa::Table table{{"benchmark", "time x", "energy x", "noc x"}};
  std::vector<double> ts, es, ns;
  for (const auto& kernel : raa::kern::nas_kernels()) {
    const auto cmp = raa::mem::run_comparison(
        cfg, [&] { return kernel.make(cfg, scale); }, copt);
    const raa::mem::Metrics& base = cmp.cache_only;
    const raa::mem::Metrics& hybrid = cmp.hybrid;
    ctx.add_accesses(static_cast<double>(base.accesses) +
                     static_cast<double>(hybrid.accesses));
    const double t = base.cycles / hybrid.cycles;
    const double e = base.energy_pj() / hybrid.energy_pj();
    const double n = base.noc_flit_hops / hybrid.noc_flit_hops;
    ts.push_back(t);
    es.push_back(e);
    ns.push_back(n);
    ctx.report.record("time_x/" + kernel.name, t, "x");
    ctx.report.record("energy_x/" + kernel.name, e, "x");
    ctx.report.record("noc_x/" + kernel.name, n, "x");
    table.row(kernel.name, t, e, n);
    if (ctx.printing() && verbose) {
      std::printf(
          "  %s base:   l1m=%llu l2m=%llu dram_rd=%llu prefetch=%llu\n",
          kernel.name.c_str(),
          static_cast<unsigned long long>(base.l1_misses),
          static_cast<unsigned long long>(base.l2_misses),
          static_cast<unsigned long long>(base.dram_line_reads),
          static_cast<unsigned long long>(base.prefetch_fills));
      std::printf(
          "  %s hybrid: spm=%llu dma=%llu guarded=%llu remote_spm=%llu\n",
          kernel.name.c_str(),
          static_cast<unsigned long long>(hybrid.spm_hits),
          static_cast<unsigned long long>(hybrid.dma_transfers),
          static_cast<unsigned long long>(hybrid.guarded_lookups),
          static_cast<unsigned long long>(hybrid.remote_spm_accesses));
    }
  }
  table.row("AVG", raa::mean(ts), raa::mean(es), raa::mean(ns));
  ctx.report.record("time_x/avg", raa::mean(ts), "x", 1.147);
  ctx.report.record("energy_x/avg", raa::mean(es), "x", 1.185);
  ctx.report.record("noc_x/avg", raa::mean(ns), "x", 1.312);
  if (ctx.printing()) {
    table.print(std::cout);
    std::printf(
        "\nmeasured avg improvements: time %+.1f%%, energy %+.1f%%, "
        "NoC %+.1f%%  (paper: +14.7%% / +18.5%% / +31.2%%)\n",
        (raa::mean(ts) - 1.0) * 100.0, (raa::mean(es) - 1.0) * 100.0,
        (raa::mean(ns) - 1.0) * 100.0);
  }
}

}  // namespace

RAA_BENCHMARK("fig1_hybrid_memory", "§2 Figure 1") {
  run_fig1(ctx, static_cast<unsigned>(ctx.cli.get_int("tiles", 64)),
           static_cast<unsigned>(ctx.cli.get_int("scale", 1)));
}

// Paper-scale configuration: the full 64-tile chip with 8x the per-core
// working sets (multi-hundred-KiB per-core partitions, as in the paper's
// NAS class sizes). The flat-line fast path is what lets this fit in the
// bench-smoke CI budget.
RAA_BENCHMARK("fig1_paper_scale", "§2 Figure 1 (paper-scale working sets)") {
  run_fig1(ctx, 64,
           static_cast<unsigned>(ctx.cli.get_int("paper-scale", 8)));
}
