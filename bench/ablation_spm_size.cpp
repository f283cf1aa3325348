// Ablation — scratchpad size: how much SPM does the Figure 1 result need?
// Sweeps the per-tile SPM (which bounds how many strided streams can be
// double-buffered) via the DMA chunk size, on the stream-heaviest kernel
// (SP) and the gather-heavy one (CG).
//
// Flags: --tiles=64 --scale=1 (plus the harness flags, see
// bench/harness.hpp)
#include <cstdio>
#include <iostream>

#include "common/table.hpp"
#include "harness.hpp"
#include "kernels/nas.hpp"
#include "memsim/system.hpp"

RAA_BENCHMARK("ablation_spm_size", "§2 SPM-size ablation", "scale", "tiles") {
  raa::mem::SystemConfig base_cfg;
  base_cfg.tiles = ctx.flag("tiles", 64u, raa::bench::kMaxTiles);
  const auto scale = ctx.flag("scale", 1u, raa::bench::kMaxScale);
  ctx.report.set_param("tiles", std::to_string(base_cfg.tiles));
  ctx.report.set_param("scale", std::to_string(scale));

  if (ctx.printing())
    std::printf(
        "Ablation: DMA chunk size (per-stream SPM budget) vs hybrid "
        "speedup\n\n");
  raa::Table t{{"chunk KiB", "SP time x", "SP noc x", "CG time x",
                "CG noc x"}};
  for (const unsigned chunk_kib : {1u, 2u, 4u, 8u}) {
    raa::mem::SystemConfig cfg = base_cfg;
    cfg.dma_chunk_bytes = chunk_kib * 1024;
    // Keep the double-buffered footprint inside the SPM.
    cfg.spm_bytes = std::max(cfg.spm_bytes, 16 * cfg.dma_chunk_bytes);
    std::vector<std::string> row{std::to_string(chunk_kib)};
    for (const char* name : {"SP", "CG"}) {
      const auto& kernels = raa::kern::nas_kernels();
      const auto it =
          std::find_if(kernels.begin(), kernels.end(),
                       [&](const auto& k) { return k.name == name; });
      const auto cmp = raa::mem::run_comparison(
          cfg, [&] { return it->make(cfg, scale); },
          raa::mem::ComparisonOptions{.pool = ctx.pool});
      const raa::mem::Metrics& base = cmp.cache_only;
      const raa::mem::Metrics& hyb = cmp.hybrid;
      ctx.add_accesses(static_cast<double>(base.accesses) +
                       static_cast<double>(hyb.accesses));
      const double time_x = base.cycles / hyb.cycles;
      const double noc_x = base.noc_flit_hops / hyb.noc_flit_hops;
      const std::string suffix =
          std::string{"/"} + name + "_chunk" + std::to_string(chunk_kib);
      ctx.report.record("time_x" + suffix, time_x, "x");
      ctx.report.record("noc_x" + suffix, noc_x, "x");
      char a[32], b[32];
      std::snprintf(a, sizeof a, "%.3f", time_x);
      std::snprintf(b, sizeof b, "%.3f", noc_x);
      row.push_back(a);
      row.push_back(b);
    }
    t.row(std::move(row));
  }
  if (ctx.printing()) {
    t.print(std::cout);
    std::printf(
        "\nLarger chunks amortise DMA control and directory transactions; "
        "beyond a few KiB the return diminishes (SPM capacity pressure).\n");
  }
}
