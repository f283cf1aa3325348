// fig1_banked — row-buffer locality sweep under the banked DRAM backend.
//
// The paper's Figure 1 comparison uses a flat DRAM latency, which hides
// the locality axis a real memory controller exposes: linear SPM/DMA
// traffic streams whole row buffers (row hits) while cache-only miss
// streams scatter across banks (conflicts). This bench runs the NAS-like
// kernels under both hierarchy modes with the banked backend across a
// row-buffer-size sweep and reports, per row size:
//   row_hit_rate/<mode>/rbN       mean row-buffer hit fraction
//   row_conflict_rate/<mode>/rbN  mean conflict fraction
//   time_x_flat/<mode>/rbN        mean flat-backend cycles / banked cycles
//
// Flags: --tiles=16 --scale=1 (plus the harness flags, bench/harness.hpp).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "kernels/nas.hpp"
#include "memsim/system.hpp"

RAA_BENCHMARK("fig1_banked", "§2 Figure 1 (banked-DRAM row locality)",
              "scale", "tiles") {
  raa::mem::SystemConfig cfg;
  cfg.tiles = ctx.flag("tiles", 16u, raa::bench::kMaxTiles);
  cfg.mesh_x = cfg.tiles >= 64 ? 8 : 4;
  cfg.mesh_y = cfg.tiles / cfg.mesh_x;
  const unsigned scale = ctx.flag("scale", 1u, raa::bench::kMaxScale);
  ctx.report.set_param("tiles", std::to_string(cfg.tiles));
  ctx.report.set_param("scale", std::to_string(scale));

  constexpr unsigned kRowBytes[] = {1024, 2048, 4096};

  if (ctx.printing())
    std::printf(
        "Banked DRAM row-locality sweep: NAS-like kernels, %u tiles, "
        "row buffer 1-4 KiB (flat backend as the timing reference)\n\n",
        cfg.tiles);

  raa::Table table{{"mode", "row KiB", "hit rate", "conflict rate",
                    "time x flat"}};
  for (const auto mode : {raa::mem::HierarchyMode::cache_only,
                          raa::mem::HierarchyMode::hybrid}) {
    // Flat reference cycles per kernel (row size is irrelevant there).
    std::vector<double> flat_cycles;
    for (const auto& kernel : raa::kern::nas_kernels()) {
      raa::mem::Workload w = kernel.make(cfg, scale);
      raa::mem::System sys{cfg, mode};
      const raa::mem::Metrics m = sys.run(w);
      ctx.add_accesses(static_cast<double>(m.accesses));
      flat_cycles.push_back(m.cycles);
    }

    for (const unsigned rb : kRowBytes) {
      raa::mem::SystemConfig bcfg = cfg;
      bcfg.memory.kind = raa::mem::MemBackendKind::banked;
      bcfg.memory.banked.row_bytes = rb;
      std::vector<double> hit, conflict, time_x;
      std::size_t ki = 0;
      for (const auto& kernel : raa::kern::nas_kernels()) {
        raa::mem::Workload w = kernel.make(bcfg, scale);
        raa::mem::System sys{bcfg, mode};
        const raa::mem::Metrics m = sys.run(w);
        ctx.add_accesses(static_cast<double>(m.accesses));
        const double total = static_cast<double>(
            m.dram_row_hits + m.dram_row_misses + m.dram_row_conflicts);
        hit.push_back(total > 0 ? m.dram_row_hits / total : 0.0);
        conflict.push_back(total > 0 ? m.dram_row_conflicts / total : 0.0);
        time_x.push_back(flat_cycles[ki++] / m.cycles);
      }
      const std::string tag = std::string{raa::mem::to_string(mode)} +
                              "/rb" + std::to_string(rb);
      ctx.report.record("row_hit_rate/" + tag, raa::mean(hit), "frac");
      ctx.report.record("row_conflict_rate/" + tag, raa::mean(conflict),
                        "frac");
      ctx.report.record("time_x_flat/" + tag, raa::mean(time_x), "x");
      table.row(raa::mem::to_string(mode),
                static_cast<unsigned long>(rb / 1024), raa::mean(hit),
                raa::mean(conflict), raa::mean(time_x));
    }
  }
  if (ctx.printing()) table.print(std::cout);
}
