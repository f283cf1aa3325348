// fig1_nas: the six NAS-like kernels on the 64-tile Figure 1 chip, each
// simulated under cache_only and hybrid, serially, with the default
// RunOptions (no shards, no pool, paged line store) and the flat DRAM
// model. This is where the memsim commit loop does nearly all the work;
// the kernel x mode rows split it across the protocol paths (cache/DRAM,
// SPM/DMA, guarded, L1-hit/compute-gap). The NAS generators take no seed,
// so the workload is seed-free: --seed changes nothing here.
#include <array>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "kernels/nas.hpp"
#include "memsim/system.hpp"

namespace perfbench {
namespace {

namespace mem = raa::mem;

/// Working-set multiplier. At 4 the FT and IS per-core working sets
/// (768 KiB, 1 MiB) exceed the 512 KiB L2 bank of their tile and CG, MG
/// and SP come within 25% of it, as the paper-scale runs do, while one
/// pass of all twelve simulations still fits a run.
constexpr unsigned kScale = 4;
/// Accesses per fill() call: the memsim run loop's own batch size.
constexpr std::size_t kFillBatch = 64;

constexpr std::array<mem::HierarchyMode, 2> kModes = {
    mem::HierarchyMode::cache_only, mem::HierarchyMode::hybrid};

const char* mode_name(mem::HierarchyMode m) {
  return m == mem::HierarchyMode::hybrid ? "hybrid" : "cache_only";
}

/// Every Metrics field in exact text form, for goldens and the digest.
std::vector<std::pair<const char*, std::string>> fields(const mem::Metrics& m) {
  const auto u = [](std::uint64_t v) { return std::to_string(v); };
  return {{"cycles", hexfloat(m.cycles)},
          {"noc_flit_hops", hexfloat(m.noc_flit_hops)},
          {"e_l1", hexfloat(m.e_l1)},
          {"e_l2", hexfloat(m.e_l2)},
          {"e_spm", hexfloat(m.e_spm)},
          {"e_dram", hexfloat(m.e_dram)},
          {"e_noc", hexfloat(m.e_noc)},
          {"e_dir", hexfloat(m.e_dir)},
          {"e_static", hexfloat(m.e_static)},
          {"accesses", u(m.accesses)},
          {"l1_hits", u(m.l1_hits)},
          {"l1_misses", u(m.l1_misses)},
          {"l2_hits", u(m.l2_hits)},
          {"l2_misses", u(m.l2_misses)},
          {"spm_hits", u(m.spm_hits)},
          {"dram_line_reads", u(m.dram_line_reads)},
          {"dram_line_writes", u(m.dram_line_writes)},
          {"dram_row_hits", u(m.dram_row_hits)},
          {"dram_row_misses", u(m.dram_row_misses)},
          {"dram_row_conflicts", u(m.dram_row_conflicts)},
          {"dram_refreshes", u(m.dram_refreshes)},
          {"invalidations", u(m.invalidations)},
          {"writebacks", u(m.writebacks)},
          {"prefetch_fills", u(m.prefetch_fills)},
          {"dma_transfers", u(m.dma_transfers)},
          {"guarded_lookups", u(m.guarded_lookups)},
          {"guarded_to_spm", u(m.guarded_to_spm)},
          {"remote_spm_accesses", u(m.remote_spm_accesses)}};
}

/// One kernel x mode simulation of a pass.
struct Row {
  std::string name;  ///< "<kernel>.<mode>"
  mem::HierarchyMode mode{};
  double run_s = 0.0;
  double run_cpu_s = 0.0;
  double fill_s = 0.0;  ///< traced passes: fill()-only drain
  std::size_t gauge_mark = 0;  ///< HostGauge mark taken before the run
  mem::Metrics metrics;
};

struct Pass {
  double run_s = 0.0;  ///< sum of System::run over the pass
  std::uint64_t accesses = 0;
  std::vector<Row> rows;
};

/// Build every workload and System of a pass without running them: one
/// setup_s sample. One runs before each simulation, so that the samples
/// spread over the run like the simulations do.
double setup_round(const mem::SystemConfig& cfg) {
  double s = 0.0;
  for (const auto& kernel : raa::kern::nas_kernels())
    for (const mem::HierarchyMode mode : kModes) {
      const double c0 = process_cpu_s();
      mem::Workload w = kernel.make(cfg, kScale);
      mem::System sys{cfg, mode};
      s += process_cpu_s() - c0;
    }
  return s;
}

/// One kernel x mode simulation, with a setup_s sample before it.
Row run_row(const mem::SystemConfig& cfg, const raa::kern::KernelFactory& kernel,
            mem::HierarchyMode mode, Tracer& tracer, bool traced,
            std::uint64_t id, std::vector<Sample>& setup) {
  Row row{kernel.name + "." + mode_name(mode), mode};
  row.gauge_mark = gauge().mark();
  setup.push_back({setup_round(cfg), row.gauge_mark});
  Timer sim{tracer, "fig1.sim", id};
  Timer make{tracer, "kernels.make", id};
  mem::Workload w = kernel.make(cfg, kScale);
  make.stop();
  Timer construct{tracer, "memsim.construct", id};
  mem::System sys{cfg, mode};
  construct.stop();
  Timer run{tracer, "memsim.run", id};
  row.metrics = sys.run(w);
  row.run_s = run.stop();
  row.run_cpu_s = run.cpu_s();
  if (traced) {
    // The same access streams drained through fill() alone: the front
    // end's share of System::run.
    mem::Workload twin = kernel.make(cfg, kScale);
    std::array<mem::Access, kFillBatch> buf;
    std::uint64_t drained = 0;
    Timer fill{tracer, "kernels.fill", id};
    for (auto& program : twin.programs)
      while (const std::size_t n = program->fill(buf)) drained += n;
    row.fill_s = fill.stop();
    if (drained != row.metrics.accesses)
      row.fill_s = -1.0;  // flagged as a failed check by the caller
  }
  return row;
}

Pass run_pass(const mem::SystemConfig& cfg, Tracer& tracer, bool traced,
              std::uint64_t& sim_id, std::vector<Sample>& setup) {
  Pass pass;
  for (const auto& kernel : raa::kern::nas_kernels()) {
    for (const mem::HierarchyMode mode : kModes) {
      Row row = run_row(cfg, kernel, mode, tracer, traced, ++sim_id, setup);
      pass.run_s += row.run_s;
      pass.accesses += row.metrics.accesses;
      pass.rows.push_back(std::move(row));
    }
  }
  return pass;
}

void print_share_table(const std::vector<Pass>& traced) {
  std::printf("# fig1_nas layer shares of System::run (traced passes)\n");
  std::printf("# %-16s %10s %10s %10s %8s %8s\n", "kernel.mode", "run_s",
              "fill_s", "commit_s", "fill%", "commit%");
  double run = 0.0, fill = 0.0;
  for (std::size_t r = 0; r < traced.front().rows.size(); ++r) {
    double rs = 0.0, fs = 0.0;
    for (const Pass& p : traced) {
      rs += p.rows[r].run_s;
      fs += p.rows[r].fill_s;
    }
    run += rs;
    fill += fs;
    std::printf("# %-16s %10.4f %10.4f %10.4f %7.2f%% %7.2f%%\n",
                traced.front().rows[r].name.c_str(), rs, fs, rs - fs,
                100.0 * fs / rs, 100.0 * (rs - fs) / rs);
  }
  std::printf("# %-16s %10.4f %10.4f %10.4f %7.2f%% %7.2f%%\n", "total", run,
              fill, run - fill, 100.0 * fill / run,
              100.0 * (run - fill) / run);
}

}  // namespace

Outcome run_fig1_nas(const Options& opt, Tracer& tracer) {
  const mem::SystemConfig cfg;  // the Figure 1 chip: 64 tiles, 8x8 mesh
  Goldens goldens{opt.goldens_dir + "/fig1_nas.txt", opt.write_goldens};
  Outcome out;
  Digest digest;

  std::vector<Sample> setup;
  std::vector<Pass> untraced, traced;
  std::uint64_t sim_id = 0;
  bool first = true;
  const auto check = [&](const Row& row) {
    bool ok = row.fill_s >= 0.0;
    for (const auto& [field, value] : fields(row.metrics)) {
      const std::string key = row.name + "." + field;
      if (first) digest.add(key + "=" + value);
      ok = goldens.matches(key, value).value_or(false) && ok;
    }
    out.checks.op(ok, "fig1_nas " + row.name + " metrics != golden");
  };
  // No warm-up: a pass is a dozen multi-second simulations.
  const auto t0 = Clock::now();
  run_passes(
      opt, tracer, /*warm_up=*/false,
      [&](bool trace_this) {
        Pass pass = run_pass(cfg, tracer, trace_this, sim_id, setup);
        for (const Row& row : pass.rows) check(row);
        first = false;
        return pass;
      },
      untraced, traced);
  // An untraced run spends the time its last whole pass left on more runs
  // of the simulations, in pass order, while the next is predicted to fit:
  // a pass takes more than half a run, and a second run of most of the
  // simulations steadies their medians.
  std::vector<Row> extra;
  const auto& kernels = raa::kern::nas_kernels();
  const std::size_t n_rows = kernels.size() * kModes.size();
  for (std::size_t r = 0; !opt.trace; r = (r + 1) % n_rows) {
    if (since(t0) + untraced.front().rows[r].run_s > opt.seconds) break;
    extra.push_back(run_row(cfg, kernels[r / kModes.size()],
                            kModes[r % kModes.size()], tracer, false,
                            ++sim_id, setup));
    check(extra.back());
  }
  gauge().probe();  // closes the window of the last simulation
  if (opt.write_goldens)
    goldens.save(
        "# fig1_nas goldens: every Metrics field of each NAS kernel x mode\n"
        "# (64 tiles, scale 4, flat DRAM, serial). Seed-free. Regenerate with\n"
        "# run.py --workload fig1_nas --seconds 1 --write-goldens\n");
  out.digest = digest.hex();

  auto& m = out.metrics;
  if (!opt.trace) {
    std::vector<double> wall;
    for (const Pass& p : untraced) wall.push_back(p.run_s);
    std::printf("# %zu passes and %zu more simulations; a pass took %.4f s "
                "wall\n",
                untraced.size(), extra.size(), median(wall));
    // Every run of each simulation, by its position in a pass.
    std::vector<std::vector<const Row*>> runs(n_rows);
    for (const Pass& p : untraced)
      for (std::size_t r = 0; r < n_rows; ++r) runs[r].push_back(&p.rows[r]);
    for (std::size_t i = 0; i < extra.size(); ++i)
      runs[i % n_rows].push_back(&extra[i]);
    // Each simulation's CPU time is the median of its runs, each scaled by
    // the host gauge around it; a pass's is their sum.
    const auto metrics = [&](bool scaled) {
      std::vector<double> row_ms;
      for (const auto& rows : runs) {
        std::vector<double> v;
        for (const Row* row : rows)
          v.push_back(row->run_cpu_s * 1e3 *
                      (scaled ? gauge().scale(row->gauge_mark) : 1.0));
        row_ms.push_back(median(v));
      }
      double cpu = 0.0;
      for (const double ms : row_ms) cpu += ms * 1e-3;
      // A simulation is the unit of work here; its latency percentiles are
      // order statistics of the twelve kernel x mode simulations.
      return std::vector<Metric>{
          {"setup_s", scaled_median(setup, scaled), "s"},
          {"cpu_s", cpu, "s"},
          {"peak_rss_mb", peak_rss_mib(), "MiB"},
          {"sim_events_per_s",
           static_cast<double>(untraced.front().accesses) / cpu, "1/s"},
          {"throughput_per_s", static_cast<double>(n_rows) / cpu, "1/s"},
          {"latency_p50_ms", quantile(row_ms, 0.50), "ms"},
          {"latency_p95_ms", quantile(row_ms, 0.95), "ms"}};
    };
    print_unscaled(metrics(false));
    m = metrics(true);
    return out;
  }

  print_share_table(traced);
  const auto total = tracer.total_s();
  const double n = static_cast<double>(traced.size());
  std::uint64_t accesses = 0;
  for (const Pass& p : traced) accesses += p.accesses;
  const auto at = [&](const char* name) {
    const auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  };
  m.push_back({"kernels.make_s", at("kernels.make") / n, "s"});
  m.push_back({"memsim.construct_s", at("memsim.construct") / n, "s"});
  m.push_back({"kernels.fill_ns_per_access",
               at("kernels.fill") * 1e9 / static_cast<double>(accesses),
               "ns"});
  m.push_back({"memsim.commit_share",
               1.0 - at("kernels.fill") / at("memsim.run"), "fraction"});
  for (std::size_t r = 0; r < traced.front().rows.size(); ++r) {
    double s = 0.0;
    std::uint64_t a = 0;
    for (const Pass& p : traced) {
      s += p.rows[r].run_s;
      a += p.rows[r].metrics.accesses;
    }
    m.push_back({"memsim." + traced.front().rows[r].name + ".ns_per_access",
                 s * 1e9 / static_cast<double>(a), "ns"});
  }
  // Simulated event counts per mode (one pass): denominators for host ns
  // per event. DMA transfers and guarded lookups exist only in hybrid.
  for (const mem::HierarchyMode mode : kModes) {
    mem::Metrics sum;
    for (const Row& row : traced.front().rows) {
      if (row.mode != mode) continue;
      sum.l1_misses += row.metrics.l1_misses;
      sum.dram_line_reads += row.metrics.dram_line_reads;
      sum.dma_transfers += row.metrics.dma_transfers;
      sum.guarded_lookups += row.metrics.guarded_lookups;
      sum.invalidations += row.metrics.invalidations;
    }
    const std::string p = std::string{"memsim."} + mode_name(mode) + ".";
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    m.push_back({p + "l1_misses", count(sum.l1_misses), "count"});
    m.push_back({p + "dram_line_reads", count(sum.dram_line_reads), "count"});
    if (mode == mem::HierarchyMode::hybrid) {
      m.push_back({p + "dma_transfers", count(sum.dma_transfers), "count"});
      m.push_back(
          {p + "guarded_lookups", count(sum.guarded_lookups), "count"});
    }
    m.push_back({p + "invalidations", count(sum.invalidations), "count"});
  }
  std::vector<double> tw, uw;
  for (const Pass& p : traced) tw.push_back(p.run_s);
  for (const Pass& p : untraced) uw.push_back(p.run_s);
  m.push_back({"bench.trace_overhead_frac", median(tw) / median(uw) - 1.0,
               "fraction"});
  return out;
}

}  // namespace perfbench
