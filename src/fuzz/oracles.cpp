#include "fuzz/oracles.hpp"

#include <memory>
#include <sstream>

#include "fuzz/genscenario.hpp"
#include "memsim/linetable.hpp"
#include "memsim/system.hpp"
#include "scenario/trace.hpp"

namespace raa::fuzz {

namespace {

/// Name the first field where the two Metrics disagree; equality is exact,
/// so any report means a real divergence, never FP noise.
std::string metrics_diff(const mem::Metrics& a, const mem::Metrics& b) {
  std::ostringstream os;
  os.precision(17);
  const auto d = [&](const char* name, auto x, auto y) {
    if (os.tellp() == 0 && x != y) os << name << ": " << x << " vs " << y;
  };
  d("cycles", a.cycles, b.cycles);
  d("noc_flit_hops", a.noc_flit_hops, b.noc_flit_hops);
  d("e_l1", a.e_l1, b.e_l1);
  d("e_l2", a.e_l2, b.e_l2);
  d("e_spm", a.e_spm, b.e_spm);
  d("e_dram", a.e_dram, b.e_dram);
  d("e_noc", a.e_noc, b.e_noc);
  d("e_dir", a.e_dir, b.e_dir);
  d("e_static", a.e_static, b.e_static);
  d("accesses", a.accesses, b.accesses);
  d("l1_hits", a.l1_hits, b.l1_hits);
  d("l1_misses", a.l1_misses, b.l1_misses);
  d("l2_hits", a.l2_hits, b.l2_hits);
  d("l2_misses", a.l2_misses, b.l2_misses);
  d("spm_hits", a.spm_hits, b.spm_hits);
  d("dram_line_reads", a.dram_line_reads, b.dram_line_reads);
  d("dram_line_writes", a.dram_line_writes, b.dram_line_writes);
  d("dram_row_hits", a.dram_row_hits, b.dram_row_hits);
  d("dram_row_misses", a.dram_row_misses, b.dram_row_misses);
  d("dram_row_conflicts", a.dram_row_conflicts, b.dram_row_conflicts);
  d("dram_refreshes", a.dram_refreshes, b.dram_refreshes);
  d("invalidations", a.invalidations, b.invalidations);
  d("writebacks", a.writebacks, b.writebacks);
  d("prefetch_fills", a.prefetch_fills, b.prefetch_fills);
  d("dma_transfers", a.dma_transfers, b.dma_transfers);
  d("guarded_lookups", a.guarded_lookups, b.guarded_lookups);
  d("guarded_to_spm", a.guarded_to_spm, b.guarded_to_spm);
  d("remote_spm_accesses", a.remote_spm_accesses, b.remote_spm_accesses);
  return os.tellp() == 0 ? std::string{"metrics differ"} : os.str();
}

}  // namespace

std::optional<Divergence> check_oracles(const scen::Scenario& s,
                                        const OracleOptions& opt) {
  if (opt.check_marker) {
    for (const auto& r : s.regions)
      if (r.name.rfind(kMarkerRegionName, 0) == 0)
        return Divergence{Oracle::marker, mem::HierarchyMode::cache_only,
                          "synthetic marker region '" + r.name + "' present"};
  }

  // Serializer round trip first: structural, mode-independent. The parsed
  // copy also re-runs below so a to_json/parse asymmetry that happens to
  // compare field-equal would still surface as a metrics mismatch.
  std::string err;
  const auto parsed = scen::Scenario::parse(s.to_json(), &err);
  if (!parsed)
    return Divergence{Oracle::roundtrip, mem::HierarchyMode::cache_only,
                      "serialized scenario fails to parse: " + err};
  if (!(*parsed == s))
    return Divergence{Oracle::roundtrip, mem::HierarchyMode::cache_only,
                      "parse(to_json()) is not field-identical"};

  for (const mem::HierarchyMode mode : s.hierarchy_modes()) {
    // Reference leg: paged store, recorded as it runs.
    auto trace = std::make_shared<scen::TraceData>();
    mem::Workload w = s.instantiate();
    scen::record_workload(w, s.config, mode, *trace);
    const mem::Metrics ref =
        mem::run_with_store(s.config, mode, w, mem::LineStore::paged);

    {
      mem::Workload w2 = s.instantiate();
      const mem::Metrics m =
          mem::run_with_store(s.config, mode, w2, mem::LineStore::hashed);
      if (!(m == ref))
        return Divergence{Oracle::store, mode, metrics_diff(ref, m)};
    }
    {
      mem::Workload w2 = scen::make_replay_workload(trace);
      const mem::Metrics m =
          mem::run_with_store(s.config, mode, w2, mem::LineStore::paged);
      if (!(m == ref))
        return Divergence{Oracle::replay, mode, metrics_diff(ref, m)};
    }
    {
      mem::Workload w2 = parsed->instantiate();
      const mem::Metrics m =
          mem::run_with_store(parsed->config, mode, w2, mem::LineStore::paged);
      if (!(m == ref))
        return Divergence{Oracle::roundtrip, mode, metrics_diff(ref, m)};
    }
  }

  // Backend oracle: a forced-banked copy must satisfy the same determinism
  // contract (recorded run == trace replay). When the scenario already
  // selected banked the main battery covered it above.
  if (s.config.memory.kind != mem::MemBackendKind::banked) {
    scen::Scenario b = s;
    b.config.memory.kind = mem::MemBackendKind::banked;
    for (const mem::HierarchyMode mode : b.hierarchy_modes()) {
      auto trace = std::make_shared<scen::TraceData>();
      mem::Workload w = b.instantiate();
      scen::record_workload(w, b.config, mode, *trace);
      const mem::Metrics ref =
          mem::run_with_store(b.config, mode, w, mem::LineStore::paged);
      mem::Workload w2 = scen::make_replay_workload(trace);
      const mem::Metrics m =
          mem::run_with_store(b.config, mode, w2, mem::LineStore::paged);
      if (!(m == ref))
        return Divergence{Oracle::backend, mode,
                          "banked record vs replay: " + metrics_diff(ref, m)};
    }
  }
  return std::nullopt;
}

}  // namespace raa::fuzz
