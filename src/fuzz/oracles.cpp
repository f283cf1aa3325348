#include "fuzz/oracles.hpp"

#include <sstream>

#include "fuzz/genscenario.hpp"
#include "memsim/system.hpp"
#include "scenario/trace.hpp"

namespace raa::fuzz {

namespace {

/// Name the first field where the two Metrics disagree; equality is exact,
/// so any report means a real divergence, never FP noise.
std::string metrics_diff(const mem::Metrics& a, const mem::Metrics& b) {
  std::ostringstream os;
  os.precision(17);
  const auto first = [&](const auto& fields) {
    for (const auto& f : fields)
      if (a.*f.member != b.*f.member) {
        os << f.name << ": " << a.*f.member << " vs " << b.*f.member;
        return true;
      }
    return false;
  };
  return first(mem::kMetricsReals) || first(mem::kMetricsCounts)
             ? os.str()
             : std::string{"metrics differ"};
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
    // Reference leg, recorded as it runs and replayed from its encoding.
    std::string why;
    const auto rr =
        scen::record_and_replay(s.instantiate(), s.config, mode, &why);
    if (!rr)
      return Divergence{Oracle::replay, mode,
                        "trace does not survive encoding: " + why};
    if (!(rr->replayed == rr->recorded))
      return Divergence{Oracle::replay, mode,
                        metrics_diff(rr->recorded, rr->replayed)};

    mem::Workload w2 = parsed->instantiate();
    const mem::Metrics m = mem::System{parsed->config, mode}.run(w2);
    if (!(m == rr->recorded))
      return Divergence{Oracle::roundtrip, mode,
                        metrics_diff(rr->recorded, m)};
  }

  // Backend oracle: a forced-banked copy must satisfy the same determinism
  // contract (recorded run == trace replay). When the scenario already
  // selected banked the main battery covered it above.
  if (s.config.memory.kind != mem::MemBackendKind::banked) {
    scen::Scenario b = s;
    b.config.memory.kind = mem::MemBackendKind::banked;
    for (const mem::HierarchyMode mode : b.hierarchy_modes()) {
      std::string why;
      const auto rr =
          scen::record_and_replay(b.instantiate(), b.config, mode, &why);
      if (!rr)
        return Divergence{Oracle::backend, mode,
                          "banked trace does not survive encoding: " + why};
      if (!(rr->replayed == rr->recorded))
        return Divergence{Oracle::backend, mode,
                          "banked record vs replay: " +
                              metrics_diff(rr->recorded, rr->replayed)};
    }
  }
  return std::nullopt;
}

}  // namespace raa::fuzz
