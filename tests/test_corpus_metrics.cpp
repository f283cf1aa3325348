// Corpus Metrics golden: every scenarios/*.json runs under both hierarchy
// modes and both DRAM backends, and every Metrics field of every run is
// pinned byte for byte in tests/data/corpus_metrics.golden.txt (doubles as
// %a hexfloats, so FP sums are exact). This is the simulator's end-to-end
// reference: it covers the real generators, both hierarchies and both DRAM
// models, so a protocol change that moves any counter or energy sum shows
// up here as a named field.
//
// After an intended behaviour change, regenerate the golden by copying the
// actual text the failing test writes to its temporary directory.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "golden_testing.hpp"
#include "memsim/config.hpp"
#include "memsim/system.hpp"
#include "scenario/scenario.hpp"

namespace {

using raa::mem::HierarchyMode;
using raa::mem::MemBackendKind;
using raa::mem::Metrics;
using raa::test_util::corpus;
using raa::test_util::kRoot;

/// One `name=value` line per Metrics field.
std::string metrics_text(const Metrics& m) {
  std::string out;
  char buf[64];
  for (const auto& f : raa::mem::kMetricsReals) {
    std::snprintf(buf, sizeof buf, "%s=%a\n", f.name, m.*f.member);
    out += buf;
  }
  for (const auto& f : raa::mem::kMetricsCounts) {
    std::snprintf(buf, sizeof buf, "%s=%" PRIu64 "\n", f.name, m.*f.member);
    out += buf;
  }
  return out;
}

TEST(CorpusMetrics, MatchCheckedInGolden) {
  const std::vector<std::string> files = corpus();
  ASSERT_FALSE(files.empty());
  std::string actual;
  for (const std::string& rel : files) {
    std::string error;
    const auto s =
        raa::scen::Scenario::load_file(kRoot + "/" + rel, &error);
    ASSERT_TRUE(s) << error;
    for (const HierarchyMode mode :
         {HierarchyMode::cache_only, HierarchyMode::hybrid}) {
      for (const MemBackendKind backend :
           {MemBackendKind::flat, MemBackendKind::banked}) {
        raa::mem::SystemConfig cfg = s->config;
        cfg.memory.kind = backend;
        raa::mem::Workload w = s->instantiate();
        const Metrics m = raa::mem::System{cfg, mode}.run(w);
        actual += "== " + rel + " " + raa::mem::to_string(mode) + " " +
                  raa::mem::to_string(backend) + "\n" + metrics_text(m);
      }
    }
  }

  raa::test_util::expect_matches_golden(actual, "corpus_metrics.golden.txt",
                                        "corpus_metrics.actual.txt");
}

}  // namespace
