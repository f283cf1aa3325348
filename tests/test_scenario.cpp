// Scenario subsystem: declarative parsing/validation, the parameterized
// generators, and the trace record/replay round trip (the determinism
// contract: replaying a recorded run reproduces its Metrics exactly).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "kernels/program.hpp"
#include "memsim/system.hpp"
#include "memsim_testing.hpp"
#include "report/json.hpp"
#include "scenario/generators.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"

namespace {

using raa::kern::AddressSpace;
using raa::kern::Phase;
using raa::kern::ScriptedProgram;
using raa::kern::Stream;
using raa::kern::StreamKind;
using raa::mem::Access;
using raa::mem::HierarchyMode;
using raa::mem::Metrics;
using raa::mem::RefClass;
using raa::mem::Region;
using raa::mem::System;
using raa::mem::SystemConfig;
using raa::mem::Workload;
using raa::scen::Scenario;
using raa::scen::TraceData;
using raa::test_util::expect_metrics_equal;

SystemConfig small_cfg() {
  SystemConfig cfg;
  cfg.tiles = 4;
  cfg.mesh_x = 2;
  cfg.mesh_y = 2;
  cfg.l1_bytes = 4 * 1024;
  cfg.l2_bank_bytes = 16 * 1024;
  cfg.spm_bytes = 8 * 1024;
  cfg.dma_chunk_bytes = 1024;
  return cfg;
}

/// Drain a program through fill() in `batch`-sized chunks.
std::vector<Access> drain(raa::mem::CoreProgram& p, std::size_t batch) {
  std::vector<Access> all;
  std::vector<Access> buf(batch);
  std::size_t n = 0;
  while ((n = p.fill({buf.data(), buf.size()})) > 0)
    all.insert(all.end(), buf.begin(), buf.begin() + n);
  EXPECT_EQ(p.fill({buf.data(), buf.size()}), 0u);  // stays ended
  return all;
}

bool same_accesses(const std::vector<Access>& a,
                   const std::vector<Access>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].addr != b[i].addr || a[i].is_store != b[i].is_store ||
        a[i].ref != b[i].ref || a[i].gap_cycles != b[i].gap_cycles)
      return false;
  return true;
}

/// Mixed-class scripted workload (strided + guarded rmw + random) used by
/// the record/replay tests.
Workload mixed_workload(const SystemConfig& cfg, std::uint64_t seed) {
  Workload w;
  w.name = "mixed";
  AddressSpace as{cfg.dma_chunk_bytes};
  const std::uint64_t part = 2 * cfg.dma_chunk_bytes;
  const Region& shared =
      as.add(w, "shared", cfg.tiles * part, RefClass::strided);
  const Region& priv =
      as.add(w, "private", cfg.tiles * 2048, RefClass::random_noalias);
  for (unsigned c = 0; c < cfg.tiles; ++c) {
    std::vector<Phase> phases;
    phases.push_back(Phase{
        .streams = {Stream{.region = &shared, .store = (c % 2 == 1),
                           .start = c * part, .stride = 8}},
        .iterations = part / 8,
        .gap_cycles = 2});
    phases.push_back(Phase{
        .streams = {Stream{.region = &shared, .kind = StreamKind::random_rmw,
                           .ref = RefClass::random_unknown, .elem_bytes = 8},
                    Stream{.region = &priv, .kind = StreamKind::random,
                           .ref = RefClass::random_noalias,
                           .slice_bytes = 2048, .slice_base = c * 2048,
                           .elem_bytes = 8}},
        .iterations = 96,
        .gap_cycles = 3});
    w.programs.push_back(
        std::make_unique<ScriptedProgram>(std::move(phases), seed * 131 + c));
  }
  return w;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

// --------------------------------------------------------------------------
// Generators
// --------------------------------------------------------------------------

TEST(Generators, ZipfIsDeterministicAndSkewed) {
  raa::scen::ZipfParams p;
  p.slice = {1 << 20, 64 * 1024};
  p.accesses = 4000;
  p.hot_fraction = 0.1;
  p.hot_weight = 0.9;
  p.store_fraction = 0.25;
  raa::scen::ZipfProgram a{p, 42};
  raa::scen::ZipfProgram b{p, 42};
  const auto sa = drain(a, 64);
  const auto sb = drain(b, 1);  // next()-sized batches: same sequence
  EXPECT_EQ(sa.size(), 4000u);
  EXPECT_TRUE(same_accesses(sa, sb));

  const std::uint64_t hot_end =
      p.slice.base + (p.slice.bytes / 10 / 8) * 8;  // ~hot_fraction
  std::size_t hot = 0, stores = 0;
  for (const auto& acc : sa) {
    ASSERT_GE(acc.addr, p.slice.base);
    ASSERT_LT(acc.addr, p.slice.base + p.slice.bytes);
    if (acc.addr < hot_end) ++hot;
    if (acc.is_store) ++stores;
  }
  // hot_weight=0.9 with generous slack; a uniform draw would give ~10%.
  EXPECT_GT(hot, sa.size() * 7 / 10);
  EXPECT_GT(stores, sa.size() / 10);
  EXPECT_LT(stores, sa.size() / 2);

  raa::scen::ZipfProgram c{p, 43};
  EXPECT_FALSE(same_accesses(sa, drain(c, 64)));  // seed matters
}

TEST(Generators, PointerChaseVisitsEveryElementOncePerLap) {
  raa::scen::PointerChaseParams p;
  p.slice = {4096, 512};  // 64 elements
  p.accesses = 128;       // two laps
  raa::scen::PointerChaseProgram a{p, 7};
  const auto s = drain(a, 16);
  ASSERT_EQ(s.size(), 128u);
  std::vector<int> seen(64, 0);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_FALSE(s[i].is_store);
    seen[(s[i].addr - 4096) / 8]++;
  }
  for (const int k : seen) EXPECT_EQ(k, 1);  // a full cycle
  // Second lap repeats the first.
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(s[i].addr, s[64 + i].addr);
}

TEST(Generators, StencilHaloTapsCrossSlicesAsGuarded) {
  raa::scen::StencilParams p;
  p.in_region = {0, 4 * 256};  // 4 cores x 32 elements
  p.out_region = {1 << 16, 4 * 256};
  p.elem_offset = 32;  // core 1 of 4
  p.elems = 32;
  p.halo = 1;
  p.sweeps = 2;
  p.in_ref = RefClass::strided;
  raa::scen::StencilProgram a{p};
  const auto s = drain(a, 13);
  // Per element: 3 reads + 1 write; 32 elements x 2 sweeps.
  ASSERT_EQ(s.size(), 4u * 32 * 2);
  // First element: taps 31 (left halo, guarded), 32, 33, then write 32.
  EXPECT_EQ(s[0].addr, 31u * 8);
  EXPECT_EQ(s[0].ref, RefClass::random_unknown);
  EXPECT_EQ(s[1].addr, 32u * 8);
  EXPECT_EQ(s[1].ref, RefClass::strided);
  EXPECT_EQ(s[2].addr, 33u * 8);
  EXPECT_TRUE(s[3].is_store);
  EXPECT_EQ(s[3].addr, (1u << 16) + 32u * 8);
  // Last element of the slice reads tap 64 — the right halo, guarded.
  const auto& right_tap = s[4 * 31 + 2];
  EXPECT_EQ(right_tap.addr, 64u * 8);
  EXPECT_EQ(right_tap.ref, RefClass::random_unknown);
}

TEST(Generators, ProducerConsumerAlternatesOwnStoreAndPeerLoad) {
  raa::scen::ProducerConsumerParams p;
  p.ring = {0, 4 * 1024};
  p.slot_bytes = 1024;
  p.core = 0;
  p.cores = 4;
  p.iterations = 200;
  raa::scen::ProducerConsumerProgram a{p};
  const auto s = drain(a, 7);
  ASSERT_EQ(s.size(), 400u);
  for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
    EXPECT_TRUE(s[i].is_store);
    EXPECT_LT(s[i].addr, 1024u);  // own slot (core 0)
    EXPECT_FALSE(s[i + 1].is_store);
    EXPECT_GE(s[i + 1].addr, 3 * 1024u);  // left neighbour = core 3
  }
}

TEST(Generators, BurstyCarriesTheOffGapOnBurstHeads) {
  raa::scen::BurstyParams p;
  p.slice = {0, 8192};
  p.bursts = 5;
  p.burst_len = 50;
  p.gap_on = 2;
  p.gap_off = 777;
  raa::scen::BurstyProgram a{p, 3};
  const auto s = drain(a, 32);
  ASSERT_EQ(s.size(), 250u);
  for (std::size_t i = 0; i < s.size(); ++i)
    EXPECT_EQ(s[i].gap_cycles, i % 50 == 0 ? 777u : 2u) << i;
}

// --------------------------------------------------------------------------
// Scenario parsing + validation
// --------------------------------------------------------------------------

const char* kScenarioDoc = R"({
  "name": "t",
  "mode": "compare",
  "seed": 5,
  "config": {"tiles": 4, "mesh_x": 2, "mesh_y": 2,
             "l1_bytes": 4096, "l2_bank_bytes": 16384,
             "spm_bytes": 8192, "dma_chunk_bytes": 1024},
  "regions": [
    {"name": "grid", "bytes_per_core": 2048, "class": "strided"},
    {"name": "table", "bytes": 8192, "class": "random_unknown"}
  ],
  "programs": [
    {"cores": [0, 1], "generator": "scripted", "phases": [
      {"iterations": 256, "gap_cycles": 2, "streams": [
        {"region": "grid", "kind": "linear", "stride": 8},
        {"region": "table", "kind": "random_rmw"}
      ]}
    ]},
    {"cores": [2], "generator": "zipf", "region": "table",
     "accesses": 800, "hot_fraction": 0.2, "store_fraction": 0.1}
  ]
})";

TEST(ScenarioParse, ParsesAndInstantiates) {
  std::string err;
  const auto doc = raa::json::Value::parse(kScenarioDoc, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const auto s = Scenario::parse(*doc, &err);
  ASSERT_TRUE(s.has_value()) << err;
  EXPECT_EQ(s->name, "t");
  EXPECT_EQ(s->seed, 5u);
  EXPECT_EQ(s->config.tiles, 4u);
  EXPECT_EQ(s->hierarchy_modes().size(), 2u);
  Workload w = s->instantiate();
  ASSERT_EQ(w.programs.size(), 4u);  // core 3 idles
  ASSERT_EQ(w.regions.size(), 2u);
  EXPECT_EQ(w.regions[0].bytes, 4u * 2048);
  EXPECT_EQ(w.regions[1].bytes, 8192u);
  Access acc;
  EXPECT_FALSE(w.programs[3]->next(acc));  // unclaimed core: empty program

  // Deterministic: two instantiations produce identical streams.
  Workload w2 = s->instantiate();
  for (unsigned c = 0; c < 3; ++c)
    EXPECT_TRUE(same_accesses(drain(*w.programs[c], 33),
                              drain(*w2.programs[c], 65)));
}

TEST(ScenarioParse, ReportsActionableErrors) {
  const auto expect_error = [](const std::string& doc,
                               const std::string& fragment) {
    std::string err;
    const auto v = raa::json::Value::parse(doc, &err);
    ASSERT_TRUE(v.has_value()) << err;
    const auto s = Scenario::parse(*v, &err);
    EXPECT_FALSE(s.has_value()) << "accepted: " << doc;
    EXPECT_NE(err.find(fragment), std::string::npos)
        << "error was: " << err << "\nexpected fragment: " << fragment;
  };
  const std::string base =
      R"("regions": [{"name": "r", "bytes": 4096, "class": "strided"}])";

  expect_error(R"({"mode": "hybrid"})", "missing required key \"name\"");
  expect_error(R"({"name": "t", "typo": 1})", "scenario.typo: unknown key");
  expect_error(R"({"name": "t", "mode": "fast"})", "unknown mode 'fast'");
  expect_error(R"({"name": "t", "config": {"tiles": 8}, )" + base +
                   R"(, "programs": []})",
               "mesh_x * mesh_y");
  // 65536 * 65537 wraps 32 bits to 65536: the product must not wrap.
  expect_error(R"({"name": "t", "config": {"tiles": 65536, "mesh_x": 65536,
                   "mesh_y": 65537}, )" + base + R"(, "programs": []})",
               "tiles (65536) must equal mesh_x * mesh_y (4295032832)");
  expect_error(R"({"name": "t", )" + base +
                   R"(, "memory": {"banked": {"mapping": "hash"}},
                   "programs": []})",
               "unknown mapping 'hash' (want block or xor)");
  expect_error(
      R"({"name": "t", "regions": [{"name": "r", "class": "strided"}]})",
      "exactly one of \"bytes\" or \"bytes_per_core\"");
  expect_error(R"({"name": "t", )" + base +
                   R"(, "programs": [{"generator": "zipf",
                       "region": "nope", "accesses": 10}]})",
               "unknown region 'nope'");
  expect_error(R"({"name": "t", )" + base +
                   R"(, "programs": [{"generator": "warp"}]})",
               "unknown generator 'warp'");
  expect_error(R"({"name": "t", )" + base +
                   R"(, "programs": [
        {"generator": "zipf", "region": "r", "accesses": 10},
        {"cores": [1], "generator": "zipf", "region": "r", "accesses": 10}
      ]})",
               "already claimed by programs[0]");
  expect_error(R"({"name": "t", )" + base +
                   R"(, "programs": [{"generator": "scripted", "phases": [
        {"iterations": 1024, "streams": [
          {"region": "r", "kind": "linear", "stride": 8}]}]}]})",
               "runs past its 4096-byte window");
  expect_error(R"({"name": "t", )" + base +
                   R"(, "programs": [{"generator": "zipf", "region": "r",
                       "accesses": 10, "slice": "core"}]})",
               "requires a bytes_per_core region");
  // Giant strides must not wrap uint64 past the bounds check.
  expect_error(R"({"name": "t", )" + base +
                   R"(, "programs": [{"generator": "scripted", "phases": [
        {"iterations": 2049, "streams": [
          {"region": "r", "kind": "linear",
           "stride": 9007199254740992}]}]}]})",
               "runs past its 4096-byte window");
  expect_error(R"({"name": "t", )" + base +
                   R"(, "programs": [{"generator": "scripted", "phases": [
        {"iterations": 1, "streams": [
          {"region": "r", "kind": "linear", "start": 4096}]}]}]})",
               "beyond the 4096-byte window");
  // Strided per-core slices must tile whole DMA chunks (the SPM
  // no-overlap contract would abort mid-run otherwise).
  expect_error(
      R"({"name": "t", "regions": [
        {"name": "r", "bytes_per_core": 6144, "class": "strided"}],
        "programs": [{"generator": "scripted", "phases": [
          {"iterations": 8, "streams": [
            {"region": "r", "kind": "linear", "stride": 8}]}]}]})",
      "multiple of dma_chunk_bytes");
}

TEST(ScenarioParse, LoadFileReportsLineAndColumnForSyntaxErrors) {
  const std::string path = temp_path("bad_scenario.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\n  \"name\": \"x\",\n  \"name\": \"y\"\n}\n", f);
  std::fclose(f);
  std::string err;
  EXPECT_FALSE(Scenario::load_file(path, &err).has_value());
  EXPECT_NE(err.find(path), std::string::npos) << err;
  EXPECT_NE(err.find("duplicate object key \"name\""), std::string::npos)
      << err;
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

// --------------------------------------------------------------------------
// Trace record / replay
// --------------------------------------------------------------------------

TEST(TraceRoundTrip, ReplayReproducesMetrics) {
  const SystemConfig cfg = small_cfg();
  for (const auto mode :
       {HierarchyMode::cache_only, HierarchyMode::hybrid}) {
    // Record a ScriptedProgram run.
    Workload recorded_w = mixed_workload(cfg, 17);
    TraceData trace;
    raa::scen::record_workload(recorded_w, cfg, mode, trace);
    System sys{cfg, mode};
    const Metrics reference = sys.run(recorded_w);
    ASSERT_GT(reference.accesses, 0u);
    ASSERT_EQ(trace.cores.size(), cfg.tiles);

    Workload w = raa::scen::make_replay_workload(
        std::make_shared<const TraceData>(std::move(trace)));
    System replay_sys{cfg, mode};
    expect_metrics_equal(reference, replay_sys.run(w));
  }
}

TEST(TraceRoundTrip, FileRoundTripPreservesEverything) {
  // Banked, with every banked parameter off its default: a header field
  // the file drops (as the bank mapping once was) fails the config
  // comparison and, through the replay, the metrics.
  SystemConfig cfg = small_cfg();
  cfg.memory.kind = raa::mem::MemBackendKind::banked;
  raa::mem::BankedBackendParams& b = cfg.memory.banked;
  b.channels = 4;
  b.banks_per_channel = 4;
  b.mapping = raa::mem::BankMapping::xor_hash;
  b.row_bytes = 1024;
  b.t_rp = 30;
  b.t_rcd = 35;
  b.t_cas = 25;
  b.line_cycles = 6;
  b.refresh_interval = 0;
  b.refresh_cycles = 100;
  b.dma_cycles_per_line = 5;
  b.e_line = 1100.5;
  b.e_activate = 0.1;
  b.e_refresh = 650.25;
  ASSERT_FALSE(b == raa::mem::BankedBackendParams{});
  cfg.memory.flat.lat_dram = 150;
  cfg.e_static_per_tile_cycle = 1.0 / 3.0;  // not a short decimal

  Workload w = mixed_workload(cfg, 31);
  TraceData trace;
  raa::scen::record_workload(w, cfg, HierarchyMode::hybrid, trace);
  System sys{cfg, HierarchyMode::hybrid};
  const Metrics reference = sys.run(w);

  const std::string path = temp_path("roundtrip.raat");
  std::string err;
  ASSERT_TRUE(trace.write_file(path, &err)) << err;
  auto loaded = TraceData::read_file(path, &err);
  ASSERT_TRUE(loaded.has_value()) << err;
  EXPECT_EQ(loaded->mode, HierarchyMode::hybrid);
  EXPECT_EQ(loaded->name, "mixed");
  EXPECT_TRUE(loaded->config == cfg);
  EXPECT_EQ(loaded->config.memory.banked.mapping,
            raa::mem::BankMapping::xor_hash);
  ASSERT_EQ(loaded->regions.size(), trace.regions.size());
  for (std::size_t i = 0; i < trace.regions.size(); ++i) {
    EXPECT_EQ(loaded->regions[i].name, trace.regions[i].name);
    EXPECT_EQ(loaded->regions[i].base, trace.regions[i].base);
    EXPECT_EQ(loaded->regions[i].bytes, trace.regions[i].bytes);
    EXPECT_EQ(loaded->regions[i].ref, trace.regions[i].ref);
  }

  // Replay what the file says, not what the test knows.
  const SystemConfig loaded_cfg = loaded->config;
  const HierarchyMode loaded_mode = loaded->mode;
  Workload replay = raa::scen::make_replay_workload(
      std::make_shared<const TraceData>(std::move(*loaded)));
  System replay_sys{loaded_cfg, loaded_mode};
  expect_metrics_equal(reference, replay_sys.run(replay));
}

TEST(TraceRoundTrip, WriteRejectsRegionsTheHeaderCannotHoldExactly) {
  TraceData t;
  t.config = small_cfg();
  t.cores.resize(t.config.tiles);
  Region r;
  r.name = "huge";
  r.bytes = (std::uint64_t{1} << 53) + 1;
  t.regions.push_back(r);
  const std::string path = temp_path("huge_region.raat");
  std::string err;
  EXPECT_FALSE(t.write_file(path, &err));
  EXPECT_NE(err.find("region 'huge'"), std::string::npos) << err;
  EXPECT_NE(err.find("2^53"), std::string::npos) << err;

  // 2^53 itself is exact, and survives the round trip.
  t.regions[0].bytes = std::uint64_t{1} << 53;
  t.regions[0].base = std::uint64_t{1} << 53;
  ASSERT_TRUE(t.write_file(path, &err)) << err;
  const auto loaded = TraceData::read_file(path, &err);
  ASSERT_TRUE(loaded.has_value()) << err;
  EXPECT_EQ(loaded->regions[0].bytes, std::uint64_t{1} << 53);
  EXPECT_EQ(loaded->regions[0].base, std::uint64_t{1} << 53);
}

TEST(TraceRoundTrip, ReadRejectsCorruptFiles) {
  const std::string path = temp_path("corrupt.raat");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a trace", f);
  std::fclose(f);
  std::string err;
  EXPECT_FALSE(TraceData::read_file(path, &err).has_value());
  EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
  EXPECT_FALSE(TraceData::read_file(temp_path("missing.raat"), &err)
                   .has_value());

  // A version-2 file (binary header) is refused by its version word.
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("RAAT\x02\x00\x00\x00", 1, 8, f);
  std::fclose(f);
  EXPECT_FALSE(TraceData::read_file(path, &err).has_value());
  EXPECT_NE(err.find("unsupported trace version 2 (want 3)"),
            std::string::npos)
      << err;
}

/// A RAAT v3 file around `header`, with `tiles` empty core streams.
std::vector<std::uint8_t> raat_bytes(const std::string& header,
                                     unsigned tiles) {
  std::vector<std::uint8_t> out{'R', 'A', 'A', 'T', 3, 0, 0, 0};
  std::uint64_t n = header.size();
  for (; n >= 0x80; n >>= 7)
    out.push_back(static_cast<std::uint8_t>(n | 0x80));
  out.push_back(static_cast<std::uint8_t>(n));
  out.insert(out.end(), header.begin(), header.end());
  for (int k = 0; k < 4; ++k)
    out.push_back(static_cast<std::uint8_t>(tiles >> (8 * k)));
  out.resize(out.size() + 9 * std::size_t{tiles}, 0);  // u64 count, varint 0
  return out;
}

TEST(TraceRoundTrip, DecodeRejectsBadHeadersWithJsonPaths) {
  TraceData t;
  t.config = small_cfg();
  t.name = "header_check";
  Region r;
  r.name = "r";
  r.bytes = 4096;
  t.regions.push_back(r);
  const unsigned tiles = t.config.tiles;
  std::string err;
  ASSERT_TRUE(TraceData::decode(
                  raat_bytes(raa::scen::trace_header_json(t).dump(), tiles),
                  &err)
                  .has_value())
      << err;

  const auto expect_error = [&](const auto& mutate, const std::string& want) {
    raa::json::Value h = raa::scen::trace_header_json(t);
    mutate(h);
    err.clear();
    EXPECT_FALSE(TraceData::decode(raat_bytes(h.dump(), tiles), &err)
                     .has_value());
    EXPECT_NE(err.find(want), std::string::npos) << err;
  };
  using raa::json::Value;
  expect_error([](Value& h) { h.set("mode", "hybird"); },
               "header.mode: unknown mode 'hybird'");
  expect_error([](Value& h) { h.set("extra", 1); },
               "header.extra: unknown key");
  expect_error(
      [](Value& h) {
        h.find("memory")->find("banked")->set("mapping", "xr");
      },
      "header.memory.banked.mapping: unknown mapping 'xr'");
  expect_error([](Value& h) { h.find("config")->set("mesh_x", 3); },
               "header.config: tiles (4) must equal mesh_x * mesh_y (6)");
  expect_error([](Value& h) { h.set("regions", Value{raa::json::Object{}}); },
               "header.regions: expected an array of regions");
  expect_error(
      [](Value& h) {
        h.find("regions")->as_array()[0].set("class", "bogus");
      },
      "header.regions[0].class: unknown reference class 'bogus'");
  expect_error(
      [](Value& h) {
        h.find("regions")->as_array()[0].set("base", 18014398509481984.0);
      },
      "header.regions[0].base: expected a non-negative integer");

  err.clear();
  EXPECT_FALSE(TraceData::decode(raat_bytes("{", tiles), &err).has_value());
  EXPECT_EQ(err.rfind("header: ", 0), 0u) << err;
}

TEST(TraceRoundTrip, DecodeRejectsMalformedAccesses) {
  // Flags 0x16: repeat delta, reference class 3 (there are three).
  // Flags 0x18: repeat delta, gap 2^32 (a gap is 32 bits).
  // Flags 0x00: an address delta follows, here eleven varint bytes.
  const std::pair<std::vector<std::uint8_t>, const char*> kCases[] = {
      {{0x16}, "bad reference class"},
      {{0x18, 0x80, 0x80, 0x80, 0x80, 0x10}, "gap does not fit 32 bits"},
      {{0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
        0x01},
       "overlong varint"}};
  for (const auto& [stream, want] : kCases) {
    TraceData t;
    t.config = small_cfg();
    t.cores.resize(t.config.tiles);
    t.cores[0] = TraceData::CoreStream{1, stream};
    std::string err;
    const auto bytes = t.encode(&err);
    ASSERT_TRUE(bytes.has_value()) << err;
    EXPECT_FALSE(TraceData::decode(*bytes, &err).has_value());
    EXPECT_NE(err.find(std::string{"core stream 0 is corrupt: "} + want),
              std::string::npos)
        << err;
  }
}

TEST(TraceRoundTrip, ReadRejectsInsaneConfigs) {
  // A structurally valid file whose config would divide by zero inside
  // System must fail at read time, not crash at run time.
  TraceData t;
  t.config = small_cfg();
  t.config.line_bytes = 0;
  t.cores.resize(t.config.tiles);
  const std::string path = temp_path("badcfg.raat");
  std::string err;
  ASSERT_TRUE(t.write_file(path, &err)) << err;
  EXPECT_FALSE(TraceData::read_file(path, &err).has_value());
  EXPECT_NE(err.find("config.line_bytes: must be positive"),
            std::string::npos)
      << err;

  TraceData t2;
  t2.config = small_cfg();
  t2.cores.resize(t2.config.tiles + 1);  // stream count != tiles
  ASSERT_TRUE(t2.write_file(path, &err)) << err;
  EXPECT_FALSE(TraceData::read_file(path, &err).has_value());
  EXPECT_NE(err.find("does not match config tiles"), std::string::npos)
      << err;
}

}  // namespace
