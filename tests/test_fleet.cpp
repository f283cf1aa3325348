// Tests for the fleet batch engine (src/fleet/): manifest parsing and
// validation, seed derivation, glob matching, and — the load-bearing
// suite — FleetEquivalence: every gated byte of the per-job results and
// the merged index is identical for any lane count and any completion
// order, and injected faults degrade exactly the injected jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/exit_codes.hpp"
#include "fleet/fleet.hpp"
#include "fleet/job.hpp"
#include "fleet/manifest.hpp"
#include "golden_testing.hpp"
#include "report/json.hpp"

namespace {

using raa::fleet::ErrorKind;
using raa::fleet::FleetOptions;
using raa::fleet::FleetResult;
using raa::fleet::JobStatus;
using raa::fleet::Manifest;
using raa::fleet::run_fleet;
using raa::json::Value;
using raa::mem::MemBackendKind;
using raa::scen::ScenarioMode;

// --- fixtures -----------------------------------------------------------

/// Write a small self-contained scenario file and return its path. CTest
/// runs the test cases as concurrent processes sharing these files, so the
/// file is written under a per-process name and renamed into place: a
/// reader sees the old or the new (identical) content, never a torn file.
std::string write_scenario(const std::string& name, unsigned accesses,
                           const std::string& mode = "compare") {
  const std::string path = ::testing::TempDir() + name + ".json";
  const std::string tmp = path + "." + std::to_string(::getpid());
  std::ofstream out{tmp};
  out << R"({
  "name": ")" << name << R"(",
  "mode": ")" << mode << R"(",
  "seed": 5,
  "config": {"tiles": 4, "mesh_x": 2, "mesh_y": 2},
  "regions": [
    {"name": "data", "bytes_per_core": 4096, "class": "strided"}
  ],
  "programs": [
    {"generator": "pointer_chase", "region": "data", "accesses": )"
      << accesses << R"(, "gap_cycles": 1}
  ]
})";
  out.close();
  std::filesystem::rename(tmp, path);
  return path;
}

/// A three-job manifest over freshly written scenario files.
Manifest small_manifest() {
  Manifest m;
  m.name = "unit";
  m.seed = 101;
  for (const char* id : {"alpha", "beta", "gamma"}) {
    raa::fleet::JobSpec job;
    job.id = id;
    job.scenario = write_scenario(std::string{"fleet_"} + id, 400);
    m.jobs.push_back(std::move(job));
  }
  return m;
}

/// The index with its quarantined host-dependent block removed — what the
/// determinism contract actually covers.
Value gated_index(const FleetResult& r) {
  Value v = r.index;
  auto& obj = v.as_object();
  std::erase_if(obj, [](const raa::json::Member& m) {
    return m.first == "informational";
  });
  return v;
}

// --- manifest parsing ---------------------------------------------------

TEST(Manifest, ParsesAndRoundTrips) {
  const std::string text = R"({
    "schema": "raa-fleet-manifest",
    "schema_version": 1,
    "name": "demo",
    "seed": 9,
    "defaults": {"mode": "hybrid", "retries": 2, "timeout_ms": 500},
    "jobs": [
      {"id": "a", "scenario": "a.json"},
      {"id": "b", "trace": "b.raat", "retries": 4, "seed": 3},
      {"id": "c", "scenario": "c.json", "backend": "banked"}
    ]
  })";
  std::string error;
  const auto doc = Value::parse(text, &error);
  ASSERT_TRUE(doc) << error;
  const auto m = Manifest::parse(*doc, &error);
  ASSERT_TRUE(m) << error;
  EXPECT_EQ(m->name, "demo");
  EXPECT_EQ(m->seed, 9u);
  EXPECT_EQ(m->defaults.mode, ScenarioMode::hybrid);
  EXPECT_EQ(m->defaults.retries, 2u);
  EXPECT_EQ(m->defaults.timeout_ms, 500u);
  ASSERT_EQ(m->jobs.size(), 3u);
  EXPECT_EQ(m->jobs[1].trace, "b.raat");
  EXPECT_EQ(m->jobs[1].limits.retries, 4u);
  EXPECT_EQ(m->jobs[1].seed, 3u);
  EXPECT_EQ(m->jobs[2].limits.backend, MemBackendKind::banked);

  // to_json() -> parse() is the identity.
  const auto again = Manifest::parse(m->to_json(), &error);
  ASSERT_TRUE(again) << error;
  EXPECT_EQ(*again, *m);
}

TEST(Manifest, RejectsInvalidDocumentsWithJsonPaths) {
  const auto reject = [](const std::string& text,
                         const std::string& needle) {
    std::string error;
    const auto doc = Value::parse(text, &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_FALSE(Manifest::parse(*doc, &error));
    EXPECT_NE(error.find(needle), std::string::npos) << error;
  };
  reject(R"({"jobs": []})", "at least one job");
  reject(R"({"jobz": 1})", "unknown key");
  reject(R"({"schema": "raa-bench-results", "jobs": [{"id": "a",
             "scenario": "x"}]})",
         "raa-fleet-manifest");
  reject(R"({"jobs": [{"id": "a"}]})", "exactly one of");
  reject(R"({"jobs": [{"id": "a", "scenario": "x", "trace": "y"}]})",
         "exactly one of");
  reject(R"({"jobs": [{"id": "a/b", "scenario": "x"}]})", "A-Za-z0-9");
  reject(R"({"jobs": [{"id": "a", "scenario": "x"},
                      {"id": "a", "scenario": "y"}]})",
         "duplicate job id");
  reject(R"({"jobs": [{"id": "a", "scenario": "x", "mode": "hybird"}]})",
         "unknown mode");
  // The retired "shards" key fails like any other unknown key.
  reject(R"({"jobs": [{"id": "a", "scenario": "x", "shards": 2}]})",
         "shards: unknown key");
  reject(R"({"defaults": {"shards": 2}, "jobs": [{"id": "a",
             "scenario": "x"}]})",
         "shards: unknown key");
  reject(R"({"jobs": [{"id": "a", "scenario": "x", "seed": -1}]})",
         "non-negative");
  // A deadline whose nanosecond form overflows int64 is rejected, not
  // wrapped into an instant timeout.
  reject(R"({"jobs": [{"id": "a", "scenario": "x",
                       "timeout_ms": 10000000000000}]})",
         "manifest.jobs[0].timeout_ms: must be at most 9223372036854");
  reject(R"({"defaults": {"timeout_ms": 9223372036855},
             "jobs": [{"id": "a", "scenario": "x"}]})",
         "manifest.defaults.timeout_ms: must be at most 9223372036854");
  reject(R"({"schema_version": {"x": [1]},
             "jobs": [{"id": "a", "scenario": "x"}]})",
         "manifest.schema_version: expected 1");
  reject(R"({"schema_version": 2, "jobs": [{"id": "a", "scenario": "x"}]})",
         "manifest.schema_version: expected 1");
}

TEST(Manifest, AcceptsTheLargestTimeout) {
  std::string error;
  const auto doc = Value::parse(R"({"jobs": [{"id": "a", "scenario": "x",
                                              "timeout_ms": 9223372036854}]})",
                                &error);
  ASSERT_TRUE(doc) << error;
  const auto m = Manifest::parse(*doc, &error);
  ASSERT_TRUE(m) << error;
  EXPECT_EQ(m->jobs[0].limits.timeout_ms, raa::fleet::kMaxTimeoutMs);
  EXPECT_EQ(raa::fleet::kMaxTimeoutMs, 9223372036854u);
}

TEST(Manifest, LimitsLayerJobOverDefaultsOverFallback) {
  raa::fleet::JobLimits job, defaults, fallback;
  defaults.mode = ScenarioMode::hybrid;
  defaults.retries = 2;
  fallback.mode = ScenarioMode::cache_only;
  fallback.backend = MemBackendKind::banked;
  fallback.timeout_ms = 99;
  job.timeout_ms = 5;
  const auto eff = job.or_else(defaults).or_else(fallback);
  EXPECT_EQ(eff.mode, ScenarioMode::hybrid);         // defaults beat fallback
  EXPECT_EQ(eff.retries, 2u);                        // from defaults
  EXPECT_EQ(eff.backend, MemBackendKind::banked);    // only fallback sets it
  EXPECT_EQ(eff.timeout_ms, 5u);                     // job entry wins
}

TEST(Manifest, LoadFileResolvesInputsAgainstItsDirectory) {
  const std::string root = RAA_SOURCE_DIR;
  std::string error;
  const std::string path = root + "/scenarios/fleet/smoke.manifest.json";
  const auto m = Manifest::load_file(path, &error);
  ASSERT_TRUE(m) << error;
  ASSERT_EQ(m->jobs.size(), 4u);
  EXPECT_EQ(m->jobs[0].scenario, root + "/scenarios/pointer_chase.json");
  EXPECT_EQ(m->defaults.timeout_ms, 120000u);

  error.clear();
  EXPECT_FALSE(Manifest::load_file(root + "/no_such.manifest.json", &error));
  EXPECT_NE(error.find("no_such.manifest.json: cannot open"),
            std::string::npos)
      << error;
  // Semantic errors carry the file and the JSON path.
  error.clear();
  EXPECT_FALSE(Manifest::load_file(
      root + "/tests/data/manifest_shards_key.json", &error));
  EXPECT_NE(error.find("manifest_shards_key.json: manifest.jobs[0].shards: "
                       "unknown key"),
            std::string::npos)
      << error;
}

TEST(Manifest, FromDirectoryMakesOneJobPerScenarioFile) {
  const std::string root = RAA_SOURCE_DIR;
  std::string error;
  const auto m = Manifest::from_directory(root + "/scenarios", &error);
  ASSERT_TRUE(m) << error;
  EXPECT_EQ(m->name, "scenarios");
  ASSERT_FALSE(m->jobs.empty());
  EXPECT_EQ(m->jobs[0].id, "banked_bursty_dma");  // sorted by file name
  for (const auto& job : m->jobs)
    EXPECT_EQ(job.scenario, root + "/scenarios/" + job.id + ".json");
  EXPECT_FALSE(Manifest::from_directory(root + "/no_such_dir", &error));
  EXPECT_NE(error.find("cannot read directory"), std::string::npos) << error;
}

TEST(Manifest, DerivedSeedsDependOnIdNotPosition) {
  const std::uint64_t a = raa::fleet::derive_job_seed(7, "alpha");
  EXPECT_EQ(a, raa::fleet::derive_job_seed(7, "alpha"));  // pure
  EXPECT_NE(a, raa::fleet::derive_job_seed(7, "beta"));
  EXPECT_NE(a, raa::fleet::derive_job_seed(8, "alpha"));
}

TEST(Manifest, GlobMatchesShellStyle) {
  using raa::fleet::glob_match;
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("gen_i*", "gen_i42"));
  EXPECT_FALSE(glob_match("gen_i*", "gem_i42"));
  EXPECT_TRUE(glob_match("a?c", "abc"));
  EXPECT_FALSE(glob_match("a?c", "ac"));
  EXPECT_TRUE(glob_match("*chase*", "pointer_chase_v2"));
  EXPECT_FALSE(glob_match("", "x"));
  EXPECT_TRUE(glob_match("", ""));
  EXPECT_TRUE(glob_match("**", "x"));
}

// --- FleetEquivalence: the determinism contract -------------------------

TEST(FleetEquivalence, ResultsAndIndexAreByteIdenticalForAnyLaneCount) {
  FleetOptions opt;
  opt.manifest = small_manifest();

  opt.jobs = 1;
  const FleetResult r1 = run_fleet(opt);
  opt.jobs = 2;
  const FleetResult r2 = run_fleet(opt);
  opt.jobs = 8;
  const FleetResult r8 = run_fleet(opt);

  ASSERT_EQ(r1.exit_code, raa::kExitOk);
  ASSERT_EQ(r2.exit_code, raa::kExitOk);
  ASSERT_EQ(r8.exit_code, raa::kExitOk);
  const std::string i1 = gated_index(r1).dump(2);
  EXPECT_EQ(i1, gated_index(r2).dump(2));
  EXPECT_EQ(i1, gated_index(r8).dump(2));
  ASSERT_EQ(r1.records.size(), 3u);
  for (std::size_t i = 0; i < r1.records.size(); ++i) {
    EXPECT_EQ(r1.records[i].result.dump(2), r2.records[i].result.dump(2));
    EXPECT_EQ(r1.records[i].result.dump(2), r8.records[i].result.dump(2));
  }
}

TEST(FleetEquivalence, ShuffledManifestGivesSameSeedsAndResultsPerJob) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  const FleetResult fwd = run_fleet(opt);

  std::reverse(opt.manifest.jobs.begin(), opt.manifest.jobs.end());
  opt.jobs = 2;
  const FleetResult rev = run_fleet(opt);

  ASSERT_EQ(fwd.records.size(), rev.records.size());
  for (const auto& a : fwd.records) {
    const auto b = std::find_if(
        rev.records.begin(), rev.records.end(),
        [&](const auto& r) { return r.id == a.id; });
    ASSERT_NE(b, rev.records.end()) << a.id;
    EXPECT_EQ(a.seed, b->seed) << a.id;
    EXPECT_EQ(a.result.dump(2), b->result.dump(2)) << a.id;
  }
}

TEST(FleetEquivalence, InjectedFailureDegradesOnlyTheInjectedJob) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  const FleetResult clean = run_fleet(opt);
  ASSERT_EQ(clean.exit_code, raa::kExitOk);

  opt.inject_fail = "beta";
  opt.jobs = 2;
  const FleetResult faulty = run_fleet(opt);
  EXPECT_EQ(faulty.exit_code, raa::kExitPartialFleet);
  EXPECT_EQ(faulty.failed, 1u);
  EXPECT_EQ(faulty.ok, 2u);
  for (std::size_t i = 0; i < faulty.records.size(); ++i) {
    const auto& r = faulty.records[i];
    if (r.id == "beta") {
      EXPECT_EQ(r.status, JobStatus::failed);
      EXPECT_EQ(r.error, ErrorKind::injected);
      EXPECT_EQ(r.attempts, 1u);
    } else {
      EXPECT_EQ(r.status, JobStatus::ok);
      // The healthy jobs' gated bytes are unchanged by the failure.
      EXPECT_EQ(r.result.dump(2), clean.records[i].result.dump(2));
    }
  }
}

TEST(FleetEquivalence, InjectedHangTimesOutAndReclaimsTheLane) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  const FleetResult clean = run_fleet(opt);

  opt.inject_hang = "alpha";
  opt.manifest.jobs[0].limits.timeout_ms = 100;
  opt.jobs = 2;
  const FleetResult faulty = run_fleet(opt);
  EXPECT_EQ(faulty.exit_code, raa::kExitPartialFleet);
  EXPECT_EQ(faulty.timeout, 1u);
  EXPECT_EQ(faulty.ok, 2u);
  EXPECT_EQ(faulty.records[0].status, JobStatus::timeout);
  EXPECT_EQ(faulty.records[0].error, ErrorKind::cancelled);
  // The other jobs ran to completion on the reclaimed lanes, unchanged.
  for (std::size_t i = 1; i < faulty.records.size(); ++i)
    EXPECT_EQ(faulty.records[i].result.dump(2),
              clean.records[i].result.dump(2));
}

TEST(FleetEquivalence, TransientFailureRetriesToSuccess) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  const FleetResult clean = run_fleet(opt);

  opt.inject_flaky = "gamma";
  opt.fallback.retries = 1;
  opt.backoff_base_ms = 1;  // keep the test fast
  const FleetResult retried = run_fleet(opt);
  EXPECT_EQ(retried.exit_code, raa::kExitOk);
  EXPECT_EQ(retried.retried_ok, 1u);
  const auto& r = retried.records[2];
  EXPECT_EQ(r.id, "gamma");
  EXPECT_EQ(r.status, JobStatus::retried_ok);
  EXPECT_EQ(r.attempts, 2u);
  // A retried success converges on the same gated bytes as a clean run.
  EXPECT_EQ(r.result.dump(2), clean.records[2].result.dump(2));
}

TEST(FleetEquivalence, RetriesExhaustOnPersistentTimeout) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  opt.inject_hang = "beta";
  opt.manifest.jobs[1].limits.timeout_ms = 50;
  opt.manifest.jobs[1].limits.retries = 1;
  opt.backoff_base_ms = 1;
  const FleetResult res = run_fleet(opt);
  EXPECT_EQ(res.exit_code, raa::kExitPartialFleet);
  EXPECT_EQ(res.records[1].status, JobStatus::timeout);
  EXPECT_EQ(res.records[1].attempts, 2u);  // deadline hit both attempts
}

// --- degradation edges --------------------------------------------------

TEST(Fleet, AllJobsFailingExitsWithTotalFailure) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  opt.inject_fail = "*";
  const FleetResult res = run_fleet(opt);
  EXPECT_EQ(res.exit_code, raa::kExitFailure);
  EXPECT_EQ(res.failed, 3u);
}

TEST(Fleet, FailFastSkipsUnstartedJobs) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  opt.inject_fail = "alpha";
  opt.fail_fast = true;
  opt.jobs = 1;  // serial lanes: alpha fails before beta/gamma launch
  const FleetResult res = run_fleet(opt);
  EXPECT_EQ(res.records[0].status, JobStatus::failed);
  EXPECT_EQ(res.skipped, 2u);
  EXPECT_EQ(res.records[1].status, JobStatus::skipped);
  EXPECT_EQ(res.records[2].status, JobStatus::skipped);
  EXPECT_EQ(res.exit_code, raa::kExitFailure);  // nothing succeeded
}

TEST(Fleet, UnparseableScenarioIsAClassifiedJobFailureNotACrash) {
  const std::string bad = ::testing::TempDir() + "fleet_bad.json";
  std::ofstream{bad} << "{ this is not json";
  FleetOptions opt;
  opt.manifest = small_manifest();
  raa::fleet::JobSpec job;
  job.id = "broken";
  job.scenario = bad;
  opt.manifest.jobs.push_back(std::move(job));
  const FleetResult res = run_fleet(opt);
  EXPECT_EQ(res.exit_code, raa::kExitPartialFleet);
  EXPECT_EQ(res.records[3].status, JobStatus::failed);
  EXPECT_EQ(res.records[3].error, ErrorKind::parse);
  EXPECT_EQ(res.ok, 3u);
}

TEST(Fleet, LargestDeadlineNeverFiresEarly) {
  // A job long enough (tens of ms) for the watchdog to check its deadline
  // while it runs: a deadline whose sum with the start time overflowed
  // would cancel it at once.
  FleetOptions opt;
  raa::fleet::JobSpec job;
  job.id = "slow";
  job.scenario = write_scenario("fleet_slow", 200000);
  opt.manifest.jobs.push_back(std::move(job));
  opt.fallback.timeout_ms = raa::fleet::kMaxTimeoutMs;
  const FleetResult res = run_fleet(opt);
  EXPECT_EQ(res.exit_code, raa::kExitOk);
  ASSERT_EQ(res.records.size(), 1u);
  EXPECT_EQ(res.records[0].status, JobStatus::ok) << res.records[0].message;
}

TEST(Fleet, SaturatingAddNeverWrapsTheClock) {
  // The watchdog's deadlines and the retry releases are start + ms; a
  // plain sum wraps to a time in the past for the last three cases, which
  // fires a deadline at once or releases a retry without its backoff.
  using raa::fleet::saturating_add;
  using std::chrono::milliseconds;
  using time_point = std::chrono::steady_clock::time_point;
  const time_point t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(saturating_add(t0, 0), t0);
  EXPECT_EQ(saturating_add(t0, 1500), t0 + milliseconds(1500));
  const time_point near_end = time_point::max() - milliseconds(5);
  EXPECT_EQ(saturating_add(near_end, 4), near_end + milliseconds(4));
  EXPECT_EQ(saturating_add(near_end, 6), time_point::max());
  EXPECT_EQ(saturating_add(t0, raa::fleet::kMaxTimeoutMs), time_point::max());
  EXPECT_EQ(saturating_add(t0, std::numeric_limits<std::uint64_t>::max()),
            time_point::max());
}

TEST(Fleet, LanesAreCappedAtTheJobCount) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  opt.jobs = 64;
  const FleetResult res = run_fleet(opt);
  ASSERT_EQ(res.exit_code, raa::kExitOk);
  const Value* info = res.index.find("informational");
  ASSERT_TRUE(info && info->find("lanes"));
  EXPECT_EQ(info->find("lanes")->as_number(), 3.0);
}

TEST(Fleet, HangInjectionWithoutDeadlineIsAConfigError) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  opt.inject_hang = "alpha";  // no timeout anywhere
  const FleetResult res = run_fleet(opt);
  EXPECT_EQ(res.exit_code, raa::kExitUsage);
  EXPECT_NE(res.error.find("inject-hang"), std::string::npos);
}

TEST(Fleet, IndexRecordsSchemaCountsAndPerJobSeeds) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  const FleetResult res = run_fleet(opt);
  const Value& idx = res.index;
  ASSERT_TRUE(idx.find("schema"));
  EXPECT_EQ(idx.find("schema")->as_string(), "raa-fleet-index");
  EXPECT_EQ(idx.find("status")->as_string(), "ok");
  EXPECT_EQ(idx.find("counts")->find("ok")->as_number(), 3.0);
  const auto& jobs = idx.find("jobs")->as_array();
  ASSERT_EQ(jobs.size(), 3u);
  // Seeds are decimal strings (64-bit exact) matching the derivation.
  EXPECT_EQ(jobs[0].find("seed")->as_string(),
            std::to_string(raa::fleet::derive_job_seed(101, "alpha")));
  ASSERT_TRUE(idx.find("informational"));
  EXPECT_TRUE(idx.find("informational")->find("wall_seconds"));
}

TEST(FleetEquivalence, InformationalJobWallSpansCoverManifestInOrder) {
  FleetOptions opt;
  opt.manifest = small_manifest();
  const FleetResult res = run_fleet(opt);
  ASSERT_EQ(res.exit_code, raa::kExitOk);

  // job_wall_ms lives inside the quarantined informational block (values
  // are host-dependent), but its *shape* is deterministic: one entry per
  // manifest job, in manifest order.
  const Value* info = res.index.find("informational");
  ASSERT_TRUE(info);
  const Value* spans = info->find("job_wall_ms");
  ASSERT_TRUE(spans && spans->is_array());
  const auto& arr = spans->as_array();
  ASSERT_EQ(arr.size(), 3u);
  const char* ids[] = {"alpha", "beta", "gamma"};
  for (std::size_t i = 0; i < arr.size(); ++i) {
    ASSERT_TRUE(arr[i].find("id"));
    EXPECT_EQ(arr[i].find("id")->as_string(), ids[i]);
    ASSERT_TRUE(arr[i].find("wall_ms"));
    EXPECT_GE(arr[i].find("wall_ms")->as_number(), 0.0);
  }

  // And the gated index stays free of it: stripping informational removes
  // every host-dependent field (the byte-determinism contract upstream).
  EXPECT_EQ(gated_index(res).dump(2).find("job_wall_ms"), std::string::npos);
}

// --- the per-job result document, pinned --------------------------------

/// One corpus job's result document, minus its build-provenance
/// `environment` block, must match a checked-in golden byte for byte, so
/// schema drift (a dropped or renamed param, a reordered metric) fails
/// here and not only in the benchmark's job digests. On a mismatch the
/// actual document is written next to the test's temp files; copy it over
/// the golden only for an intended format change.
TEST(FleetJobDocument, MatchesCheckedInGolden) {
  const std::string root = RAA_SOURCE_DIR;
  const std::string rel = "scenarios/banked_row_locality.json";
  raa::fleet::JobSpec job;
  job.id = "banked_row_locality";
  job.scenario = root + "/" + rel;
  raa::fleet::JobSettings settings;
  settings.seed = raa::fleet::derive_job_seed(17, job.id);
  const std::atomic<bool> cancel{false};
  const raa::fleet::JobOutcome out =
      raa::fleet::run_job_attempt(job, settings, cancel);
  ASSERT_EQ(out.error, ErrorKind::none) << out.message;

  Value doc = out.result;
  std::erase_if(doc.as_object(), [](const raa::json::Member& m) {
    return m.first == "environment";
  });
  // The scenario param is an absolute path; pin it repo-relative.
  Value* benches = doc.find("benchmarks");
  ASSERT_TRUE(benches && benches->is_array() && !benches->as_array().empty());
  Value* params = benches->as_array()[0].find("params");
  ASSERT_TRUE(params && params->find("scenario"));
  EXPECT_EQ(params->find("scenario")->as_string(), job.scenario);
  params->set("scenario", rel);
  const std::string actual = doc.dump(2) + "\n";

  raa::test_util::expect_matches_golden(
      actual, "fleet_job_banked_row_locality.golden.json",
      "fleet_job_banked_row_locality.actual.json");
}

}  // namespace
