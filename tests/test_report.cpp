// Tests for the benchmark report layer (src/report/): JSON writer
// escaping and round-trips, BenchReport statistics across repetitions, the
// report tables' pinned bytes and strict read-back, and the
// baseline-comparison tolerance logic that gates the perf-trend CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/stats.hpp"
#include "golden_testing.hpp"
#include "report/compare.hpp"
#include "report/json.hpp"
#include "report/report.hpp"

namespace {

using raa::json::Value;

// --------------------------------------------------------------------------
// JSON writer: escaping
// --------------------------------------------------------------------------

TEST(JsonEscape, QuotesBackslashesAndControls) {
  EXPECT_EQ(raa::json::escape("plain"), "plain");
  EXPECT_EQ(raa::json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(raa::json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(raa::json::escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(raa::json::escape("\b\f"), "\\b\\f");
  EXPECT_EQ(raa::json::escape(std::string{"x\x01y", 3}), "x\\u0001y");
}

TEST(JsonEscape, Utf8PassesThrough) {
  EXPECT_EQ(raa::json::escape("§3.2 µbench"), "§3.2 µbench");
}

TEST(JsonDump, StringsAreQuotedAndEscaped) {
  EXPECT_EQ(Value{"he said \"hi\""}.dump(), "\"he said \\\"hi\\\"\"");
}

TEST(JsonDump, Numbers) {
  EXPECT_EQ(Value{64}.dump(), "64");
  EXPECT_EQ(Value{1.5}.dump(), "1.5");
  EXPECT_EQ(Value{-0.25}.dump(), "-0.25");
  // JSON has no NaN/Inf; they degrade to null.
  EXPECT_EQ(Value{std::nan("")}.dump(), "null");
  EXPECT_EQ(Value{HUGE_VAL}.dump(), "null");
}

TEST(JsonDump, CompactAndPretty) {
  Value v{raa::json::Object{}};
  v.set("a", 1);
  v.set("b", raa::json::Array{Value{true}, Value{nullptr}});
  EXPECT_EQ(v.dump(), "{\"a\":1,\"b\":[true,null]}");
  EXPECT_EQ(v.dump(2),
            "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null\n  ]\n}");
}

TEST(JsonDump, ObjectsPreserveInsertionOrder) {
  Value v{raa::json::Object{}};
  v.set("zebra", 1);
  v.set("alpha", 2);
  EXPECT_EQ(v.dump(), "{\"zebra\":1,\"alpha\":2}");
  v.set("zebra", 3);  // overwrite keeps position
  EXPECT_EQ(v.dump(), "{\"zebra\":3,\"alpha\":2}");
}

// --------------------------------------------------------------------------
// JSON parser + round-trips
// --------------------------------------------------------------------------

TEST(JsonParse, RoundTripsANestedDocument) {
  Value doc{raa::json::Object{}};
  doc.set("name", "fig3 \"vsr\"\n");
  doc.set("ok", true);
  doc.set("nothing", nullptr);
  doc.set("x", 1.147);
  Value arr{raa::json::Array{}};
  arr.push_back(1);
  arr.push_back("two");
  Value inner{raa::json::Object{}};
  inner.set("k", -3.5e-2);
  arr.push_back(std::move(inner));
  doc.set("list", std::move(arr));

  for (const int indent : {0, 2, 4}) {
    const auto parsed = Value::parse(doc.dump(indent));
    ASSERT_TRUE(parsed.has_value()) << "indent=" << indent;
    EXPECT_EQ(*parsed, doc) << "indent=" << indent;
  }
}

TEST(JsonParse, AcceptsEscapesAndUnicode) {
  const auto v = Value::parse(R"("a\u0041\n\t\\\" \u00e9")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "aA\n\t\\\" \xC3\xA9");
  // Surrogate pair: U+1F600.
  const auto emoji = Value::parse(R"("\uD83D\uDE00")");
  ASSERT_TRUE(emoji.has_value());
  EXPECT_EQ(emoji->as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonParse, RejectsMalformedInput) {
  std::string err;
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\" 1}", "\"\\u12G4\"", "\"\\uD800\"", "nullx"}) {
    err.clear();
    EXPECT_FALSE(Value::parse(bad, &err).has_value()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  std::string err;
  // The stray token sits on line 3, column 10.
  EXPECT_FALSE(
      Value::parse("{\n  \"a\": 1,\n  \"b\":   oops\n}", &err).has_value());
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_NE(err.find("column 10"), std::string::npos) << err;

  err.clear();
  EXPECT_FALSE(Value::parse("[1, 2] trailing", &err).has_value());
  EXPECT_NE(err.find("trailing"), std::string::npos) << err;
  EXPECT_NE(err.find("line 1, column 8"), std::string::npos) << err;

  // Single-line documents report column positions too.
  err.clear();
  EXPECT_FALSE(Value::parse("{\"a\":}", &err).has_value());
  EXPECT_NE(err.find("line 1, column 6"), std::string::npos) << err;
}

TEST(JsonParse, RejectsDuplicateObjectKeys) {
  std::string err;
  EXPECT_FALSE(
      Value::parse("{\n  \"tiles\": 4,\n  \"tiles\": 8\n}", &err)
          .has_value());
  EXPECT_NE(err.find("duplicate object key \"tiles\""), std::string::npos)
      << err;
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;

  // Same key in *different* objects is fine.
  EXPECT_TRUE(Value::parse(R"([{"a": 1}, {"a": 2}])").has_value());
  EXPECT_TRUE(Value::parse(R"({"outer": {"a": 1}, "a": 2})").has_value());
}

TEST(JsonParse, FindLooksUpObjectMembers) {
  const auto v = Value::parse(R"({"a": 1, "b": {"c": "x"}})");
  ASSERT_TRUE(v.has_value());
  ASSERT_NE(v->find("b"), nullptr);
  ASSERT_NE(v->find("b")->find("c"), nullptr);
  EXPECT_EQ(v->find("b")->find("c")->as_string(), "x");
  EXPECT_EQ(v->find("missing"), nullptr);
  EXPECT_EQ(v->find("a")->find("nested-in-number"), nullptr);
}

// --------------------------------------------------------------------------
// common/stats median (new for the report layer)
// --------------------------------------------------------------------------

TEST(Stats, Median) {
  EXPECT_EQ(raa::median({}), 0.0);
  const double one[] = {3.0};
  EXPECT_EQ(raa::median(one), 3.0);
  const double odd[] = {9.0, 1.0, 5.0};
  EXPECT_EQ(raa::median(odd), 5.0);
  const double even[] = {4.0, 1.0, 3.0, 2.0};
  EXPECT_EQ(raa::median(even), 2.5);
}

// --------------------------------------------------------------------------
// BenchReport aggregation across repetitions
// --------------------------------------------------------------------------

TEST(BenchReport, AggregatesSamplesAcrossReps) {
  raa::report::BenchReport r{"fig_test", "§0 Figure 0"};
  r.record("speedup", 2.0, "x", 3.4);
  r.record("speedup", 4.0);
  r.record("speedup", 3.0);
  ASSERT_EQ(r.metrics().size(), 1u);
  const auto& m = r.metrics().front();
  EXPECT_EQ(m.unit, "x");
  ASSERT_TRUE(m.paper_value.has_value());
  EXPECT_DOUBLE_EQ(*m.paper_value, 3.4);
  const auto s = m.summary();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(m.median(), 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0 / 3.0), 1e-12);
}

TEST(BenchReport, AbsorbAppendsSamplesInInsertionOrder) {
  // The parallel bench harness records each repetition into a private
  // report and absorbs them in registration order: the merged report must
  // be indistinguishable from serially recording into one report.
  raa::report::BenchReport serial{"fig_test", "§0"};
  serial.set_param("tiles", "64");
  serial.record("time_x", 1.0, "x", 1.147);
  serial.record("noc_x", 3.0, "x");
  serial.record("time_x", 2.0);
  serial.record("noc_x", 4.0);

  raa::report::BenchReport rep0{"fig_test", "§0"};
  rep0.set_param("tiles", "64");
  rep0.record("time_x", 1.0, "x", 1.147);
  rep0.record("noc_x", 3.0, "x");
  raa::report::BenchReport rep1{"fig_test", "§0"};
  rep1.set_param("tiles", "64");
  rep1.record("time_x", 2.0, "x", 1.147);
  rep1.record("noc_x", 4.0, "x");
  raa::report::BenchReport merged{"fig_test", "§0"};
  merged.absorb(rep0);
  merged.absorb(rep1);

  EXPECT_EQ(merged.to_json().dump(2), serial.to_json().dump(2));
}

TEST(BenchReport, AbsorbKeepsInformationalFlagAndUnitFromFirstSeen) {
  raa::report::BenchReport a{"b", "§0"};
  a.record_info("wall_seconds", 0.5, "s");
  raa::report::BenchReport b{"b", "§0"};
  b.record_info("wall_seconds", 0.7, "s");
  a.absorb(b);
  ASSERT_EQ(a.metrics().size(), 1u);
  EXPECT_TRUE(a.metrics().front().informational);
  EXPECT_EQ(a.metrics().front().unit, "s");
  EXPECT_EQ(a.metrics().front().samples.size(), 2u);
}

TEST(BenchReport, MetricJsonShape) {
  raa::report::BenchReport r{"fig_test", "§0"};
  r.record("m", 1.0, "ns");
  r.record("m", 2.0);
  const auto j = r.to_json();
  EXPECT_EQ(j.find("name")->as_string(), "fig_test");
  const auto& metrics = j.find("metrics")->as_array();
  ASSERT_EQ(metrics.size(), 1u);
  for (const char* field :
       {"name", "unit", "count", "min", "median", "mean", "max", "stddev",
        "samples"})
    EXPECT_NE(metrics[0].find(field), nullptr) << field;
  EXPECT_EQ(metrics[0].find("samples")->as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(metrics[0].find("median")->as_number(), 1.5);
  // No paper value recorded -> the field is omitted.
  EXPECT_EQ(metrics[0].find("paper_value"), nullptr);
}

TEST(RunReport, SchemaHeaderAndEnvironment) {
  raa::report::RunReport run{3};
  run.benchmark("b1", "§1").record("m", 1.0);
  const auto j = run.to_json();
  EXPECT_EQ(j.find("schema")->as_string(), raa::report::kSchemaName);
  EXPECT_EQ(j.find("schema_version")->as_number(),
            raa::report::kSchemaVersion);
  EXPECT_EQ(j.find("reps")->as_number(), 3);
  const auto* env = j.find("environment");
  ASSERT_NE(env, nullptr);
  EXPECT_FALSE(env->find("build_type")->as_string().empty());
  EXPECT_FALSE(env->find("compiler")->as_string().empty());
  EXPECT_FALSE(env->find("git_sha")->as_string().empty());
  // Round-trips through the parser.
  EXPECT_TRUE(Value::parse(j.dump(2)).has_value());
}

TEST(RunReport, BenchmarkIsGetOrCreate) {
  raa::report::RunReport run{1};
  auto& a = run.benchmark("b", "§1");
  auto& b = run.benchmark("b", "§1");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(run.benchmarks().size(), 1u);
}

/// A report that sets every optional key the writer emits: wall_seconds,
/// params, paper_value, informational, obs, and metrics with several
/// samples, one of them negative.
raa::report::RunReport full_report() {
  raa::report::RunReport run{3};
  run.set_wall_seconds(12.5);
  auto& fig = run.benchmark("fig_full", "§3 Figure 3");
  fig.set_param("tiles", "64");
  fig.set_param("mode", "hybrid");
  for (const double x : {1.25, 1.5, 1.0}) fig.record("speedup", x, "x", 1.147);
  for (const double x : {-0.5, 0.1, 0.25}) fig.record("delta", x, "frac");
  fig.record_info("wall_seconds", 0.75, "s");
  run.benchmark("bare", "§0").record("count", 7.0);
  Value obs{raa::json::Object{}};
  obs.set("events", 42);
  obs.set("spans", raa::json::Array{Value{"commit"}, Value{"fill"}});
  run.set_obs(std::move(obs));
  return run;
}

/// The writer's bytes are pinned (the environment varies by host), and
/// reading them back through the tables and writing again changes nothing.
TEST(RunReportGolden, WriterMatchesCheckedInGoldenAndReadsBack) {
  const Value doc = full_report().to_json();
  Value pinned = doc;
  std::erase_if(pinned.as_object(), [](const raa::json::Member& m) {
    return m.first == "environment";
  });
  raa::test_util::expect_matches_golden(pinned.dump(2) + "\n",
                                        "run_report.golden.json",
                                        "run_report.actual.json");
  std::string error;
  const auto back = raa::report::RunReport::parse(doc, &error);
  ASSERT_TRUE(back) << error;
  EXPECT_EQ(back->to_json().dump(2), doc.dump(2));
}

// --------------------------------------------------------------------------
// Baseline-comparison tolerance logic
// --------------------------------------------------------------------------

Value report_json(double median_value,
                  std::optional<double> tolerance = std::nullopt) {
  raa::report::RunReport run{1};
  run.benchmark("bench", "§1").record("metric", median_value);
  Value j = run.to_json();
  if (tolerance) {
    auto& metric =
        j.find("benchmarks")->as_array()[0].find("metrics")->as_array()[0];
    metric.set("tolerance", *tolerance);
  }
  return j;
}

TEST(Compare, WithinDefaultToleranceIsOk) {
  const auto cmp =
      raa::report::compare(report_json(100.0), report_json(104.0));
  ASSERT_EQ(cmp.deltas.size(), 1u);
  EXPECT_EQ(cmp.deltas[0].kind, raa::report::DeltaKind::ok);
  EXPECT_TRUE(cmp.ok());
}

TEST(Compare, BeyondToleranceIsARegressionBothDirections) {
  for (const double measured : {94.0, 106.0}) {
    const auto cmp =
        raa::report::compare(report_json(100.0), report_json(measured));
    ASSERT_EQ(cmp.deltas.size(), 1u);
    EXPECT_EQ(cmp.deltas[0].kind, raa::report::DeltaKind::regression)
        << measured;
    EXPECT_FALSE(cmp.ok());
    EXPECT_EQ(cmp.violations(), 1u);
  }
}

TEST(Compare, PerMetricToleranceOverridesDefault) {
  // 20% drift: fails at the 5% default, passes with a 0.25 override.
  EXPECT_FALSE(
      raa::report::compare(report_json(100.0), report_json(120.0)).ok());
  EXPECT_TRUE(
      raa::report::compare(report_json(100.0, 0.25), report_json(120.0))
          .ok());
  // An override can also tighten below the default.
  EXPECT_FALSE(
      raa::report::compare(report_json(100.0, 0.001), report_json(102.0))
          .ok());
}

TEST(Compare, CustomDefaultTolerance) {
  raa::report::CompareOptions opts;
  opts.default_tolerance = 0.5;
  EXPECT_TRUE(
      raa::report::compare(report_json(100.0), report_json(140.0), opts)
          .ok());
}

TEST(Compare, MissingMetricFails) {
  auto baseline = report_json(100.0);
  raa::report::RunReport other{1};
  other.benchmark("bench", "§1").record("renamed_metric", 100.0);
  const auto cmp = raa::report::compare(baseline, other.to_json());
  ASSERT_EQ(cmp.deltas.size(), 1u);
  EXPECT_EQ(cmp.deltas[0].kind, raa::report::DeltaKind::missing);
  EXPECT_FALSE(cmp.ok());
  // The renamed metric shows up as results-only.
  EXPECT_EQ(cmp.extra_metrics, 1u);
}

TEST(Compare, MissingBenchmarkFails) {
  raa::report::RunReport empty{1};
  const auto cmp =
      raa::report::compare(report_json(100.0), empty.to_json());
  ASSERT_EQ(cmp.deltas.size(), 1u);
  EXPECT_EQ(cmp.deltas[0].kind, raa::report::DeltaKind::missing);
}

TEST(Compare, ExtraMetricsInResultsDoNotFail) {
  raa::report::RunReport run{1};
  auto& b = run.benchmark("bench", "§1");
  b.record("metric", 100.0);
  b.record("new_metric", 1.0);
  const auto cmp = raa::report::compare(report_json(100.0), run.to_json());
  EXPECT_TRUE(cmp.ok());
  EXPECT_EQ(cmp.extra_metrics, 1u);
}

TEST(Compare, ZeroBaselineOnlyMatchesZero) {
  EXPECT_TRUE(raa::report::compare(report_json(0.0), report_json(0.0)).ok());
  EXPECT_FALSE(
      raa::report::compare(report_json(0.0), report_json(0.001)).ok());
}

TEST(Compare, MalformedBaselineMetricFailsLoudly) {
  // A baseline missing a "median" (e.g. a bad hand-edit while re-applying
  // tolerance overrides) must be a schema error, not a vacuous pass.
  auto baseline = report_json(100.0);
  auto& metric = baseline.find("benchmarks")
                     ->as_array()[0]
                     .find("metrics")
                     ->as_array()[0];
  auto& members = metric.as_object();
  std::erase_if(members, [](const auto& kv) { return kv.first == "median"; });
  EXPECT_THROW(raa::report::compare(baseline, report_json(100.0)),
               std::runtime_error);

  auto no_name = report_json(100.0);
  auto& bench = no_name.find("benchmarks")->as_array()[0];
  std::erase_if(bench.as_object(),
                [](const auto& kv) { return kv.first == "name"; });
  EXPECT_THROW(raa::report::compare(no_name, report_json(100.0)),
               std::runtime_error);
}

/// A hand edit that would loosen or drop the gate without a word (a
/// misspelt key, a string or out-of-range tolerance, a median that
/// disagrees with its samples) is an error naming the JSON path.
TEST(Compare, BaselineIsReadStrictlyWithJsonPaths) {
  const auto expect_error = [](const auto& edit, const std::string& want) {
    Value baseline = report_json(100.0, 0.25);
    edit(baseline.find("benchmarks")
             ->as_array()[0]
             .find("metrics")
             ->as_array()[0]);
    try {
      raa::report::compare(baseline, report_json(100.0));
      ADD_FAILURE() << "accepted; want " << want;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string{e.what()}, want);
    }
  };
  const std::string metric = "baseline.benchmarks[0].metrics[0]";
  expect_error(
      [](Value& m) {
        std::erase_if(m.as_object(), [](const raa::json::Member& kv) {
          return kv.first == "tolerance";
        });
        m.set("tolerence", 0.5);
      },
      metric + ".tolerence: unknown key");
  expect_error([](Value& m) { m.set("tolerance", "0.5"); },
               metric + ".tolerance: expected a number in [0, 1]");
  expect_error([](Value& m) { m.set("tolerance", 1e300); },
               metric + ".tolerance: expected a number in [0, 1]");
  expect_error([](Value& m) { m.set("median", 90.0); },
               metric + ".median: expected 100 (derived from the other "
                        "keys), got 90");
  expect_error([](Value& m) { m.set("samples", 100.0); },
               metric + ".samples: expected an array of samples");

  Value results = report_json(100.0);
  results.set("schema_version", 2);
  try {
    raa::report::compare(report_json(100.0), results);
    ADD_FAILURE() << "accepted schema_version 2";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string{e.what()},
              "results.schema_version: expected 1, got 2");
  }
}

TEST(Compare, RejectsNonSchemaDocuments) {
  const auto not_a_report = *Value::parse(R"({"benchmarks": []})");
  EXPECT_THROW(raa::report::compare(not_a_report, report_json(1.0)),
               std::runtime_error);
  EXPECT_THROW(raa::report::compare(report_json(1.0), not_a_report),
               std::runtime_error);
  EXPECT_THROW(raa::report::compare(Value{1.0}, report_json(1.0)),
               std::runtime_error);
}

// --------------------------------------------------------------------------
// Informational (host wall-clock) metrics
// --------------------------------------------------------------------------

TEST(BenchReport, InformationalMetricSerializesFlag) {
  raa::report::BenchReport r{"bench", "§1"};
  r.record_info("wall_seconds", 1.25, "s");
  r.record("speedup", 2.0, "x");
  const auto j = r.to_json();
  const auto& metrics = j.find("metrics")->as_array();
  ASSERT_EQ(metrics.size(), 2u);
  const auto* info = metrics[0].find("informational");
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->as_bool());
  // Simulated metrics never carry the flag.
  EXPECT_EQ(metrics[1].find("informational"), nullptr);
}

TEST(RunReport, WallSecondsSerialized) {
  raa::report::RunReport run{1};
  run.benchmark("b", "§1").record("m", 1.0);
  EXPECT_EQ(run.to_json().find("wall_seconds"), nullptr);  // unset: omitted
  run.set_wall_seconds(3.5);
  const auto j = run.to_json();
  ASSERT_NE(j.find("wall_seconds"), nullptr);
  EXPECT_DOUBLE_EQ(j.find("wall_seconds")->as_number(), 3.5);
}

/// Baseline with one gated metric plus one informational metric whose
/// value is wildly off in the results — the comparison must not gate it.
TEST(Compare, InformationalMetricsAreExemptFromTheGate) {
  const auto make = [](double gated, double wall) {
    raa::report::RunReport run{1};
    auto& b = run.benchmark("bench", "§1");
    b.record("metric", gated);
    b.record_info("wall_seconds", wall, "s");
    return run.to_json();
  };
  // 10x host wall-clock drift, simulated metric unchanged: still ok.
  const auto cmp = raa::report::compare(make(100.0, 1.0), make(100.0, 10.0));
  EXPECT_TRUE(cmp.ok());
  ASSERT_EQ(cmp.deltas.size(), 1u);  // only the gated metric was compared
  EXPECT_EQ(cmp.deltas[0].metric, "metric");
  EXPECT_EQ(cmp.informational_skipped, 1u);

  // Even an informational metric *missing* from the results must not fail
  // (a bench may legitimately skip throughput accounting on some hosts).
  raa::report::RunReport no_wall{1};
  no_wall.benchmark("bench", "§1").record("metric", 100.0);
  const auto cmp2 =
      raa::report::compare(make(100.0, 1.0), no_wall.to_json());
  EXPECT_TRUE(cmp2.ok());
  EXPECT_EQ(cmp2.informational_skipped, 1u);
}

/// An informational metric present in both files is not "only in the
/// results": a report compared with itself has no extra metrics.
TEST(Compare, InformationalMetricInBothFilesIsNotExtra) {
  raa::report::RunReport run{1};
  auto& b = run.benchmark("bench", "§1");
  b.record("metric", 100.0);
  b.record_info("wall_seconds", 1.0, "s");
  const auto cmp = raa::report::compare(run.to_json(), run.to_json());
  EXPECT_TRUE(cmp.ok());
  EXPECT_EQ(cmp.informational_skipped, 1u);
  EXPECT_EQ(cmp.extra_metrics, 0u);
}

}  // namespace
