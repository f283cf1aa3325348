#include "report/report.hpp"

#include <fstream>
#include <string_view>

#include "report/json_bind.hpp"

// Generated at build time (cmake/git_sha.cmake); defines RAA_GIT_SHA with
// the current short HEAD sha. Guarded so the file also compiles in builds
// that don't wire up the generator.
#ifdef RAA_HAVE_GIT_SHA_HEADER
#include "raa_git_sha.hpp"
#endif

namespace raa::report {

using namespace json::bind;
using json::Value;

/// The report schema: every key of BENCH_results.json is spelled here.
struct ReportTables {
  template <auto Stat>
  static double stat(const Metric& m) {
    return static_cast<double>(m.summary().*Stat);
  }
  static double median(const Metric& m) { return m.median(); }

  static constexpr Field<Environment> kEnvironment[] = {
      field<&Environment::build_type>("build_type", required),
      field<&Environment::compiler>("compiler", required),
      field<&Environment::git_sha>("git_sha", required),
      field<&Environment::os>("os", required),
  };

  /// The summary must agree with the samples, but for stddev, whose last
  /// bit FMA contraction may move from host to host.
  static constexpr Field<Metric> kMetric[] = {
      field<&Metric::name>("name", required),
      field<&Metric::unit>("unit", omit_empty),
      field<&Metric::paper_value>("paper_value", any_sign),
      field<&Metric::informational>("informational", omit_empty),
      computed<Metric, &stat<&Summary::count>>("count", derived),
      computed<Metric, &stat<&Summary::min>>("min", any_sign | derived),
      computed<Metric, &median>("median", any_sign | derived),
      computed<Metric, &stat<&Summary::mean>>("mean", any_sign | derived),
      computed<Metric, &stat<&Summary::max>>("max", any_sign | derived),
      computed<Metric, &stat<&Summary::stddev>>("stddev"),
      field<&Metric::samples>("samples", required | any_sign),
      field<&Metric::tolerance>("tolerance", fraction),
  };

  /// "params": string values, emitted only when a parameter was set.
  static bool read_params(const Ctx& c, const Value& v,
                          const std::string& path, const Field<BenchReport>&,
                          BenchReport& b) {
    if (!v.is_object()) return c.fail(path, "expected an object");
    for (const auto& [key, value] : v.as_object())
      if (!convert(c, value, path + "." + key, 0, 0,
                   b.params_.emplace_back(key, "").second))
        return false;
    return true;
  }
  static void write_params(const Field<BenchReport>& f, const BenchReport& b,
                           Value& obj) {
    if (b.params_.empty()) return;
    Value params{json::Object{}};
    for (const auto& [key, value] : b.params_) params.set(key, value);
    obj.set(f.key, std::move(params));
  }

  static constexpr Field<BenchReport> kBench[] = {
      field<&BenchReport::name_>("name", required),
      field<&BenchReport::paper_ref_>("paper_reference", required),
      {"params", 0, 0, &read_params, &write_params},
      object<kMetric, &BenchReport::metrics_>("metrics", required),
  };

  /// "obs" is a free-form snapshot: RunReport::parse and to_json copy it.
  static constexpr Field<RunReport> kRun[] = {
      constant<RunReport, kSchemaName>("schema", required),
      constant<RunReport, kSchemaVersion>("schema_version", required),
      field<&RunReport::reps_>("reps", required),
      field<&RunReport::wall_seconds_>("wall_seconds"),
      object<kEnvironment, &RunReport::env_>("environment", required),
      object<kBench, &RunReport::benchmarks_>("benchmarks", required),
      key<RunReport>("obs"),
  };
};

Environment Environment::capture() {
  Environment e;
#ifdef RAA_BUILD_TYPE
  e.build_type = RAA_BUILD_TYPE;
#else
  e.build_type = "unknown";
#endif
#if defined(__clang__)
  e.compiler = "Clang " __clang_version__;
#elif defined(__GNUC__)
  e.compiler = "GCC " __VERSION__;
#else
  e.compiler = "unknown";
#endif
#ifdef RAA_GIT_SHA
  e.git_sha = RAA_GIT_SHA;
#else
  e.git_sha = "unknown";
#endif
#if defined(__linux__)
  e.os = "linux";
#elif defined(__APPLE__)
  e.os = "darwin";
#elif defined(_WIN32)
  e.os = "windows";
#else
  e.os = "unknown";
#endif
  return e;
}

Summary Metric::summary() const noexcept { return summarize(samples); }

double Metric::median() const { return raa::median(samples); }

void BenchReport::set_param(const std::string& key, const std::string& value) {
  for (auto& [k, v] : params_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  params_.emplace_back(key, value);
}

Metric& BenchReport::metric(const std::string& name, const std::string& unit,
                            std::optional<double> paper_value,
                            bool informational) {
  for (auto& m : metrics_)
    if (m.name == name) return m;
  return metrics_.emplace_back(Metric{name, unit, paper_value, informational});
}

void BenchReport::record(const std::string& name, double value,
                         const std::string& unit,
                         std::optional<double> paper_value) {
  metric(name, unit, paper_value).samples.push_back(value);
}

void BenchReport::record_info(const std::string& name, double value,
                              const std::string& unit) {
  metric(name, unit, std::nullopt, /*informational=*/true)
      .samples.push_back(value);
}

void BenchReport::absorb(const BenchReport& other) {
  for (const auto& [k, v] : other.params_) set_param(k, v);
  for (const Metric& m : other.metrics_) {
    Metric& mine = metric(m.name, m.unit, m.paper_value, m.informational);
    mine.samples.insert(mine.samples.end(), m.samples.begin(),
                        m.samples.end());
  }
}

json::Value BenchReport::to_json() const {
  return write(ReportTables::kBench, *this);
}

BenchReport& RunReport::benchmark(const std::string& name,
                                  const std::string& paper_ref) {
  for (auto& b : benchmarks_)
    if (b.name() == name) return b;
  benchmarks_.emplace_back(name, paper_ref);
  return benchmarks_.back();
}

std::optional<RunReport> RunReport::parse(const json::Value& doc,
                                          std::string* error,
                                          const std::string& root) {
  RunReport run{0};
  if (!read(Ctx{error}, doc, root, ReportTables::kRun, run))
    return std::nullopt;
  if (const Value* obs = doc.find("obs")) run.obs_ = *obs;
  return run;
}

json::Value RunReport::to_json() const {
  return write(ReportTables::kRun, *this, [&](std::string_view, Value& v) {
    if (obs_) v.set("obs", *obs_);
  });
}

bool write_json_file(const json::Value& v, const std::string& path,
                     std::string* error) {
  std::ofstream out{path};
  if (!out) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  out << v.dump(2) << '\n';
  out.flush();
  if (!out) {
    if (error) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

bool RunReport::write_file(const std::string& path, std::string* error) const {
  return write_json_file(to_json(), path, error);
}

}  // namespace raa::report
