#pragma once
/// \file report.hpp
/// Machine-readable benchmark reports. Every figure/ablation bench records
/// its headline numbers into a BenchReport; a RunReport aggregates all
/// benchmarks of one invocation plus the environment (build type, compiler,
/// git sha) and serialises to the BENCH_results.json schema documented in
/// docs/BENCHMARKS.md, whose keys only the field tables in report.cpp spell
/// (they write it and read it back, RunReport::parse). Repetition
/// statistics (min/median/mean/stddev) reuse common/stats.

#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "report/json.hpp"

namespace raa::report {

/// Bumped whenever the JSON layout changes incompatibly; compare refuses
/// to diff files with a different version.
inline constexpr int kSchemaVersion = 1;
inline constexpr const char* kSchemaName = "raa-bench-results";

/// Schema marker of the fuzz summary raa_fuzz emits (src/fuzz/). Kept in
/// the report layer next to the bench schema so every machine-readable
/// artifact the repo produces declares itself in one place.
inline constexpr int kFuzzSchemaVersion = 1;
inline constexpr const char* kFuzzSchemaName = "raa-fuzz-summary";

/// Schema markers of the fleet artifacts (src/fleet/): the job manifest
/// raa_fleet ingests and the merged per-run index it always writes.
inline constexpr int kFleetManifestSchemaVersion = 1;
inline constexpr const char* kFleetManifestSchemaName = "raa-fleet-manifest";
inline constexpr int kFleetIndexSchemaVersion = 1;
inline constexpr const char* kFleetIndexSchemaName = "raa-fleet-index";

/// Pretty-print any JSON value to a file (trailing newline included);
/// returns false and fills `error` on I/O failure. Shared by the fuzz
/// summary/repro writers and ad-hoc tools so file handling lives once.
bool write_json_file(const json::Value& v, const std::string& path,
                     std::string* error = nullptr);

struct ReportTables;  // report.cpp: the report schema's field tables

/// Build/toolchain provenance embedded in every report.
struct Environment {
  std::string build_type;  ///< CMake config (Release, Debug, ...)
  std::string compiler;    ///< e.g. "GCC 12.2.0"
  std::string git_sha;     ///< configure-time short sha, or "unknown"
  std::string os;          ///< "linux", "darwin", ...

  static Environment capture();
  friend bool operator==(const Environment&, const Environment&) = default;
};

/// One metric: a named series of per-repetition samples plus metadata.
/// `informational` marks host-dependent measurements (wall-clock seconds,
/// accesses/sec): they are serialized like any other metric so trends
/// accumulate, but the baseline comparison never gates on them (host noise
/// must not fail CI — see docs/BENCHMARKS.md).
struct Metric {
  std::string name;
  std::string unit;
  std::optional<double> paper_value;
  bool informational = false;
  std::vector<double> samples;
  std::optional<double> tolerance;  ///< a baseline's override, in [0, 1]

  /// count/mean/stddev/min/max over the samples (common/stats Welford).
  Summary summary() const noexcept;
  double median() const;
  friend bool operator==(const Metric&, const Metric&) = default;
};

/// Per-benchmark aggregation: parameters + metrics.
class BenchReport {
 public:
  BenchReport() = default;  ///< for RunReport::parse
  BenchReport(std::string name, std::string paper_ref)
      : name_(std::move(name)), paper_ref_(std::move(paper_ref)) {}

  const std::string& name() const noexcept { return name_; }

  /// Record the effective value of a bench parameter (e.g. tiles=64).
  /// Re-setting a key overwrites; repetition-idempotent.
  void set_param(const std::string& key, const std::string& value);

  /// Get-or-create a metric. unit/paper_value/informational are taken
  /// from the first call for a given name; later calls just return the
  /// series.
  Metric& metric(const std::string& name, const std::string& unit = "",
                 std::optional<double> paper_value = std::nullopt,
                 bool informational = false);

  /// Shorthand: metric(...).samples.push_back(value).
  void record(const std::string& name, double value,
              const std::string& unit = "",
              std::optional<double> paper_value = std::nullopt);

  /// Record a host-dependent (informational) sample: serialized into the
  /// report but exempt from the baseline comparison's two-sided gate.
  void record_info(const std::string& name, double value,
                   const std::string& unit = "");

  /// Merge another report of the same benchmark into this one: params
  /// overwrite, metric samples append in `other`'s insertion order. The
  /// parallel bench harness records each (benchmark, repetition) unit
  /// into a private BenchReport and absorbs them in registration order,
  /// which keeps the merged JSON identical to a serial run's.
  void absorb(const BenchReport& other);

  const std::vector<Metric>& metrics() const noexcept { return metrics_; }

  json::Value to_json() const;
  friend bool operator==(const BenchReport&, const BenchReport&) = default;

 private:
  friend struct ReportTables;
  std::string name_;
  std::string paper_ref_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<Metric> metrics_;
};

/// Whole-run aggregation: environment + repetition count + all benchmarks.
class RunReport {
 public:
  explicit RunReport(unsigned reps)
      : reps_(reps), env_(Environment::capture()) {}

  /// Read a BENCH_results document strictly through the report tables;
  /// on any mismatch: nullopt, and "root.path: reason" in `error`.
  static std::optional<RunReport> parse(const json::Value& doc,
                                        std::string* error = nullptr,
                                        const std::string& root = "report");

  /// Total host wall-clock of the run (informational; serialized as a
  /// top-level "wall_seconds" field, never compared against baselines).
  void set_wall_seconds(double s) { wall_seconds_ = s; }

  /// Attach an observability snapshot (obs::Registry::snapshot_json()).
  /// Serialized as a quarantined top-level "obs" member that the baseline
  /// comparison never reads; absent unless explicitly set, so reports
  /// from untraced runs are byte-identical to before the obs layer.
  void set_obs(json::Value v) { obs_ = std::move(v); }

  /// Get-or-create the report for one benchmark.
  BenchReport& benchmark(const std::string& name,
                         const std::string& paper_ref);

  const std::vector<BenchReport>& benchmarks() const noexcept {
    return benchmarks_;
  }

  json::Value to_json() const;

  /// Pretty-print to a file; returns false and fills `error` on I/O
  /// failure.
  bool write_file(const std::string& path, std::string* error = nullptr) const;

 private:
  friend struct ReportTables;
  unsigned reps_;
  Environment env_;
  std::optional<double> wall_seconds_;
  std::optional<json::Value> obs_;
  std::vector<BenchReport> benchmarks_;
};

}  // namespace raa::report
