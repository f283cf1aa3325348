#pragma once
/// \file job.hpp
/// One fleet job, run fault-isolated and in-process: the typed error
/// taxonomy (JobError), the final per-job statuses, and the attempt
/// runner. The taxonomy is what makes the fleet robust by construction —
/// a poisoned scenario (parse failure, degenerate workload, broken
/// simulator invariant) surfaces as a classified JobError the engine
/// records and survives, never an abort(); transient kinds are retried
/// under the deterministic backoff budget, permanent kinds fail fast.
///
/// Cancellation is cooperative: every core program is wrapped so the
/// access-stream front end observes the watchdog's cancel flag between
/// fill() batches and unwinds with ErrorKind::cancelled. Since the
/// simulator's commit loop is bounded by the accesses the front end
/// produces, cancelling production bounds the whole run — which is how a
/// timed-out job's pool slot is reclaimed without killing any thread.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/enum_names.hpp"
#include "fleet/manifest.hpp"
#include "memsim/config.hpp"
#include "report/json.hpp"
#include "report/report.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace.hpp"

namespace raa::mem {
struct Metrics;
}  // namespace raa::mem

namespace raa::fleet {

using raa::to_string;

/// Why a job attempt failed. The kind decides retryability: transient
/// kinds (io, cancelled) re-enter the queue under the retry budget;
/// everything else is permanent — retrying a parse error or a broken
/// invariant would burn budget to reproduce the same failure.
enum class ErrorKind : std::uint8_t {
  none,        ///< attempt succeeded
  parse,       ///< scenario/trace unreadable or schema-invalid
  degenerate,  ///< parsed, but degenerate as a workload (unused region)
  check,       ///< RAA_CHECK fired inside the simulator (raa::CheckError)
  io,          ///< filesystem error reading inputs — transient
  cancelled,   ///< watchdog deadline cancelled the attempt — transient
  injected,    ///< --inject-fail test hook
  internal,    ///< any other exception (bug in the job runner)
};

inline EnumNames<ErrorKind> enum_names(ErrorKind) {
  static constexpr EnumName<ErrorKind> kNames[] = {
      {"none", ErrorKind::none},
      {"parse", ErrorKind::parse},
      {"degenerate", ErrorKind::degenerate},
      {"check", ErrorKind::check},
      {"io", ErrorKind::io},
      {"cancelled", ErrorKind::cancelled},
      {"injected", ErrorKind::injected},
      {"internal", ErrorKind::internal}};
  return {"error kind", kNames};
}

/// True for kinds worth retrying (a repeat attempt can plausibly succeed).
constexpr bool is_transient(ErrorKind kind) noexcept {
  return kind == ErrorKind::io || kind == ErrorKind::cancelled;
}

/// The one exception type job code throws; everything else escaping an
/// attempt is classified ErrorKind::internal by the runner.
class JobError : public std::runtime_error {
 public:
  JobError(ErrorKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  ErrorKind kind() const noexcept { return kind_; }

 private:
  ErrorKind kind_;
};

/// Final per-job status in the fleet index.
enum class JobStatus : std::uint8_t {
  ok,          ///< first attempt succeeded
  retried_ok,  ///< succeeded after >= 1 failed attempt
  failed,      ///< permanent error, or transient retries exhausted
  timeout,     ///< retries exhausted with the deadline as the last error
  skipped,     ///< never attempted (fail-fast tripped first)
};

inline EnumNames<JobStatus> enum_names(JobStatus) {
  static constexpr EnumName<JobStatus> kNames[] = {
      {"ok", JobStatus::ok},
      {"retried_ok", JobStatus::retried_ok},
      {"failed", JobStatus::failed},
      {"timeout", JobStatus::timeout},
      {"skipped", JobStatus::skipped}};
  return {"job status", kNames};
}

/// Effective per-job execution settings after resolving job entry >
/// manifest defaults > driver fallback (fleet.cpp does the resolving).
struct JobSettings {
  std::optional<scen::ScenarioMode> mode;  ///< unset = the input's own
  std::optional<mem::MemBackendKind> backend;  ///< unset = the input's own
  std::uint64_t seed = 0;        ///< effective seed (scenario jobs)
  std::uint64_t timeout_ms = 0;  ///< 0 = no deadline (engine-enforced)
  unsigned retries = 0;          ///< extra attempts for transient kinds
};

/// A scenario or trace input, loaded and resolved for simulation: the one
/// path from an input file to runnable workloads, shared by the fleet's
/// attempts and raa_sim.
struct LoadedInput {
  scen::Scenario scenario;                       ///< scenario inputs
  std::shared_ptr<const scen::TraceData> trace;  ///< trace inputs
  mem::SystemConfig config;
  std::vector<mem::HierarchyMode> modes;

  /// A fresh workload; call once per simulated mode.
  mem::Workload make_workload() const;
};

/// Load `job`'s scenario or trace and apply the mode and backend
/// overrides (unset = the input's own). Throws JobError: `parse` for an
/// unreadable or invalid input, or a compare mode on a trace;
/// `degenerate` for a scenario region no program references.
LoadedInput load_input(const JobSpec& job,
                       std::optional<scen::ScenarioMode> mode,
                       std::optional<mem::MemBackendKind> backend);

/// What one attempt produced. `error == none` means success and `result`
/// holds the deterministic per-job report document (no wall-clock or
/// host-dependent fields — the fleet determinism contract hangs on this).
struct JobOutcome {
  ErrorKind error = ErrorKind::none;
  std::string message;
  json::Value result;
  std::uint64_t sim_accesses = 0;  ///< informational throughput input
};

/// Run one attempt of `job` end to end: load the input, apply settings,
/// simulate every hierarchy mode, build the result document. Never
/// throws — every failure comes back classified in the outcome. `cancel`
/// is the watchdog's flag; the attempt observes it cooperatively.
JobOutcome run_job_attempt(const JobSpec& job, const JobSettings& settings,
                           const std::atomic<bool>& cancel);

/// Record the full gated metric set of each simulated mode under
/// "<mode>/" and, for a cache_only + hybrid pair, the hybrid speedups
/// (time_x, energy_x, noc_x). Shared with raa_sim so the per-job result
/// files and the scenario driver's reports never drift apart.
void record_runs(report::BenchReport& b,
                 const std::vector<mem::HierarchyMode>& modes,
                 const std::vector<mem::Metrics>& results);

}  // namespace raa::fleet
