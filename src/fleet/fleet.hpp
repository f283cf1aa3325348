#pragma once
/// \file fleet.hpp
/// The fault-isolated batch engine behind tools/raa_fleet: run every job
/// of a manifest across an exec::Pool, survive individual job failures
/// (job.hpp taxonomy), enforce per-job deadlines through a watchdog with
/// cooperative cancellation, retry transient failures under a capped
/// exponential backoff budget, stream one result JSON per job to an
/// output directory, and merge everything into one machine-readable index
/// ("raa-fleet-index").
///
/// Determinism contract (the FleetEquivalence suite pins it): per-job
/// seeds derive from the manifest (manifest.hpp), per-job result
/// documents carry no wall-clock or host-dependent fields, and the
/// index's job records are assembled in manifest order — so every gated
/// byte is identical for any `jobs` lane count and any completion order.
/// Fleet throughput (scenarios/s, aggregate simulated accesses/s) is
/// informational only and quarantined in the index's "informational"
/// block.
///
/// Exit taxonomy (common/exit_codes.hpp): 0 when every job ended
/// ok/retried_ok, 4 when some did and some did not (graceful
/// degradation), 1 when none did or the fleet itself failed (output-dir
/// I/O), 2 on configuration errors.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/job.hpp"
#include "fleet/manifest.hpp"
#include "report/json.hpp"

namespace raa::fleet {

struct FleetOptions {
  Manifest manifest;
  /// Directory for per-job result files (`<id>.json`) and the merged
  /// `index.json`; empty runs fully in-memory (tests).
  std::string out_dir;
  unsigned jobs = 1;  ///< concurrent job lanes (exec::Pool workers)
  /// Outermost fallback for knobs neither the job entry nor the manifest
  /// "defaults" set (the driver's command-line flags land here).
  JobLimits fallback;
  std::uint64_t backoff_base_ms = 50;  ///< first retry delay
  std::uint64_t backoff_cap_ms = 2000; ///< exponential backoff ceiling
  /// Fault-injection test hooks, each a glob over job ids: `inject_fail`
  /// fails matching jobs permanently, `inject_flaky` fails their first
  /// attempt with a transient error (drives the retry path),
  /// `inject_hang` stalls them until the watchdog cancels (drives the
  /// timeout path; matching jobs must have a deadline).
  std::string inject_fail;
  std::string inject_hang;
  std::string inject_flaky;
  /// Record still-unstarted jobs as `skipped` once any job has failed.
  bool fail_fast = false;
  bool quiet = true;  ///< suppress per-job progress on stdout
};

/// Final record of one job, in manifest order.
struct JobRecord {
  std::string id;
  std::string input;  ///< resolved scenario or trace path
  std::uint64_t seed = 0;
  JobStatus status = JobStatus::skipped;
  ErrorKind error = ErrorKind::none;
  std::string message;
  unsigned attempts = 0;
  std::string result_file;  ///< "<id>.json" on success with an out_dir
  json::Value result;       ///< per-job result document (success only)
  std::uint64_t sim_accesses = 0;
};

struct FleetResult {
  std::vector<JobRecord> records;  ///< manifest order
  json::Value index;               ///< the raa-fleet-index document
  int exit_code = 0;
  std::string error;  ///< fleet-level configuration/I/O failure
  unsigned ok = 0, retried_ok = 0, failed = 0, timeout = 0, skipped = 0;
};

FleetResult run_fleet(const FleetOptions& opt);

/// `t` plus `ms` milliseconds, saturating at time_point::max() where the
/// plain sum would overflow the clock: a deadline or a retry release
/// centuries away is never. The watchdog and the retry backoff both
/// schedule through it.
std::chrono::steady_clock::time_point saturating_add(
    std::chrono::steady_clock::time_point t, std::uint64_t ms);

}  // namespace raa::fleet
