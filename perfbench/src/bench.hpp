#pragma once
/// \file bench.hpp
/// Shared pieces of the layered host-performance benchmark: the span
/// tracer that times each call into a repository layer from outside, the
/// output checks that feed `failed`/`attempted`, golden files, digests and
/// the small statistics the workloads report.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds used by the whole process (every thread) so far. With
/// paravirtual steal accounting the kernel leaves out the time a
/// hypervisor gives the guest's vCPUs to other guests, so on a shared host
/// this is far steadier than wall time.
double process_cpu_s();

/// CPU seconds used by the calling thread so far.
double thread_cpu_s();

/// Host speed gauge. On a shared host the CPU time of the same work drifts
/// by 20-40% within minutes, as other tenants load the physical cores
/// beneath our vCPUs. The gauge times a fixed probe that belongs to the
/// benchmark (no change to the repository can move it) between samples of
/// the workload; a sample's CPU time is then scaled by kProbeRefS over the
/// probe time around it, which cancels the host's drift but not a change
/// in the program. The unscaled figures are printed on comment lines.
class HostGauge {
 public:
  /// Probe time of the reference host (4-vCPU Xeon, GCC 12.2, Release).
  static constexpr double kProbeRefS = 0.008;
  /// Probes whose median scales a sample.
  static constexpr std::size_t kWindow = 6;

  /// Time the probe now.
  void probe();
  /// Probe unless one ran within the last `every_s` wall seconds; returns
  /// the mark that a sample starting now passes to scale().
  std::size_t mark(double every_s = 0.0);
  /// Scale for the CPU time of a sample that started at `mark`: the
  /// reference over the median of the kWindow probes around it.
  double scale(std::size_t mark) const;

 private:
  std::vector<double> probes_;
  Clock::time_point last_{};
};

/// The process's gauge.
HostGauge& gauge();

/// A CPU time and the gauge mark taken before it.
struct Sample {
  double cpu_s = 0.0;
  std::size_t mark = 0;
};

/// Median of the samples' CPU times, each scaled by the gauge around it
/// when `scaled`.
double scaled_median(const std::vector<Sample>& samples, bool scaled);

/// System-wide share of CPU time stolen by the hypervisor since the last
/// call (/proc/stat); a diagnostic printed with each run.
double steal_share_since_last();

/// One timed layer call: name, start, end, the span that contains it and
/// the simulation, job or app run it belongs to (0 when none).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t id = 0;
};

/// In-memory span recorder. Spans nest by call order on the benchmark's
/// own thread; nothing is recorded when tracing is off, so an untraced run
/// pays one branch per layer call.
class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), recording_(enabled), epoch_(Clock::now()) {}

  /// Record spans from now on only if `on` (and tracing is enabled): the
  /// untraced passes of a traced run record nothing.
  void record(bool on) noexcept { recording_ = enabled_ && on; }

  /// Open a span under the innermost open one; -1 when tracing is off.
  int begin(std::string name, std::uint64_t id);
  void end(int span);

  /// Sum of span durations per name, in seconds.
  std::map<std::string, double> total_s() const;
  /// Sum of self times per name: each span's duration minus the part of
  /// it that its child spans cover.
  std::map<std::string, double> self_s() const;

  /// Write Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  bool write_chrome_json(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  bool recording_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times one layer call and records it as a span when tracing is on:
///   Timer t{tracer, "memsim.run", sim_id}; sys.run(w); run_s += t.stop();
class Timer {
 public:
  Timer(Tracer& tracer, std::string name, std::uint64_t id = 0)
      : tracer_(tracer), span_(tracer.begin(std::move(name), id)),
        cpu0_(process_cpu_s()), t0_(Clock::now()) {}
  ~Timer() { stop(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Wall seconds since construction; closes the span on the first call.
  double stop();
  /// Process CPU seconds between construction and stop().
  double cpu_s() const noexcept { return cpu_s_; }

 private:
  Tracer& tracer_;
  int span_;
  double cpu0_;
  Clock::time_point t0_;
  bool stopped_ = false;
  double seconds_ = 0.0;
  double cpu_s_ = 0.0;
};

/// Counts checked operations. A failed check is recorded, reported on
/// stderr (the first few) and never aborts the run.
class Checks {
 public:
  /// One operation (a simulation, job, app run or fib check).
  void op(bool ok, const std::string& what);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Golden values: one `key value` pair per line, `#` starts a comment.
/// In write mode every lookup records the actual value instead, and
/// save() rewrites the file.
class Goldens {
 public:
  Goldens(std::string path, bool write_mode);

  /// nullopt when the file holds no value for `key` (write mode: records
  /// `actual` and matches); otherwise whether `actual` equals it.
  std::optional<bool> matches(const std::string& key,
                              const std::string& actual);
  /// Write mode only: rewrite the file with the recorded values.
  bool save(const std::string& header) const;

 private:
  std::string path_;
  bool write_mode_;
  std::map<std::string, std::string> values_;
};

/// FNV-1a 64 over a sequence of strings (output digests).
class Digest {
 public:
  void add(std::string_view s);
  std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Exact text form of a double (C99 hexfloat).
std::string hexfloat(double v);

/// Median and quantiles (linear interpolation between order statistics).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mib();

/// What a workload hands back to main(): the checks, the metrics of the
/// requested kind and the per-workload output digest.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  Checks checks;
  std::vector<Metric> metrics;
  std::string digest;
};

/// Print the metrics computed without the host gauge's scale on a comment
/// line, for reference.
void print_unscaled(const std::vector<Metric>& metrics);

/// Everything a workload receives from the command line.
struct Options {
  std::string root = ".";  ///< checkout root (scenarios/, perfbench/)
  std::uint64_t seed = 1;
  double seconds = 36.0;
  bool trace = false;
  bool write_goldens = false;
  std::string goldens_dir;  ///< default <root>/perfbench/goldens
  std::string trace_out;    ///< Chrome trace path (traced runs)
};

/// Runs whole passes of a workload for the time budget: while the next
/// pass is predicted to fit, and at least one. A traced run alternates an
/// untraced and a traced pass, at least one of each, so the trace overhead
/// is measured in the same process. `warm_up` first runs one pass whose
/// timings are discarded (its checks still count), for workloads whose
/// first pass pays one-off costs that later passes do not.
template <class Pass, class RunPass>
void run_passes(const Options& opt, Tracer& tracer, bool warm_up,
                RunPass run_pass, std::vector<Pass>& untraced,
                std::vector<Pass>& traced) {
  if (warm_up) {
    tracer.record(false);
    run_pass(false);
  }
  const auto t0 = Clock::now();
  double last = 0.0;
  while (untraced.empty() || (opt.trace && traced.empty()) ||
         since(t0) + last <= opt.seconds) {
    const bool trace_this = opt.trace && untraced.size() > traced.size();
    tracer.record(trace_this);
    const auto p0 = Clock::now();
    Pass pass = run_pass(trace_this);
    last = since(p0);
    (trace_this ? traced : untraced).push_back(std::move(pass));
  }
  tracer.record(false);
}

Outcome run_fig1_nas(const Options& opt, Tracer& tracer);
Outcome run_scenario_fleet(const Options& opt, Tracer& tracer);
Outcome run_runtime_tasks(const Options& opt, Tracer& tracer);

}  // namespace perfbench
