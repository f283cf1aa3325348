#include "fleet/job.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "memsim/system.hpp"

namespace raa::fleet {

namespace {

/// CoreProgram wrapper that observes the watchdog's cancel flag at every
/// batch boundary. The JobError it throws unwinds System::run and reaches
/// run_job_attempt intact.
class CancellableProgram final : public mem::CoreProgram {
 public:
  CancellableProgram(std::unique_ptr<mem::CoreProgram> inner,
                     const std::atomic<bool>* cancel)
      : inner_(std::move(inner)), cancel_(cancel) {}

  bool next(mem::Access& out) override {
    check();
    return inner_->next(out);
  }

  std::size_t fill(std::span<mem::Access> out) override {
    check();
    return inner_->fill(out);
  }

 private:
  void check() const {
    if (cancel_->load(std::memory_order_relaxed))
      throw JobError(ErrorKind::cancelled,
                     "per-job deadline exceeded (run cancelled at an "
                     "access-stream batch boundary)");
  }

  std::unique_ptr<mem::CoreProgram> inner_;
  const std::atomic<bool>* cancel_;
};

void wrap_cancellable(mem::Workload& w, const std::atomic<bool>& cancel) {
  for (auto& program : w.programs)
    program = std::make_unique<CancellableProgram>(std::move(program),
                                                   &cancel);
}

}  // namespace

void record_runs(report::BenchReport& b,
                 const std::vector<mem::HierarchyMode>& modes,
                 const std::vector<mem::Metrics>& results) {
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const std::string prefix = std::string{mem::to_string(modes[i])} + "/";
    const mem::Metrics& m = results[i];
    b.record(prefix + "cycles", m.cycles, "cycles");
    b.record(prefix + "energy_pj", m.energy_pj(), "pJ");
    b.record(prefix + "noc_flit_hops", m.noc_flit_hops, "flit-hops");
    for (const auto& f : mem::kMetricsCounts)
      b.record(prefix + f.name, static_cast<double>(m.*f.member), "count");
  }
  if (modes.size() == 2) {
    b.record("time_x", results[0].cycles / results[1].cycles, "x");
    b.record("energy_x", results[0].energy_pj() / results[1].energy_pj(),
             "x");
    b.record("noc_x", results[0].noc_flit_hops / results[1].noc_flit_hops,
             "x");
  }
}

mem::Workload LoadedInput::make_workload() const {
  return trace ? scen::make_replay_workload(trace) : scenario.instantiate();
}

LoadedInput load_input(const JobSpec& job,
                       std::optional<scen::ScenarioMode> mode,
                       std::optional<mem::MemBackendKind> backend) {
  LoadedInput in;
  std::string error;
  if (!job.trace.empty()) {
    auto t = scen::TraceData::read_file(job.trace, &error);
    if (!t) throw JobError(ErrorKind::parse, error);
    in.trace = std::make_shared<const scen::TraceData>(std::move(*t));
    in.config = in.trace->config;
    in.modes = mode ? scen::hierarchy_modes(*mode)
                    : std::vector{in.trace->mode};
    if (in.modes.size() != 1)
      throw JobError(ErrorKind::parse,
                     "trace inputs accept mode cache_only or hybrid, got "
                     "'compare'");
  } else {
    auto s = scen::Scenario::load_file(job.scenario, &error);
    if (!s) throw JobError(ErrorKind::parse, error);
    in.scenario = std::move(*s);
    in.scenario.mode = mode.value_or(in.scenario.mode);
    // A declared region no program references is a degenerate scenario:
    // parse() accepts it (the struct is well-formed) but running it would
    // silently skew the address-space layout for no workload effect.
    if (const auto unref = in.scenario.first_unreferenced_region())
      throw JobError(ErrorKind::degenerate,
                     job.scenario + ": scenario.regions[" +
                         std::to_string(*unref) + "]: region '" +
                         in.scenario.regions[*unref].name +
                         "' is declared but referenced by no program");
    in.config = in.scenario.config;
    in.modes = in.scenario.hierarchy_modes();
  }
  in.config.memory.kind = backend.value_or(in.config.memory.kind);
  return in;
}

namespace {

/// The throwing core of run_job_attempt; the public wrapper translates
/// every escape into a classified outcome.
JobOutcome run_attempt_impl(const JobSpec& job, const JobSettings& settings,
                            const std::atomic<bool>& cancel) {
  LoadedInput in = load_input(job, settings.mode, settings.backend);
  auto& [scenario, trace, cfg, modes] = in;
  scenario.seed = settings.seed;

  JobOutcome out;
  std::vector<mem::Metrics> results;
  for (const mem::HierarchyMode mode : modes) {
    mem::Workload w = in.make_workload();
    wrap_cancellable(w, cancel);
    mem::System sys{cfg, mode};
    results.push_back(sys.run(w));
    out.sim_accesses += results.back().accesses;
  }

  // The result document is deliberately wall-clock-free: byte-identical
  // for any lane count and completion order (the FleetEquivalence
  // contract). Fleet-level throughput lives in the index's informational
  // block instead.
  report::RunReport run{1};
  auto& b = run.benchmark(job.id, "fleet-job");
  b.set_param("tiles", std::to_string(cfg.tiles));
  b.set_param("shards", "1");  // constant: keeps job documents byte-identical
  b.set_param("backend", mem::to_string(cfg.memory.kind));
  if (!job.trace.empty()) {
    b.set_param("trace", job.trace);
    b.set_param("mode", mem::to_string(modes[0]));
  } else {
    b.set_param("scenario", job.scenario);
    b.set_param("mode", scen::to_string(scenario.mode));
    b.set_param("seed", std::to_string(scenario.seed));
  }
  record_runs(b, modes, results);
  out.result = run.to_json();
  return out;
}

}  // namespace

JobOutcome run_job_attempt(const JobSpec& job, const JobSettings& settings,
                           const std::atomic<bool>& cancel) {
  try {
    return run_attempt_impl(job, settings, cancel);
  } catch (const JobError& e) {
    JobOutcome out;
    out.error = e.kind();
    out.message = e.what();
    return out;
  } catch (const CheckError& e) {
    // A broken simulator invariant: the run's numbers would be garbage,
    // so the job fails permanently — but the process (and every other
    // job) survives. This is the isolation the taxonomy exists for.
    JobOutcome out;
    out.error = ErrorKind::check;
    out.message = e.what();
    return out;
  } catch (const std::exception& e) {
    JobOutcome out;
    out.error = ErrorKind::internal;
    out.message = e.what();
    return out;
  }
}

}  // namespace raa::fleet
