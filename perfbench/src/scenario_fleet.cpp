// scenario_fleet: a closed-loop fleet. Jobs are the corpus scenarios
// (scenarios/*.json) times kCopies ids each; run_fleet derives each job's
// seed from the manifest seed, which is the benchmark seed, and runs them
// on kLanes exec::Pool lanes with results kept in memory. Each lane takes
// its next job only when its previous one finished. Unlike fig1_nas this
// is many short memsim runs, so per-run setup (parse, instantiate, System
// construction, final flush), the scenario generator front ends and the
// banked DRAM backend weigh in; it is the only workload that runs fleet
// and exec::Pool.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fleet/fleet.hpp"
#include "memsim/system.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace mem = raa::mem;
namespace fleet = raa::fleet;
namespace json = raa::json;

/// One lane: with two, the ten-seed spreads of the timings were 20-31%
/// against 7-15% with one, since two memory-bound simulations at once
/// swing with the host's memory traffic. It also makes a traced pass's
/// run_fleet the 1-lane run that the engine overhead is measured against.
constexpr unsigned kLanes = 1;
/// Ids per corpus scenario. Job costs vary with their seeds; 64 seeds per
/// scenario keep a pass's totals from moving much between benchmark seeds.
constexpr unsigned kCopies = 64;
/// run_fleet calls per pass, each over a contiguous slice of the jobs,
/// with a host gauge probe before each: a 768-job fleet takes 3-4 s, too
/// long for one probe to speak for the host's speed throughout it.
constexpr std::size_t kSlices = 4;
constexpr std::size_t kFillBatch = 64;

/// Corpus scenario paths, relative to the checkout root, sorted.
std::vector<std::string> corpus() {
  std::vector<std::string> paths;
  for (const auto& e : fs::directory_iterator("scenarios"))
    if (e.is_regular_file() && e.path().extension() == ".json")
      paths.push_back("scenarios/" + e.path().filename().string());
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// The fleet's set-up: parse every corpus scenario once (the manifest
/// only names files that load) and build the manifest.
fleet::Manifest make_manifest(std::uint64_t seed) {
  fleet::Manifest man;
  man.name = "perfbench";
  man.seed = seed;
  for (const std::string& path : corpus()) {
    std::string error;
    if (!raa::scen::Scenario::load_file(path, &error))
      throw std::runtime_error(error);
    const std::string stem = fs::path(path).stem().string();
    for (unsigned k = 0; k < kCopies; ++k) {
      fleet::JobSpec job;
      job.id = stem + "." + std::to_string(k);
      job.scenario = path;
      man.jobs.push_back(std::move(job));
    }
  }
  return man;
}

/// Digest of a job's result document without its build provenance
/// (compiler, build type, git sha), which differs between builds.
std::string result_digest(const json::Value& result) {
  json::Value doc = result;
  if (doc.is_object())
    std::erase_if(doc.as_object(),
                  [](const json::Member& m) { return m.first == "environment"; });
  Digest d;
  d.add(doc.dump());
  return d.hex();
}

/// One run_fleet call of a pass.
struct Slice {
  double cpu_s = 0.0;
  double busy_s = 0.0;  ///< sum of the job spans
  std::vector<double> job_ms;
  std::size_t gauge_mark = 0;  ///< HostGauge mark taken before the call
};

struct Pass {
  double wall_s = 0.0;
  std::uint64_t sim_accesses = 0;
  double busy_s = 0.0;  ///< sum of the job spans
  std::vector<double> job_ms;
  unsigned attempts = 0;
  std::vector<Slice> slices;
};

/// Work counts of the traced passes' decompositions; their times are
/// the spans.
struct Layers {
  std::array<std::uint64_t, 2> run_acc{};  ///< by MemBackendKind
  std::uint64_t fill_acc = 0;
  std::uint64_t jobs = 0;
};

/// Time each layer a job attempt passes through, from outside: the job
/// attempt as a whole, then the same steps called one by one.
void decompose(const fleet::Manifest& man, Tracer& tracer, Layers& L,
               Checks& checks) {
  const std::atomic<bool> cancel{false};
  for (std::size_t j = 0; j < man.jobs.size(); ++j) {
    const fleet::JobSpec& job = man.jobs[j];
    fleet::JobSettings settings;
    settings.seed = fleet::derive_job_seed(man.seed, job.id);
    std::uint64_t attempt_acc = 0;
    {
      Timer t{tracer, "fleet.run_job_attempt", j + 1};
      attempt_acc = fleet::run_job_attempt(job, settings, cancel).sim_accesses;
    }
    Timer outer{tracer, "fleet.job_layers", j + 1};
    Timer load{tracer, "scenario.load", j + 1};
    auto scenario = raa::scen::Scenario::load_file(job.scenario);
    load.stop();
    if (!scenario) {
      checks.op(false, "scenario_fleet load " + job.scenario);
      continue;
    }
    scenario->seed = settings.seed;
    const auto kind = static_cast<std::size_t>(scenario->config.memory.kind);
    std::uint64_t acc = 0;
    for (const mem::HierarchyMode mode : scenario->hierarchy_modes()) {
      Timer inst{tracer, "scenario.instantiate", j + 1};
      mem::Workload w = scenario->instantiate();
      inst.stop();
      Timer construct{tracer, "memsim.construct", j + 1};
      mem::System sys{scenario->config, mode};
      construct.stop();
      Timer run{tracer, kind == 0 ? "memsim.run.flat" : "memsim.run.banked",
                j + 1};
      const mem::Metrics m = sys.run(w);
      run.stop();
      L.run_acc[kind] += m.accesses;
      acc += m.accesses;
    }
    outer.stop();
    // The generator front ends alone: an identical workload drained
    // through fill().
    mem::Workload twin = scenario->instantiate();
    std::array<mem::Access, kFillBatch> buf;
    Timer fill{tracer, "scenario.fill", j + 1};
    for (auto& program : twin.programs)
      while (const std::size_t n = program->fill(buf)) L.fill_acc += n;
    fill.stop();
    ++L.jobs;
    checks.op(acc == attempt_acc,
              "scenario_fleet layered replay of " + job.id +
                  " simulated a different access count");
  }
}

}  // namespace

Outcome run_scenario_fleet(const Options& opt, Tracer& tracer) {
  Goldens goldens{opt.goldens_dir + "/scenario_fleet.txt", opt.write_goldens};
  Outcome out;

  // setup_s samples: this manifest build and one more before each
  // run_fleet call, so that they spread over the run.
  std::vector<Sample> setup;
  const std::size_t mark0 = gauge().mark();
  const double c0 = process_cpu_s();
  const fleet::Manifest man = make_manifest(opt.seed);
  setup.push_back({process_cpu_s() - c0, mark0});

  const std::string seed_key = "seed" + std::to_string(opt.seed) + ".";
  std::vector<std::string> first;  // per-job result digests of pass 1
  std::vector<Pass> untraced, traced;
  Layers layers;
  std::uint64_t pass_id = 0;
  std::vector<fleet::Manifest> slices(kSlices);
  std::vector<std::size_t> slice_begin(kSlices);  // first job of each slice
  for (std::size_t k = 0; k < kSlices; ++k) {
    slice_begin[k] = k * man.jobs.size() / kSlices;
    const std::size_t end = (k + 1) * man.jobs.size() / kSlices;
    slices[k].name = man.name;
    slices[k].seed = man.seed;  // job seeds derive from it and the job id
    slices[k].jobs.assign(
        man.jobs.begin() + static_cast<std::ptrdiff_t>(slice_begin[k]),
        man.jobs.begin() + static_cast<std::ptrdiff_t>(end));
  }
  const auto run_pass = [&](bool trace_this) {
    Pass pass;
    const bool first_pass = first.empty();
    if (first_pass) first.resize(man.jobs.size());
    for (std::size_t k = 0; k < kSlices; ++k) {
      Slice slice;
      fleet::FleetOptions fo{.manifest = slices[k], .jobs = kLanes};
      slice.gauge_mark = gauge().mark();
      const double s0 = process_cpu_s();
      make_manifest(opt.seed);
      setup.push_back({process_cpu_s() - s0, slice.gauge_mark});
      Timer t{tracer, "fleet.run_fleet", ++pass_id};
      const fleet::FleetResult res = fleet::run_fleet(fo);
      pass.wall_s += t.stop();
      slice.cpu_s = t.cpu_s();

      const json::Value* info = res.index.find("informational");
      const json::Value* spans = info ? info->find("job_wall_ms") : nullptr;
      const bool have_spans = spans != nullptr && spans->is_array() &&
                              spans->as_array().size() == res.records.size();
      for (std::size_t i = 0; i < res.records.size(); ++i) {
        const fleet::JobRecord& r = res.records[i];
        const std::size_t j = slice_begin[k] + i;
        const std::string d = r.status == fleet::JobStatus::ok
                                  ? result_digest(r.result)
                                  : std::string{"none"};
        if (first_pass) first[j] = d;
        const bool ok = r.status == fleet::JobStatus::ok && d == first[j] &&
                        goldens.matches(seed_key + r.id, d).value_or(true);
        out.checks.op(ok, "scenario_fleet job " + r.id + " (" +
                              fleet::to_string(r.status) + ": " + r.message +
                              ")");
        pass.sim_accesses += r.sim_accesses;
        pass.attempts += r.attempts;
        if (have_spans) {
          const json::Value* ms = spans->as_array()[i].find("wall_ms");
          if (ms != nullptr && ms->is_number()) {
            slice.job_ms.push_back(ms->as_number());
            slice.busy_s += ms->as_number() * 1e-3;
          }
        }
      }
      out.checks.op(have_spans, "scenario_fleet index job_wall_ms spans");
      pass.busy_s += slice.busy_s;
      pass.job_ms.insert(pass.job_ms.end(), slice.job_ms.begin(),
                         slice.job_ms.end());
      pass.slices.push_back(std::move(slice));
    }
    if (trace_this) decompose(man, tracer, layers, out.checks);
    return pass;
  };
  // The first fleet of a process runs markedly slower (cold allocator
  // arenas and lane threads); warm up so passes measure the steady state.
  run_passes(opt, tracer, /*warm_up=*/true, run_pass, untraced, traced);
  gauge().probe();
  if (opt.write_goldens)
    goldens.save(
        "# scenario_fleet goldens: digest of each job's result document\n"
        "# (environment block removed), keyed seed<N>.<job id>. Written for\n"
        "# the default seed with run.py --workload scenario_fleet --seed 1\n"
        "# --seconds 1 --write-goldens\n");
  Digest digest;
  for (std::size_t j = 0; j < first.size(); ++j)
    digest.add(man.jobs[j].id + "=" + first[j]);
  out.digest = digest.hex();

  const double jobs = static_cast<double>(man.jobs.size());
  auto& m = out.metrics;
  if (!opt.trace) {
    std::vector<double> wall, job_wall_ms;
    for (const Pass& p : untraced) {
      wall.push_back(p.wall_s);
      job_wall_ms.insert(job_wall_ms.end(), p.job_ms.begin(), p.job_ms.end());
    }
    std::printf("# %zu passes, %zu job latency samples; a pass took %.4f s "
                "wall; job wall p50 %.4f ms p95 %.4f ms\n",
                untraced.size(), job_wall_ms.size(), median(wall),
                quantile(job_wall_ms, 0.50), quantile(job_wall_ms, 0.95));
    // CPU times scaled by the host gauge around each pass.
    const auto metrics = [&](bool scaled) {
      std::vector<double> cpu, rate, acc_rate, job_ms;
      for (const Pass& p : untraced) {
        double p_cpu = 0.0;
        for (const Slice& sl : p.slices) {
          const double s_cpu =
              sl.cpu_s * (scaled ? gauge().scale(sl.gauge_mark) : 1.0);
          p_cpu += s_cpu;
          // A job's CPU latency: the run_fleet call's CPU time apportioned
          // over its jobs by their wall spans (the lane is busy throughout).
          for (const double ms : sl.job_ms)
            job_ms.push_back(ms * s_cpu / sl.busy_s);
        }
        cpu.push_back(p_cpu);
        rate.push_back(jobs / p_cpu);
        acc_rate.push_back(static_cast<double>(p.sim_accesses) / p_cpu);
      }
      return std::vector<Metric>{
          {"setup_s", scaled_median(setup, scaled), "s"},
          {"cpu_s", median(cpu), "s"},
          {"peak_rss_mb", peak_rss_mib(), "MiB"},
          {"sim_events_per_s", median(acc_rate), "1/s"},
          {"throughput_per_s", median(rate), "1/s"},
          {"latency_p50_ms", quantile(job_ms, 0.50), "ms"},
          {"latency_p95_ms", quantile(job_ms, 0.95), "ms"}};
    };
    print_unscaled(metrics(false));
    m = metrics(true);
    return out;
  }

  const auto total = tracer.total_s();
  const auto at = [&](const char* name) {
    const auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  };
  const double n = static_cast<double>(layers.jobs);
  const double flat = at("memsim.run.flat"), banked = at("memsim.run.banked");
  const double layered = at("scenario.load") + at("scenario.instantiate") +
                         at("memsim.construct") + flat + banked;
  m.push_back({"scenario.load_ms_per_job", at("scenario.load") * 1e3 / n,
               "ms"});
  m.push_back({"scenario.instantiate_ms_per_job",
               at("scenario.instantiate") * 1e3 / n, "ms"});
  m.push_back({"scenario.fill_ns_per_access",
               at("scenario.fill") * 1e9 /
                   static_cast<double>(layers.fill_acc),
               "ns"});
  m.push_back({"memsim.construct_ms_per_job",
               at("memsim.construct") * 1e3 / n, "ms"});
  m.push_back({"memsim.flat.ns_per_access",
               flat * 1e9 / static_cast<double>(layers.run_acc[0]), "ns"});
  m.push_back({"memsim.banked.ns_per_access",
               banked * 1e9 / static_cast<double>(layers.run_acc[1]), "ns"});
  m.push_back({"fleet.attempt_overhead_ms_per_job",
               (at("fleet.run_job_attempt") - layered) * 1e3 / n, "ms"});
  m.push_back({"fleet.engine_overhead_ms_per_job",
               (at("fleet.run_fleet") - at("fleet.run_job_attempt")) * 1e3 / n,
               "ms"});
  double busy = 0.0, wall = 0.0, attempts = 0.0;
  std::vector<double> tw, uw;
  for (const Pass& p : traced) {
    busy += p.busy_s;
    wall += p.wall_s;
    attempts += p.attempts;
    tw.push_back(p.wall_s);
  }
  for (const Pass& p : untraced) uw.push_back(p.wall_s);
  m.push_back({"exec.lane_busy_frac", busy / (wall * kLanes), "fraction"});
  m.push_back({"fleet.attempts_per_job",
               attempts / (jobs * static_cast<double>(traced.size())),
               "count"});
  m.push_back({"bench.trace_overhead_frac", median(tw) / median(uw) - 1.0,
               "fraction"});
  return out;
}

}  // namespace perfbench
