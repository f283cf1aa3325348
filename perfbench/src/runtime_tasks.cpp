// runtime_tasks: a live rt::Runtime with kWorkers workers beside the
// calling thread. Each pass runs a dependence wavefront (spawn plus
// dependence registration), nested fib through silent_async/corun
// (owner-deque push and steal), bodytrack/facesim dataflow runs checked
// against their serial references, and Figure 5 scalability replays of
// the synthetic bodytrack/facesim TDGs (simcore). memsim does no work
// here: this workload should not move under a simulator optimisation and
// must move under runtime or executor work. App inputs derive from the
// benchmark seed; the wavefront, fib and the synthetic TDGs do not.
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/miniapps.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "runtime/runtime.hpp"

namespace perfbench {
namespace {

namespace rt = raa::rt;
namespace apps = raa::apps;

/// One worker: on a 4-vCPU host, three workers plus the caller occupy
/// every vCPU and the timings swing with any other load, and more workers
/// do not make this workload faster.
constexpr unsigned kWorkers = 1;
constexpr std::size_t kGrid = 64;  ///< wavefront is kGrid x kGrid tasks
constexpr int kWaves = 2;          ///< wavefronts per pass
constexpr unsigned kFib = 20;
/// Distinct app inputs per run; their serial references are computed once.
constexpr std::size_t kAppSeeds = 4;
/// App rounds per pass; a round is one bodytrack and one facesim dataflow
/// run. Latency is per round: percentiles over a mix of two differently
/// sized apps would fall in the gap between their distributions.
constexpr int kAppRounds = 3;
constexpr std::size_t kReplayFrames = 30;
constexpr std::size_t kReplayChunks = 32;
constexpr unsigned kReplayCores = 16;
/// Wall seconds between host gauge probes (a pass takes about 0.06 s).
constexpr double kGaugeEvery_s = 0.25;

apps::BodytrackParams bodytrack_params(std::uint64_t seed) {
  return {.frames = 8, .particles = 256, .chunks = 32, .pixels = 1024,
          .seed = seed};
}
apps::FacesimParams facesim_params(std::uint64_t seed) {
  return {.frames = 8, .nodes = 2048, .partitions = 32, .seed = seed};
}

std::uint64_t cell(std::uint64_t up, std::uint64_t left, std::uint64_t self) {
  std::uint64_t s = up * 0x9e3779b97f4a7c15ULL ^ left ^ self;
  return raa::splitmix64(s);
}

std::uint64_t fib_seq(unsigned n) {
  return n < 2 ? n : fib_seq(n - 1) + fib_seq(n - 2);
}

std::uint64_t fib_par(rt::Runtime& rt, unsigned n) {
  if (n < 2) return n;
  std::uint64_t left = 0, right = 0;
  rt.silent_async([&rt, &left, n] { left = fib_par(rt, n - 1); });
  rt.silent_async([&rt, &right, n] { right = fib_par(rt, n - 2); });
  rt.corun();
  return left + right;
}

/// One serial wavefront sweep over `g` (the reference for the tasked one).
void wave_serial(std::vector<std::uint64_t>& g) {
  for (std::size_t i = 0; i < kGrid; ++i)
    for (std::size_t j = 0; j < kGrid; ++j)
      g[i * kGrid + j] = cell(i ? g[(i - 1) * kGrid + j] : 0,
                              j ? g[i * kGrid + j - 1] : 0, g[i * kGrid + j]);
}

struct Pass {
  double cpu_s = 0.0;         ///< process CPU time of every timed call
  double replay_cpu_s = 0.0;  ///< ... of the simcore replays
  std::vector<double> round_cpu_ms;  ///< per app round
  double wall_s = 0.0;  ///< every timed call
  std::size_t gauge_mark = 0;  ///< HostGauge mark taken before the pass
  double spawn_s = 0.0, taskwait_s = 0.0, nested_s = 0.0, replay_s = 0.0;
  std::uint64_t wave_tasks = 0, fib_tasks = 0, replay_tasks = 0;
  rt::RuntimeStats stats;
  std::vector<double> bodytrack_ms, facesim_ms;
};

struct Inputs {
  std::vector<std::uint64_t> grid0, grid_ref;  ///< wavefront in/out
  std::array<apps::Estimates, kAppSeeds> bodytrack_ref;
  std::array<apps::MeshState, kAppSeeds> facesim_ref;
  std::array<std::uint64_t, kAppSeeds> app_seed{};
};

std::string curve_text(const std::vector<double>& c) {
  std::string s;
  for (const double v : c) s += (s.empty() ? "" : ",") + hexfloat(v);
  return s;
}

Pass run_pass(const Inputs& in, Tracer& tracer, Checks& checks,
              Goldens& goldens, Digest* digest, std::uint64_t& run_id,
              double& setup_s) {
  Pass pass;
  const double s0 = process_cpu_s();
  rt::Runtime runtime{{.num_workers = kWorkers}};
  std::vector<std::uint64_t> grid = in.grid0;
  const std::array<raa::tdg::Graph, 2> graphs = {
      apps::bodytrack_tdg(kReplayFrames, kReplayChunks, apps::Style::dataflow),
      apps::facesim_tdg(kReplayFrames, kReplayChunks, apps::Style::dataflow)};
  setup_s = process_cpu_s() - s0;

  // Dependence wavefront: cell (i,j) updates itself from its upper and
  // left neighbours.
  for (int w = 0; w < kWaves; ++w) {
    Timer spawn{tracer, "runtime.spawn"};
    for (std::size_t i = 0; i < kGrid; ++i)
      for (std::size_t j = 0; j < kGrid; ++j) {
        std::uint64_t* c = &grid[i * kGrid + j];
        const std::uint64_t* up = i ? c - kGrid : nullptr;
        const std::uint64_t* left = j ? c - 1 : nullptr;
        std::vector<rt::Dep> deps{rt::inout(*c)};
        if (up) deps.push_back(rt::in(*up));
        if (left) deps.push_back(rt::in(*left));
        runtime.spawn(std::move(deps), [c, up, left] {
          *c = cell(up ? *up : 0, left ? *left : 0, *c);
        });
      }
    pass.spawn_s += spawn.stop();
    pass.cpu_s += spawn.cpu_s();
    Timer wait{tracer, "runtime.taskwait"};
    runtime.taskwait();
    pass.taskwait_s += wait.stop();
    pass.cpu_s += wait.cpu_s();
    pass.wave_tasks += kGrid * kGrid;
  }
  checks.op(grid == in.grid_ref, "runtime_tasks wavefront result");

  // Nested fib: every silent_async from a worker lands in its own deque.
  {
    const std::uint64_t before = runtime.stats().tasks_executed;
    std::uint64_t result = 0;
    Timer nested{tracer, "runtime.nested"};
    runtime.spawn([&] { result = fib_par(runtime, kFib); });
    runtime.taskwait();
    pass.nested_s = nested.stop();
    pass.cpu_s += nested.cpu_s();
    pass.fib_tasks = runtime.stats().tasks_executed - before;
    checks.op(result == fib_seq(kFib), "runtime_tasks fib");
  }

  // Dataflow app rounds, each run against its serial reference.
  for (int k = 0; k < kAppRounds; ++k) {
    const std::size_t s = (run_id++) % kAppSeeds;
    double round_cpu_s = 0.0;
    {
      Timer app{tracer, "apps.bodytrack", run_id};
      const bool ok =
          apps::bodytrack_parallel(bodytrack_params(in.app_seed[s]), runtime,
                                   apps::Style::dataflow) ==
          in.bodytrack_ref[s];
      pass.bodytrack_ms.push_back(app.stop() * 1e3);
      round_cpu_s += app.cpu_s();
      checks.op(ok, "runtime_tasks bodytrack != serial");
    }
    {
      Timer app{tracer, "apps.facesim", run_id};
      const bool ok =
          apps::facesim_parallel(facesim_params(in.app_seed[s]), runtime,
                                 apps::Style::dataflow) == in.facesim_ref[s];
      pass.facesim_ms.push_back(app.stop() * 1e3);
      round_cpu_s += app.cpu_s();
      checks.op(ok, "runtime_tasks facesim != serial");
    }
    pass.cpu_s += round_cpu_s;
    pass.round_cpu_ms.push_back(round_cpu_s * 1e3);
  }
  pass.stats = runtime.stats();
  checks.op(pass.stats.tasks_executed == pass.stats.tasks_spawned,
            "runtime_tasks tasks_executed != tasks_spawned");

  // Figure 5 replays of the synthetic graphs (fixed node costs).
  const char* names[2] = {"bodytrack", "facesim"};
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    // The replay is serial on this thread: its thread CPU time leaves out
    // the worker's back-off before it parks.
    const double c0 = thread_cpu_s();
    Timer replay{tracer, "simcore.replay"};
    const auto curve = apps::scalability_curve(graphs[g], kReplayCores);
    pass.replay_s += replay.stop();
    const double replay_cpu_s = thread_cpu_s() - c0;
    pass.cpu_s += replay_cpu_s;
    pass.replay_cpu_s += replay_cpu_s;
    // scalability_curve replays once on one core, then once per width.
    pass.replay_tasks += graphs[g].node_count() * (kReplayCores + 1);
    const std::string text = curve_text(curve);
    if (digest) digest->add(std::string{names[g]} + "=" + text);
    checks.op(goldens.matches(std::string{"replay."} + names[g], text)
                  .value_or(false),
              std::string{"runtime_tasks "} + names[g] + " curve != golden");
  }
  pass.wall_s = pass.spawn_s + pass.taskwait_s + pass.nested_s + pass.replay_s;
  for (const double ms : pass.bodytrack_ms) pass.wall_s += ms * 1e-3;
  for (const double ms : pass.facesim_ms) pass.wall_s += ms * 1e-3;
  return pass;
}

}  // namespace

Outcome run_runtime_tasks(const Options& opt, Tracer& tracer) {
  Goldens goldens{opt.goldens_dir + "/runtime_tasks.txt", opt.write_goldens};
  Outcome out;
  Digest digest;

  // Inputs from the seed, and the serial references the checks use.
  Inputs in;
  std::uint64_t sm = opt.seed;
  in.grid0.resize(kGrid * kGrid);
  for (auto& v : in.grid0) v = raa::splitmix64(sm);
  in.grid_ref = in.grid0;
  for (int w = 0; w < kWaves; ++w) wave_serial(in.grid_ref);
  const std::string seed_key = "seed" + std::to_string(opt.seed) + ".";
  for (std::size_t s = 0; s < kAppSeeds; ++s) {
    in.app_seed[s] = raa::splitmix64(sm);
    in.bodytrack_ref[s] = apps::bodytrack_serial(bodytrack_params(in.app_seed[s]));
    in.facesim_ref[s] = apps::facesim_serial(facesim_params(in.app_seed[s]));
    std::vector<double> both = in.bodytrack_ref[s];
    both.insert(both.end(), in.facesim_ref[s].begin(), in.facesim_ref[s].end());
    const std::string text = curve_text(both);
    Digest d;
    d.add(text);
    digest.add(text);
    out.checks.op(goldens.matches(seed_key + "apps." + std::to_string(s),
                                  d.hex())
                      .value_or(true),
                  "runtime_tasks serial app reference != golden");
  }
  Digest grid;
  for (const std::uint64_t v : in.grid_ref) grid.add(std::to_string(v));
  digest.add(grid.hex());

  std::vector<Sample> setup;
  std::vector<Pass> untraced, traced;
  std::uint64_t run_id = 0;
  bool first = true;
  run_passes(
      opt, tracer, /*warm_up=*/true,
      [&](bool) {
        double setup_s = 0.0;
        const std::size_t mark = gauge().mark(kGaugeEvery_s);
        Pass pass = run_pass(in, tracer, out.checks, goldens,
                             first ? &digest : nullptr, run_id, setup_s);
        pass.gauge_mark = mark;
        setup.push_back({setup_s, mark});
        first = false;
        return pass;
      },
      untraced, traced);
  gauge().probe();
  if (opt.write_goldens)
    goldens.save(
        "# runtime_tasks goldens: Figure 5 replay speedup curves of the\n"
        "# synthetic TDGs (seed-free) and digests of the serial app\n"
        "# references (seed<N>.apps.<k>). Regenerate with run.py --workload\n"
        "# runtime_tasks --seed 1 --seconds 1 --write-goldens\n");
  out.digest = digest.hex();

  auto& m = out.metrics;
  const auto app_ms = [](const std::vector<Pass>& ps) {
    std::vector<double> v;
    for (const Pass& p : ps) {
      v.insert(v.end(), p.bodytrack_ms.begin(), p.bodytrack_ms.end());
      v.insert(v.end(), p.facesim_ms.begin(), p.facesim_ms.end());
    }
    return v;
  };
  if (!opt.trace) {
    std::vector<double> wall;
    for (const Pass& p : untraced) wall.push_back(p.wall_s);
    const std::vector<double> ms = app_ms(untraced);
    std::printf("# %zu passes; a pass took %.4f s wall; app run wall p50 "
                "%.4f ms p95 %.4f ms\n",
                untraced.size(), median(wall), quantile(ms, 0.50),
                quantile(ms, 0.95));
    // CPU times scaled by the host gauge around each pass.
    const auto metrics = [&](bool scaled) {
      std::vector<double> cpu, rate, replay_rate, round_ms;
      for (const Pass& p : untraced) {
        const double k = scaled ? gauge().scale(p.gauge_mark) : 1.0;
        cpu.push_back(p.cpu_s * k);
        rate.push_back(static_cast<double>(p.stats.tasks_executed) /
                       ((p.cpu_s - p.replay_cpu_s) * k));
        replay_rate.push_back(static_cast<double>(p.replay_tasks) /
                              (p.replay_cpu_s * k));
        for (const double r : p.round_cpu_ms) round_ms.push_back(r * k);
      }
      return std::vector<Metric>{
          {"setup_s", scaled_median(setup, scaled), "s"},
          {"cpu_s", median(cpu), "s"},
          {"peak_rss_mb", peak_rss_mib(), "MiB"},
          // Simulated events here are replayed TDG tasks (simcore).
          {"sim_events_per_s", median(replay_rate), "1/s"},
          {"throughput_per_s", median(rate), "1/s"},
          {"latency_p50_ms", quantile(round_ms, 0.50), "ms"},
          {"latency_p95_ms", quantile(round_ms, 0.95), "ms"}};
    };
    print_unscaled(metrics(false));
    m = metrics(true);
    return out;
  }

  double spawn = 0, wait = 0, nested = 0, replay = 0;
  double wave_tasks = 0, fib_tasks = 0, replay_tasks = 0;
  double spawned = 0, executed = 0, edges = 0, steals = 0;
  std::vector<double> body_ms, face_ms, tw, uw;
  for (const Pass& p : traced) {
    spawn += p.spawn_s;
    wait += p.taskwait_s;
    nested += p.nested_s;
    replay += p.replay_s;
    wave_tasks += static_cast<double>(p.wave_tasks);
    fib_tasks += static_cast<double>(p.fib_tasks);
    replay_tasks += static_cast<double>(p.replay_tasks);
    spawned += static_cast<double>(p.stats.tasks_spawned);
    executed += static_cast<double>(p.stats.tasks_executed);
    edges += static_cast<double>(p.stats.edges);
    steals += static_cast<double>(p.stats.steals);
    body_ms.insert(body_ms.end(), p.bodytrack_ms.begin(), p.bodytrack_ms.end());
    face_ms.insert(face_ms.end(), p.facesim_ms.begin(), p.facesim_ms.end());
    tw.push_back(p.wall_s);
  }
  for (const Pass& p : untraced) uw.push_back(p.wall_s);
  m.push_back({"runtime.spawn_ns_per_task", spawn * 1e9 / wave_tasks, "ns"});
  m.push_back(
      {"runtime.taskwait_ns_per_task", wait * 1e9 / wave_tasks, "ns"});
  m.push_back({"runtime.edges_per_task", edges / spawned, "count"});
  m.push_back({"runtime.nested_ns_per_task", nested * 1e9 / fib_tasks, "ns"});
  m.push_back({"exec.steals_per_ktask", steals * 1e3 / executed, "count"});
  m.push_back({"apps.bodytrack_ms", median(body_ms), "ms"});
  m.push_back({"apps.facesim_ms", median(face_ms), "ms"});
  m.push_back(
      {"simcore.replay_ns_per_task", replay * 1e9 / replay_tasks, "ns"});
  m.push_back({"bench.trace_overhead_frac", median(tw) / median(uw) - 1.0,
               "fraction"});
  return out;
}

}  // namespace perfbench
