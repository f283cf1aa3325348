// raa_fuzz — the differential scenario fuzzer: generate random valid
// scenarios from a seed, run every determinism oracle pair over each
// (record vs replay, serialize vs re-parse, banked record vs replay), and
// on any divergence shrink to a minimal repro written as a scenario
// JSON file raa_sim accepts unchanged, plus a recorded RAAT trace of the
// failing run.
//
//   raa_fuzz --seed=S --budget-runs=N [--out=DIR]
//            [--json=PATH] [--max-accesses=N] [--inject-divergence]
//            [--quiet]
//
//   --seed            the fuzz-run key; case i is a pure function of
//                     (seed, i), so any case regenerates from the summary
//   --budget-runs     how many scenarios to generate and check (the CI
//                     budget knob)
//   --out             directory for repro artifacts (created if missing)
//   --json            write the raa-fuzz-summary document here; two runs
//                     with the same options emit byte-identical summaries
//   --max-accesses    per-program access-count ceiling for generation
//   --inject-divergence  graft the synthetic __diverge_marker divergence
//                     onto every case and enable the marker oracle — the
//                     end-to-end shrink/repro exercise (tests, CI)
//   --emit-manifest   skip the oracle battery: write every generated case
//                     to --out as gen_i<N>.json plus a fleet manifest
//                     (fleet_manifest.json) naming them all, ready for
//                     raa_fleet --manifest (requires --out)
//
// Exit codes: 0 all cases clean, 1 divergence found (repros written) or
// artifact I/O failure, 2 bad usage.

#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "fuzz/fuzz.hpp"
#include "report/json_bind.hpp"
#include "report/report.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --seed=S --budget-runs=N [--out=DIR] "
               "[--json=PATH] [--max-accesses=N] [--inject-divergence] "
               "[--emit-manifest] [--quiet]\n",
               argv0);
  return raa::kExitUsage;
}

}  // namespace

int main(int argc, char** argv) try {
  const raa::Cli cli{argc, argv};
  if (cli.get_bool("help", false)) {
    usage(argv[0]);
    return raa::kExitOk;
  }

  if (const std::string bad = cli.unknown_flag(
          {"seed", "budget-runs", "out", "json", "max-accesses",
           "inject-divergence", "emit-manifest", "quiet", "help"});
      !bad.empty()) {
    std::fprintf(stderr, "error: %s\n", bad.c_str());
    return usage(argv[0]);
  }

  raa::fuzz::FuzzOptions opt;
  std::string error;
  using raa::json::bind::convert_flag;
  using raa::json::bind::positive;
  convert_flag({&error}, cli, "seed", 0, 0, opt.seed);
  convert_flag({&error}, cli, "budget-runs", positive, 0, opt.budget_runs);
  convert_flag({&error}, cli, "max-accesses", positive, 0,
               opt.limits.max_accesses);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage(argv[0]);
  }
  opt.out_dir = cli.get_string("out", "");
  opt.inject_marker = cli.get_bool("inject-divergence", false);
  opt.emit_manifest = cli.get_bool("emit-manifest", false);
  opt.quiet = cli.get_bool("quiet", false);
  if (opt.emit_manifest && opt.out_dir.empty()) {
    std::fprintf(stderr, "error: --emit-manifest needs --out=DIR\n");
    return usage(argv[0]);
  }

  const raa::fuzz::FuzzResult res = raa::fuzz::run_fuzz(opt);

  const std::string json_path = cli.get_string("json", "");
  if (!json_path.empty()) {
    std::string err;
    if (!raa::report::write_json_file(res.summary, json_path, &err)) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return raa::kExitFailure;
    }
    if (!opt.quiet) std::printf("wrote %s\n", json_path.c_str());
  }
  if (!res.error.empty()) {
    std::fprintf(stderr, "error: %s\n", res.error.c_str());
    return raa::kExitFailure;
  }
  if (opt.emit_manifest)
    std::printf("raa_fuzz: seed=%llu emitted %llu scenario(s) + "
                "fleet_manifest.json to %s\n",
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(opt.budget_runs),
                opt.out_dir.c_str());
  else
    std::printf("raa_fuzz: seed=%llu budget=%llu -> %u divergence(s)\n",
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(opt.budget_runs),
                res.divergences);
  return res.divergences == 0 ? raa::kExitOk : raa::kExitFailure;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return raa::kExitFailure;
}
