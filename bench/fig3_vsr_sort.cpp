// Figure 3 — "Speedup over a scalar baseline for different vectorized
// sorting algorithms. Different maximum vector lengths (MVL) and lanes are
// considered."
//
// Paper reference values: VSR sort reaches 7.9x-11.7x with a single lane
// and 14.9x-20.6x with four lanes (across MVLs); VSR is ~3.4x faster than
// the next-best vectorised sort; its cycles-per-tuple stays constant in n.
//
// Flags: --n=65536 (plus the harness flags, see bench/harness.hpp)
#include <cstdio>
#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "sort/sorts.hpp"

namespace {

std::vector<raa::vec::Elem> make_keys(std::size_t n, std::uint64_t seed) {
  raa::Rng rng{seed};
  std::vector<raa::vec::Elem> v(n);
  for (auto& x : v) x = rng.below(1ull << 32);
  return v;
}

}  // namespace

RAA_BENCHMARK("fig3_vsr_sort", "§3.2 Figure 3", "n") {
  const auto n = ctx.flag<std::uint64_t>("n", 65536, raa::bench::kMaxKeys);
  ctx.report.set_param("n", std::to_string(n));
  // Every key array below derives from this seed (--seed overrides).
  const std::uint64_t seed = ctx.seed_or(1);

  raa::vec::ScalarCore scalar_core;
  auto scalar_data = make_keys(n, seed);
  const auto scalar =
      raa::sort::scalar_radix_sort(scalar_core, scalar_data);
  ctx.report.record("scalar_radix_cpt", scalar.cpt(n), "cycles/tuple");
  if (ctx.printing())
    std::printf(
        "Figure 3: vectorised sorting, n=%zu 32-bit keys; scalar radix "
        "baseline CPT=%.1f\n\n",
        n, scalar.cpt(n));

  // --- VSR speedup grid over MVL x lanes (the figure's main content) ---
  if (ctx.printing())
    std::printf("VSR sort speedup over the scalar baseline\n");
  raa::Table grid{{"lanes", "MVL=8", "MVL=16", "MVL=32", "MVL=64"}};
  for (const unsigned lanes : {1u, 2u, 4u}) {
    std::vector<std::string> row{std::to_string(lanes)};
    for (const unsigned mvl : {8u, 16u, 32u, 64u}) {
      auto data = make_keys(n, seed);
      const auto st = raa::sort::run_vector_sort(
          raa::sort::Algorithm::vsr,
          raa::vec::VpuConfig{.mvl = mvl, .lanes = lanes}, data);
      const double speedup = static_cast<double>(scalar.cycles) /
                             static_cast<double>(st.cycles);
      ctx.report.record("vsr_speedup/lanes" + std::to_string(lanes) +
                            "_mvl" + std::to_string(mvl),
                        speedup, "x");
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2fx", speedup);
      row.push_back(buf);
    }
    grid.row(std::move(row));
  }
  if (ctx.printing()) {
    grid.print(std::cout);
    std::printf(
        "(paper: max 7.9x-11.7x at 1 lane, 14.9x-20.6x at 4 lanes)\n\n");
  }

  // --- algorithm comparison at MVL=64, 4 lanes ---
  if (ctx.printing())
    std::printf("algorithm comparison (MVL=64, 4 lanes)\n");
  raa::Table cmp{{"algorithm", "CPT", "speedup vs scalar"}};
  double best_other = 1e300;
  double vsr_cycles = 0.0;
  for (const auto algo :
       {raa::sort::Algorithm::vsr, raa::sort::Algorithm::vector_radix,
        raa::sort::Algorithm::vector_quicksort,
        raa::sort::Algorithm::bitonic}) {
    auto data = make_keys(n, seed);
    const auto st = raa::sort::run_vector_sort(
        algo, raa::vec::VpuConfig{.mvl = 64, .lanes = 4}, data);
    if (algo == raa::sort::Algorithm::vsr)
      vsr_cycles = static_cast<double>(st.cycles);
    else
      best_other = std::min(best_other, static_cast<double>(st.cycles));
    ctx.report.record(std::string{"cpt/"} + raa::sort::to_string(algo),
                      st.cpt(n), "cycles/tuple");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2fx",
                  static_cast<double>(scalar.cycles) /
                      static_cast<double>(st.cycles));
    cmp.row(raa::sort::to_string(algo), st.cpt(n), std::string{buf});
  }
  ctx.report.record("vsr_vs_next_best", best_other / vsr_cycles, "x", 3.4);
  if (ctx.printing()) {
    cmp.print(std::cout);
    std::printf(
        "\nVSR vs next-best vectorised sort: %.2fx  (paper: ~3.4x)\n\n",
        best_other / vsr_cycles);
  }

  // --- CPT flatness in n (the O(k*n) claim) ---
  if (ctx.printing())
    std::printf("VSR cycles-per-tuple vs input size (MVL=64, 4 lanes)\n");
  raa::Table flat{{"n", "CPT"}};
  for (const std::size_t size : {16384u, 65536u, 262144u}) {
    auto data = make_keys(size, seed + 1);
    const auto st = raa::sort::run_vector_sort(
        raa::sort::Algorithm::vsr,
        raa::vec::VpuConfig{.mvl = 64, .lanes = 4}, data);
    ctx.report.record("vsr_cpt/n" + std::to_string(size), st.cpt(size),
                      "cycles/tuple");
    flat.row(static_cast<long>(size), st.cpt(size));
  }
  if (ctx.printing()) {
    flat.print(std::cout);
    std::printf(
        "(flat CPT: the paper's highly-desirable O(k*n) property)\n");
  }
}
