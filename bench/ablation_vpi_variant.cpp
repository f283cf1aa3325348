// Ablation — §3.2's "both serial and parallel variants" of the VPI/VLU
// hardware: VSR sort cycles with each variant across lane counts.
//
// Flags: --n=65536 --scale=1 (element-count multiplier for larger
// scenarios; plus the harness flags, see bench/harness.hpp)
#include <cstdio>
#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "sort/sorts.hpp"

RAA_BENCHMARK("ablation_vpi_variant", "§3.2 VPI/VLU-variant ablation",
              "n", "scale") {
  const auto scale = ctx.flag<std::uint64_t>("scale", 1, raa::bench::kMaxScale);
  const auto n =
      ctx.flag<std::uint64_t>("n", 65536, raa::bench::kMaxKeys) * scale;
  ctx.report.set_param("n", std::to_string(n));
  ctx.report.set_param("scale", std::to_string(scale));

  const auto make_keys = [&](std::uint64_t seed) {
    raa::Rng rng{seed};
    std::vector<raa::vec::Elem> v(n);
    for (auto& x : v) x = rng.below(1ull << 32);
    return v;
  };
  const std::uint64_t seed = ctx.seed_or(1);

  if (ctx.printing())
    std::printf(
        "Ablation: serial vs parallel VPI/VLU hardware (VSR, MVL=64)\n\n");
  raa::Table t{{"lanes", "serial CPT", "parallel CPT", "parallel gain"}};
  for (const unsigned lanes : {1u, 2u, 4u, 8u}) {
    auto d1 = make_keys(seed);
    auto d2 = make_keys(seed);
    const auto ser = raa::sort::run_vector_sort(
        raa::sort::Algorithm::vsr,
        raa::vec::VpuConfig{.mvl = 64, .lanes = lanes, .parallel_vpi = false},
        d1);
    const auto par = raa::sort::run_vector_sort(
        raa::sort::Algorithm::vsr,
        raa::vec::VpuConfig{.mvl = 64, .lanes = lanes, .parallel_vpi = true},
        d2);
    const std::string suffix = "/lanes" + std::to_string(lanes);
    ctx.report.record("serial_cpt" + suffix, ser.cpt(n), "cycles/tuple");
    ctx.report.record("parallel_cpt" + suffix, par.cpt(n), "cycles/tuple");
    ctx.report.record("parallel_gain" + suffix,
                      static_cast<double>(ser.cycles) /
                          static_cast<double>(par.cycles),
                      "x");
    char gain[32];
    std::snprintf(gain, sizeof gain, "%.2fx",
                  static_cast<double>(ser.cycles) /
                      static_cast<double>(par.cycles));
    t.row(static_cast<int>(lanes), ser.cpt(n), par.cpt(n),
          std::string{gain});
  }
  if (ctx.printing()) {
    t.print(std::cout);
    std::printf(
        "\nWith one lane the serial variant is already competitive (the "
        "paper's 'works well both with and without parallel lockstepped "
        "lanes'); at higher lane counts the serial unit becomes the "
        "bottleneck and the parallel variant pays off.\n");
  }
}
