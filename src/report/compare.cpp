#include "report/compare.hpp"

#include <stdexcept>

#include "common/stats.hpp"
#include "report/report.hpp"

namespace raa::report {

namespace {

const Metric* metric_in(const RunReport& run, const std::string& bench,
                        const std::string& metric) {
  for (const BenchReport& b : run.benchmarks())
    if (b.name() == bench)
      for (const Metric& m : b.metrics())
        if (m.name == metric) return &m;
  return nullptr;
}

}  // namespace

std::size_t CompareResult::violations() const noexcept {
  std::size_t n = 0;
  for (const auto& d : deltas)
    if (d.kind != DeltaKind::ok) ++n;
  return n;
}

CompareResult compare(const json::Value& baseline, const json::Value& results,
                      const CompareOptions& options) {
  std::string error;
  const auto base = RunReport::parse(baseline, &error, "baseline");
  const auto res = base ? RunReport::parse(results, &error, "results")
                        : std::nullopt;
  if (!res) throw std::runtime_error(error);

  CompareResult out;
  for (const BenchReport& b : base->benchmarks()) {
    for (const Metric& m : b.metrics()) {
      // Informational metrics (host wall-clock / throughput) are tracked
      // for trends but exempt from the two-sided gate.
      if (m.informational) {
        ++out.informational_skipped;
        continue;
      }
      MetricDelta d{.benchmark = b.name(),
                    .metric = m.name,
                    .baseline = m.median(),
                    .tolerance = m.tolerance.value_or(
                        options.default_tolerance),
                    .kind = DeltaKind::missing};
      if (const Metric* measured = metric_in(*res, b.name(), m.name)) {
        d.measured = measured->median();
        d.rel = rel_diff(d.baseline, d.measured);
        d.kind = d.rel > d.tolerance ? DeltaKind::regression : DeltaKind::ok;
      }
      out.deltas.push_back(std::move(d));
    }
  }
  for (const BenchReport& b : res->benchmarks())
    for (const Metric& m : b.metrics())
      if (metric_in(*base, b.name(), m.name) == nullptr)
        ++out.extra_metrics;
  return out;
}

}  // namespace raa::report
