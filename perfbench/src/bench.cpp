#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int Tracer::begin(std::string name, std::uint64_t id) {
  if (!recording_) return -1;
  const int idx = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), now_ns(), 0,
                        open_.empty() ? -1 : open_.back(), id});
  open_.push_back(idx);
  return idx;
}

void Tracer::end(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  // Spans close innermost first; tolerate a missed end by unwinding to it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == span) break;
  }
}

std::map<std::string, double> Tracer::total_s() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += (s.end_ns - s.start_ns) * 1e-9;
  return out;
}

std::map<std::string, double> Tracer::self_s() const {
  // Children run one after another on the tracing thread, so the covered
  // part of a parent is the sum of its children's durations.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      covered[static_cast<std::size_t>(s.parent)] +=
          (s.end_ns - s.start_ns) * 1e-9;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] +=
        (spans_[i].end_ns - spans_[i].start_ns) * 1e-9 - covered[i];
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"perfbench\"}}");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%zu,\"parent\":%d,\"id\":%llu}}",
                 s.name.c_str(),
                 static_cast<int>(s.name.find('.') == std::string::npos
                                      ? s.name.size()
                                      : s.name.find('.')),
                 s.name.c_str(), s.start_ns * 1e-3,
                 (s.end_ns - s.start_ns) * 1e-3, i, s.parent,
                 static_cast<unsigned long long>(s.id));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double Timer::stop() {
  if (!stopped_) {
    seconds_ = since(t0_);
    cpu_s_ = process_cpu_s() - cpu0_;
    tracer_.end(span_);
    stopped_ = true;
  }
  return seconds_;
}

void Checks::op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (++failed_ <= 10) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

Goldens::Goldens(std::string path, bool write_mode)
    : path_(std::move(path)), write_mode_(write_mode) {
  if (write_mode_) return;
  std::ifstream in(path_);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key, value;
    if (ls >> key >> value) values_[key] = value;
  }
}

std::optional<bool> Goldens::matches(const std::string& key,
                                     const std::string& actual) {
  if (write_mode_) {
    values_[key] = actual;
    return true;
  }
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second == actual;
}

bool Goldens::save(const std::string& header) const {
  if (!write_mode_) return false;
  std::ofstream out(path_);
  out << header;
  for (const auto& [key, value] : values_) out << key << ' ' << value << '\n';
  return static_cast<bool>(out);
}

void Digest::add(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
  // Separator so that ("ab","c") and ("a","bc") differ.
  h_ ^= 0xff;
  h_ *= 1099511628211ull;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

volatile std::uint32_t probe_sink = 0;  // keeps the walk from being elided

/// The probe: a dependent walk over one random cycle through a 1 MiB
/// table, which sits in a core's private L2 like the simulators' hot state.
double probe_cpu_s() {
  static const std::vector<std::uint32_t> next = [] {
    constexpr std::uint32_t n = 1u << 18;
    std::vector<std::uint32_t> order(n), nx(n);
    for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
    std::uint64_t s = 12345;
    for (std::uint32_t i = n - 1; i > 0; --i) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(order[i], order[(s >> 33) % (i + 1)]);
    }
    for (std::uint32_t i = 0; i < n; ++i) nx[order[i]] = order[(i + 1) % n];
    return nx;
  }();
  // One untimed lap brings the table back into the cache the workload
  // evicted it from; the timed steps then walk a warm table.
  std::uint32_t i = 0;
  for (std::size_t k = 0; k < next.size(); ++k) i = next[i];
  const double c0 = thread_cpu_s();
  for (int k = 0; k < 1'000'000; ++k) i = next[i];
  probe_sink = i;
  return thread_cpu_s() - c0;
}

}  // namespace

void HostGauge::probe() {
  probes_.push_back(probe_cpu_s());
  last_ = Clock::now();
}

std::size_t HostGauge::mark(double every_s) {
  if (probes_.empty() || since(last_) >= every_s) probe();
  return probes_.size();
}

double HostGauge::scale(std::size_t mark) const {
  if (probes_.empty()) return 1.0;
  // The median of up to kWindow probes around the sample: a single probe
  // is short enough to be caught by a burst of load the sample missed.
  const std::size_t half = kWindow / 2;
  const std::size_t lo = std::min(mark > half ? mark - half : 0,
                                  probes_.size() - 1);
  const std::size_t hi = std::min(lo + kWindow, probes_.size());
  return kProbeRefS /
         median({probes_.begin() + static_cast<std::ptrdiff_t>(lo),
                 probes_.begin() + static_cast<std::ptrdiff_t>(hi)});
}

double scaled_median(const std::vector<Sample>& samples, bool scaled) {
  std::vector<double> v;
  for (const Sample& s : samples)
    v.push_back(s.cpu_s * (scaled ? gauge().scale(s.mark) : 1.0));
  return median(std::move(v));
}

HostGauge& gauge() {
  static HostGauge g;
  return g;
}

double steal_share_since_last() {
  static std::uint64_t last_steal = 0, last_total = 0;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  std::uint64_t total = 0, steal = 0, v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  const double share =
      total > last_total ? static_cast<double>(steal - last_steal) /
                               static_cast<double>(total - last_total)
                         : 0.0;
  last_steal = steal;
  last_total = total;
  return share;
}

void print_unscaled(const std::vector<Metric>& metrics) {
  std::printf("# unscaled:");
  for (const Metric& m : metrics) std::printf(" %s=%.6g", m.name.c_str(), m.value);
  std::printf("\n");
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0.0;
}

}  // namespace perfbench
