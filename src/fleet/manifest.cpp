#include "fleet/manifest.hpp"

#include <algorithm>
#include <filesystem>
#include <string_view>

#include "common/rng.hpp"
#include "report/json_bind.hpp"
#include "report/report.hpp"

namespace raa::fleet {

namespace {

using namespace json::bind;
namespace bind = json::bind;

constexpr Field<JobLimits> kLimitFields[] = {
    field<&JobLimits::mode>("mode"),
    field<&JobLimits::backend>("backend"),
    field<&JobLimits::timeout_ms>("timeout_ms", 0, kMaxTimeoutMs),
    field<&JobLimits::retries>("retries"),
};

/// A job entry: its own keys plus the limit keys, inline.
constexpr Field<JobSpec> kJobFields[] = {
    field<&JobSpec::id>("id", required),
    field<&JobSpec::scenario>("scenario", omit_empty),
    field<&JobSpec::trace>("trace", omit_empty),
    field<&JobSpec::seed>("seed"),
    field<&JobSpec::limits, &JobLimits::mode>("mode"),
    field<&JobSpec::limits, &JobLimits::backend>("backend"),
    field<&JobSpec::limits, &JobLimits::timeout_ms>("timeout_ms", 0,
                                                    kMaxTimeoutMs),
    field<&JobSpec::limits, &JobLimits::retries>("retries"),
};

/// "schema" and "schema_version" are optional, but when present they must
/// name this schema.
constexpr Field<Manifest> kManifestFields[] = {
    constant<Manifest, report::kFleetManifestSchemaName>("schema"),
    constant<Manifest, report::kFleetManifestSchemaVersion>("schema_version"),
    field<&Manifest::name>("name"),
    field<&Manifest::seed>("seed"),
    object<kLimitFields, &Manifest::defaults>("defaults", omit_empty),
    object<kJobFields, &Manifest::jobs>("jobs", required),
};

bool filesystem_safe_id(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  return std::all_of(id.begin(), id.end(), [](char ch) {
    return (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
           (ch >= '0' && ch <= '9') || ch == '.' || ch == '_' || ch == '-';
  });
}

/// The checks the job table cannot make: at least one job, file-safe and
/// unique ids, exactly one input per job.
bool check_jobs(const Ctx& c, const std::vector<JobSpec>& jobs) {
  if (jobs.empty())
    return c.fail("manifest.jobs", "expected a non-empty job array (a fleet "
                                   "needs at least one job)");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobSpec& job = jobs[i];
    const std::string path = "manifest.jobs[" + std::to_string(i) + "]";
    if (!filesystem_safe_id(job.id))
      return c.fail(path + ".id",
                    "id '" + job.id +
                        "' must be 1-128 chars of [A-Za-z0-9._-] (it names "
                        "the per-job result file)");
    if (job.scenario.empty() == job.trace.empty())
      return c.fail(path, "give exactly one of \"scenario\" or \"trace\"");
    for (std::size_t j = 0; j < i; ++j)
      if (jobs[j].id == job.id)
        return c.fail(path + ".id", "duplicate job id '" + job.id + "'");
  }
  return true;
}

}  // namespace

JobLimits JobLimits::or_else(const JobLimits& over) const {
  JobLimits merged = *this;
  if (!merged.mode) merged.mode = over.mode;
  if (!merged.backend) merged.backend = over.backend;
  if (!merged.timeout_ms) merged.timeout_ms = over.timeout_ms;
  if (!merged.retries) merged.retries = over.retries;
  return merged;
}

std::optional<Manifest> Manifest::parse(const json::Value& doc,
                                        std::string* error) {
  const Ctx c{error};
  Manifest m;
  if (!bind::read(c, doc, "manifest", kManifestFields, m) ||
      !check_jobs(c, m.jobs))
    return std::nullopt;
  return m;
}

std::optional<Manifest> Manifest::load_file(const std::string& path,
                                            std::string* error) {
  const auto doc = json::Value::parse_file(path, error);
  if (!doc) return std::nullopt;
  std::string why;
  auto m = parse(*doc, &why);
  if (!m) {
    if (error) *error = path + ": " + why;
    return std::nullopt;
  }
  // Relative job inputs are manifest-relative, so a manifest plus its
  // scenario files move around as one self-contained bundle.
  const std::filesystem::path base =
      std::filesystem::path{path}.parent_path();
  if (!base.empty())
    for (JobSpec& job : m->jobs) {
      for (std::string* p : {&job.scenario, &job.trace})
        if (!p->empty() && std::filesystem::path{*p}.is_relative())
          *p = (base / *p).lexically_normal().string();
    }
  return m;
}

std::optional<Manifest> Manifest::from_directory(const std::string& dir,
                                                 std::string* error) {
  std::error_code ec;
  std::filesystem::directory_iterator it{dir, ec};
  if (ec) {
    if (error) *error = dir + ": cannot read directory (" + ec.message() + ")";
    return std::nullopt;
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry : it)
    if (entry.is_regular_file() && entry.path().extension() == ".json")
      files.push_back(entry.path());
  if (files.empty()) {
    if (error) *error = dir + ": no *.json scenario files found";
    return std::nullopt;
  }
  std::sort(files.begin(), files.end());

  Manifest m;
  m.name = std::filesystem::path{dir}.filename().string();
  if (m.name.empty()) m.name = "fleet";
  for (const auto& f : files) {
    JobSpec job;
    job.id = f.stem().string();
    job.scenario = f.string();
    m.jobs.push_back(std::move(job));
  }
  return m;
}

json::Value Manifest::to_json() const {
  return bind::write(kManifestFields, *this);
}

std::uint64_t derive_job_seed(std::uint64_t fleet_seed, std::string_view id) {
  // FNV-1a over the id folded into the fleet seed, finalized through
  // SplitMix64 — position-independent by construction.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : id) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  std::uint64_t state = fleet_seed ^ h;
  return splitmix64(state);
}

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative backtracking over the last '*' — linear in practice.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace raa::fleet
