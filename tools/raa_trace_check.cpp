// raa_trace_check — structural validator for the Chrome trace-event JSON
// that raa_sim/raa_fleet emit via --trace-out (src/obs/trace_export.hpp,
// docs/OBSERVABILITY.md). Run it in CI after producing a trace so schema
// regressions fail the obs-smoke suite instead of silently breaking the
// Perfetto import.
//
//   raa_trace_check FILE.json [FILE2.json ...]
//
// Checks, per file:
//   - the document parses and has a "traceEvents" array;
//   - every event is an object with string "ph" in {B,E,X,i,M} and
//     numeric "pid"/"tid";
//   - non-metadata events carry a string "name", numeric "ts", and
//     complete (X) events a numeric "dur" >= 0;
//   - instant events carry the scope member "s";
//   - B/E pairs balance per (pid, tid) lane and never go negative;
//   - "otherData.schema" is "raa-trace" with a known schema_version.
//
// Exit 0 when every file validates, 1 otherwise (first error per file is
// reported; all files are checked).

#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "report/json.hpp"

namespace {

using raa::json::Value;

/// Validate one trace document; fills `error` and returns false on the
/// first structural violation.
bool check_trace(const Value& doc, std::string* error) {
  const Value* other = doc.find("otherData");
  if (!other || !other->is_object()) {
    *error = "missing otherData object";
    return false;
  }
  const Value* schema = other->find("schema");
  if (!schema || !schema->is_string() || schema->as_string() != "raa-trace") {
    *error = "otherData.schema is not \"raa-trace\"";
    return false;
  }
  const Value* version = other->find("schema_version");
  if (!version || !version->is_number() || version->as_number() != 1.0) {
    *error = "otherData.schema_version is not 1";
    return false;
  }

  const Value* events = doc.find("traceEvents");
  if (!events || !events->is_array()) {
    *error = "missing traceEvents array";
    return false;
  }

  // Open B-span depth per (pid, tid) lane.
  std::map<std::pair<int, int>, long> depth;
  std::size_t i = 0;
  for (const Value& e : events->as_array()) {
    const std::string at = "traceEvents[" + std::to_string(i++) + "]: ";
    if (!e.is_object()) {
      *error = at + "not an object";
      return false;
    }
    const Value* ph = e.find("ph");
    if (!ph || !ph->is_string() || ph->as_string().size() != 1) {
      *error = at + "missing one-character ph";
      return false;
    }
    const char phase = ph->as_string()[0];
    if (phase != 'B' && phase != 'E' && phase != 'X' && phase != 'i' &&
        phase != 'M') {
      *error = at + "unknown ph '" + ph->as_string() + "'";
      return false;
    }
    const Value* pid = e.find("pid");
    const Value* tid = e.find("tid");
    if (!pid || !pid->is_number() || !tid || !tid->is_number()) {
      *error = at + "missing numeric pid/tid";
      return false;
    }
    if (phase == 'M') continue;  // metadata: no ts/name requirements

    const Value* name = e.find("name");
    if (!name || !name->is_string() || name->as_string().empty()) {
      *error = at + "missing event name";
      return false;
    }
    const Value* ts = e.find("ts");
    if (!ts || !ts->is_number()) {
      *error = at + "missing numeric ts";
      return false;
    }
    if (phase == 'X') {
      const Value* dur = e.find("dur");
      if (!dur || !dur->is_number() || dur->as_number() < 0.0) {
        *error = at + "complete event without non-negative dur";
        return false;
      }
    }
    if (phase == 'i') {
      const Value* scope = e.find("s");
      if (!scope || !scope->is_string()) {
        *error = at + "instant event without scope s";
        return false;
      }
    }

    const std::pair<int, int> lane{static_cast<int>(pid->as_number()),
                                   static_cast<int>(tid->as_number())};
    if (phase == 'B') ++depth[lane];
    if (phase == 'E' && --depth[lane] < 0) {
      *error = at + "E without matching B on pid " +
               std::to_string(lane.first) + " tid " +
               std::to_string(lane.second);
      return false;
    }
  }
  for (const auto& [lane, d] : depth) {
    if (d != 0) {
      *error = std::to_string(d) + " unclosed B span(s) on pid " +
               std::to_string(lane.first) + " tid " +
               std::to_string(lane.second);
      return false;
    }
  }
  return true;
}

bool check_file(const char* path) {
  std::string error;
  const std::optional<Value> doc = Value::parse_file(path, &error);
  if (!doc) {
    std::fprintf(stderr, "raa_trace_check: %s\n", error.c_str());
    return false;
  }
  if (!check_trace(*doc, &error)) {
    std::fprintf(stderr, "raa_trace_check: %s: %s\n", path, error.c_str());
    return false;
  }
  const Value* events = doc->find("traceEvents");
  std::printf("%s: ok (%zu events)\n", path, events->as_array().size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Every argument is a file: a flag is a usage error, not a file name.
  if (const std::string bad = raa::Cli{argc, argv}.unknown_flag({});
      !bad.empty()) {
    std::fprintf(stderr, "raa_trace_check: %s\n", bad.c_str());
    return raa::kExitUsage;
  }
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s FILE.json [FILE2.json ...]\n", argv[0]);
    return raa::kExitUsage;
  }
  bool ok = true;
  for (int i = 1; i < argc; ++i) ok = check_file(argv[i]) && ok;
  return ok ? raa::kExitOk : raa::kExitFailure;
}
