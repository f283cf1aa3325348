// The declarative JSON binding (src/report/json_bind.hpp) and the two
// schemas built on it: the scenario file and the fleet manifest.
//   * Binding: each converter's bounds and messages, strict keys, row-order
//     emission, optional and parse-only rows, nested-object paths, list,
//     constant and computed rows.
//   * Golden: to_json() of every corpus scenario and of the smoke manifest
//     is pinned byte for byte (tests/data/to_json.golden.txt), so the tables
//     hold the emission order the hand-written serializers had.
//   * Mutation robustness: deterministic byte- and number-level mutants of
//     every corpus file either parse, and then survive a serialize/re-parse
//     round trip unchanged, or fail with a message that starts at a JSON
//     path or names a line and column. Mutants are only parsed, never
//     instantiated: a mutated size can ask for gigabytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fleet/manifest.hpp"
#include "golden_testing.hpp"
#include "report/json.hpp"
#include "report/json_bind.hpp"
#include "scenario/scenario.hpp"

namespace {

namespace bind = raa::json::bind;
using raa::json::Value;
using raa::test_util::corpus;
using raa::test_util::kRoot;
using raa::test_util::slurp;

// --- the binding on a small struct ----------------------------------------

enum class Color : std::uint8_t { red, green };

raa::EnumNames<Color> enum_names(Color) {
  static constexpr raa::EnumName<Color> kNames[] = {{"red", Color::red},
                                                    {"green", Color::green}};
  return {"color", kNames};
}

struct Inner {
  double weight = 0.5;
  bool operator==(const Inner&) const = default;
};

struct Rec {
  std::string name;
  unsigned count = 1;
  std::uint64_t big = 0;
  double share = 0.0;
  double scale = 1.0;
  bool flag = false;
  Color color = Color::red;
  std::optional<Color> tint;
  std::optional<std::uint64_t> limit;
  Inner inner;
  bool operator==(const Rec&) const = default;
};

constexpr bind::Field<Inner> kInnerFields[] = {
    bind::field<&Inner::weight>("weight", bind::fraction),
};

constexpr bind::Field<Rec> kRecFields[] = {
    bind::field<&Rec::name>("name", bind::required | bind::positive),
    bind::field<&Rec::count>("count", bind::positive),
    bind::field<&Rec::big>("big", bind::omit_empty),
    bind::field<&Rec::share>("share", bind::fraction),
    bind::field<&Rec::scale>("scale"),
    bind::field<&Rec::flag>("flag"),
    bind::field<&Rec::color>("color"),
    bind::field<&Rec::tint>("tint"),
    bind::field<&Rec::limit>("limit", 0, 1000),
    bind::object<kInnerFields, &Rec::inner>("inner"),
    bind::field<&Rec::inner, &Inner::weight>("w", bind::parse_only),
};

/// Parse `text` with kRecFields; returns the error ("" on success).
std::string read_rec(const std::string& text, Rec& out) {
  std::string error;
  const auto doc = Value::parse(text, &error);
  EXPECT_TRUE(doc) << error;
  if (!doc) return error;
  bind::read(bind::Ctx{&error}, *doc, "rec", kRecFields, out);
  return error;
}

std::string reject(const std::string& text) {
  Rec r;
  return read_rec(text, r);
}

TEST(JsonBind, ReadsEveryConverterAndEmitsInRowOrder) {
  Rec r;
  ASSERT_EQ(read_rec(R"({"color": "green", "name": "a", "count": 7,
      "big": 9007199254740992, "share": 1, "scale": 1e300, "flag": true,
      "tint": "red", "limit": 1000, "inner": {"weight": 0.25}})",
                     r),
            "");
  EXPECT_EQ(r.name, "a");
  EXPECT_EQ(r.count, 7u);
  EXPECT_EQ(r.big, 9007199254740992u);  // 2^53: the largest exact integer
  EXPECT_EQ(r.share, 1.0);
  EXPECT_EQ(r.scale, 1e300);
  EXPECT_TRUE(r.flag);
  EXPECT_EQ(r.color, Color::green);
  EXPECT_EQ(r.tint, Color::red);
  EXPECT_EQ(r.limit, 1000u);
  EXPECT_EQ(r.inner.weight, 0.25);
  // Row order, not document order; the parse-only alias is never emitted.
  EXPECT_EQ(bind::write(kRecFields, r).dump(),
            R"({"name":"a","count":7,"big":9007199254740992,"share":1,)"
            R"("scale":1e+300,"flag":true,"color":"green","tint":"red",)"
            R"("limit":1000,"inner":{"weight":0.25}})");
  // Unset optionals and omit_empty zeros are left out; defaults stay.
  Rec d;
  d.name = "d";
  EXPECT_EQ(bind::write(kRecFields, d).dump(),
            R"({"name":"d","count":1,"share":0,"scale":1,"flag":false,)"
            R"("color":"red","inner":{"weight":0.5}})");
  Rec again;
  ASSERT_EQ(read_rec(bind::write(kRecFields, r).dump(), again), "");
  EXPECT_EQ(again, r);
}

TEST(JsonBind, ParseOnlyAliasReadsIntoItsMember) {
  Rec r;
  ASSERT_EQ(read_rec(R"({"name": "a", "w": 0.75})", r), "");
  EXPECT_EQ(r.inner.weight, 0.75);
}

TEST(JsonBind, DiagnosticsCarryTheJsonPath) {
  EXPECT_EQ(reject(R"([])"), "rec: expected an object");
  EXPECT_EQ(reject(R"({"name": "a", "typo": 1})"), "rec.typo: unknown key");
  EXPECT_EQ(reject(R"({"count": 1})"), "rec: missing required key \"name\"");
  EXPECT_EQ(reject(R"({"name": ""})"), "rec.name: must not be empty");
  EXPECT_EQ(reject(R"({"name": 1})"), "rec.name: expected a string");
  EXPECT_EQ(reject(R"({"name": "a", "count": 0})"),
            "rec.count: must be positive");
  for (const char* bad : {"-1", "1.5", "\"7\"", "9007199254740994"})
    EXPECT_EQ(reject(std::string{R"({"name": "a", "big": )"} + bad + "}"),
              "rec.big: expected a non-negative integer")
        << bad;
  EXPECT_EQ(reject(R"({"name": "a", "count": 4294967296})"),
            "rec.count: value does not fit in 32 bits");
  EXPECT_EQ(reject(R"({"name": "a", "limit": 1001})"),
            "rec.limit: must be at most 1000");
  EXPECT_EQ(reject(R"({"name": "a", "share": 1.5})"),
            "rec.share: expected a number in [0, 1]");
  EXPECT_EQ(reject(R"({"name": "a", "scale": -0.5})"),
            "rec.scale: expected a non-negative number");
  EXPECT_EQ(reject(R"({"name": "a", "flag": 1})"),
            "rec.flag: expected true or false");
  EXPECT_EQ(reject(R"({"name": "a", "tint": "blue"})"),
            "rec.tint: unknown color 'blue' (want red or green)");
  EXPECT_EQ(reject(R"({"name": "a", "inner": {"weight": 2}})"),
            "rec.inner.weight: expected a number in [0, 1]");
  EXPECT_EQ(reject(R"({"name": "a", "inner": {"mass": 2}})"),
            "rec.inner.mass: unknown key");
}

constexpr int kBagVersion = 2;

struct Bag {
  std::vector<double> xs;
  std::vector<Inner> inners;
};

std::uint64_t bag_size(const Bag& b) { return b.xs.size(); }

constexpr bind::Field<Bag> kBagFields[] = {
    bind::constant<Bag, kBagVersion>("version", bind::required),
    bind::field<&Bag::xs>("xs", bind::any_sign),
    bind::object<kInnerFields, &Bag::inners>("inners"),
    bind::computed<Bag, &bag_size>("size", bind::derived),
};

std::string read_bag(const std::string& text, Bag& out) {
  std::string error;
  const auto doc = Value::parse(text, &error);
  EXPECT_TRUE(doc) << error;
  if (doc) bind::read(bind::Ctx{&error}, *doc, "bag", kBagFields, out);
  return error;
}

TEST(JsonBind, ListConstantAndComputedRows) {
  Bag b;
  ASSERT_EQ(read_bag(R"({"version": 2, "xs": [-1.5, 0, 2], "size": 3,
      "inners": [{"weight": 0.25}, {}]})",
                     b),
            "");
  EXPECT_EQ(b.xs, (std::vector<double>{-1.5, 0.0, 2.0}));
  ASSERT_EQ(b.inners.size(), 2u);
  EXPECT_EQ(b.inners[0].weight, 0.25);
  EXPECT_EQ(b.inners[1].weight, 0.5);  // the element's default
  EXPECT_EQ(bind::write(kBagFields, b).dump(),
            R"({"version":2,"xs":[-1.5,0,2],"inners":[{"weight":0.25},)"
            R"({"weight":0.5}],"size":3})");
  EXPECT_EQ(bind::write(kBagFields, Bag{}).dump(),
            R"({"version":2,"xs":[],"inners":[],"size":0})");

  const auto reject = [](const std::string& text) {
    Bag x;
    return read_bag(text, x);
  };
  EXPECT_EQ(reject(R"({"xs": [], "size": 0})"),
            "bag: missing required key \"version\"");
  EXPECT_EQ(reject(R"({"version": "2", "size": 0})"),
            "bag.version: expected 2, got \"2\"");
  EXPECT_EQ(reject(R"({"version": 2, "xs": 1, "size": 0})"),
            "bag.xs: expected an array of xs");
  EXPECT_EQ(reject(R"({"version": 2, "xs": [1, null], "size": 2})"),
            "bag.xs[1]: expected a number");
  EXPECT_EQ(reject(R"({"version": 2, "inners": [{}, {"weight": 2}],
                       "size": 0})"),
            "bag.inners[1].weight: expected a number in [0, 1]");
  EXPECT_EQ(reject(R"({"version": 2})"), "bag: missing required key \"size\"");
  EXPECT_EQ(reject(R"({"version": 2, "size": -1})"),
            "bag.size: expected a non-negative integer");
  EXPECT_EQ(reject(R"({"version": 2, "xs": [1], "size": 2})"),
            "bag.size: expected 1 (derived from the other keys), got 2");
}

TEST(JsonBind, RangeChecksRejectNaN) {
  // A command-line strtod can produce NaN; every double bound refuses it.
  for (const unsigned flags : {0u, unsigned{bind::fraction},
                               unsigned{bind::any_sign}}) {
    std::string error;
    double out = 7.0;
    EXPECT_FALSE(bind::convert(bind::Ctx{&error}, Value{std::nan("")},
                               "--x", flags, 0, out));
    EXPECT_EQ(out, 7.0);
    EXPECT_EQ(error.rfind("--x: expected a ", 0), 0u) << error;
  }
}

TEST(JsonBind, CommandLineFlagsGetTheirJsonTwinsChecks) {
  namespace bind = raa::json::bind;
  const char* argv[] = {"prog",      "--n=64",   "--bad=abc", "--neg=-5",
                        "--zero=0",  "--big=65", "--frac=0.25",
                        "--nan=nan"};
  const raa::Cli cli{8, argv};
  const auto check = [&](const char* name, unsigned flags, std::uint64_t max,
                         auto out) {
    std::string error;
    bind::convert_flag({&error}, cli, name, flags, max, out);
    return std::pair{out, error};
  };
  EXPECT_EQ(check("n", bind::positive, 64, std::uint64_t{7}),
            std::pair(std::uint64_t{64}, std::string{}));
  EXPECT_EQ(check("absent", bind::positive, 0, 7u), std::pair(7u, std::string{}));
  EXPECT_EQ(check("bad", 0, 0, 7u).second,
            "--bad: expected a non-negative integer");
  EXPECT_EQ(check("neg", 0, 0, std::uint64_t{7}).second,
            "--neg: expected a non-negative integer");
  EXPECT_EQ(check("zero", bind::positive, 0, 7u).second,
            "--zero: must be positive");
  EXPECT_EQ(check("big", bind::positive, 64, 7u).second,
            "--big: must be at most 64");
  EXPECT_EQ(check("frac", bind::fraction, 0, 0.5),
            std::pair(0.25, std::string{}));
  EXPECT_EQ(check("nan", bind::fraction, 0, 0.5).second,
            "--nan: expected a number in [0, 1]");
  EXPECT_EQ(check("n", 0, 0, std::optional<unsigned>{}).first,
            std::optional<unsigned>{64u});
}

TEST(JsonBind, EnumNameTablesServeBothDirections) {
  const auto names = enum_names(Color{});
  EXPECT_STREQ(raa::to_string(Color::green), "green");
  EXPECT_EQ(names.parse("red"), Color::red);
  EXPECT_FALSE(names.parse("Red"));
  EXPECT_EQ(names.unknown("x"), "unknown color 'x' (want red or green)");
  EXPECT_EQ(enum_names(raa::scen::GenKind{}).unknown("warp"),
            "unknown generator 'warp' (want scripted, zipf, pointer_chase, "
            "stencil, producer_consumer or bursty)");
}

// --- corpus fixtures --------------------------------------------------------

const std::string kManifest = "scenarios/fleet/smoke.manifest.json";

/// The schema a corpus file belongs to: parse text, return the error ("" on
/// success) and, on success, the serialize/re-parse round-trip verdict.
struct Schema {
  const char* root;  ///< every semantic error starts with this path
  std::function<std::string(const Value&, bool& round_trips)> parse;
};

Schema schema_for(const std::string& rel) {
  if (rel == kManifest)
    return {"manifest", [](const Value& doc, bool& round_trips) {
              std::string error;
              const auto m = raa::fleet::Manifest::parse(doc, &error);
              if (m) round_trips = raa::fleet::Manifest::parse(m->to_json()) == m;
              return error;
            }};
  return {"scenario", [](const Value& doc, bool& round_trips) {
            std::string error;
            const auto s = raa::scen::Scenario::parse(doc, &error);
            if (s) round_trips = raa::scen::Scenario::parse(s->to_json()) == s;
            return error;
          }};
}

TEST(JsonBindGolden, ToJsonMatchesCheckedInGolden) {
  std::string actual;
  for (const std::string& rel : corpus()) {
    std::string error;
    const auto s = raa::scen::Scenario::load_file(kRoot + "/" + rel, &error);
    ASSERT_TRUE(s) << error;
    actual += "== " + rel + "\n" + s->to_json().dump(2) + "\n";
  }
  std::string error;
  const auto doc = Value::parse(slurp(kRoot + "/" + kManifest), &error);
  ASSERT_TRUE(doc) << error;
  const auto m = raa::fleet::Manifest::parse(*doc, &error);
  ASSERT_TRUE(m) << error;
  actual += "== " + kManifest + "\n" + m->to_json().dump(2) + "\n";

  raa::test_util::expect_matches_golden(actual, "to_json.golden.txt",
                                        "to_json.actual.txt");
}

// --- mutation robustness ----------------------------------------------------

/// Byte mutants: delete each byte, or replace it with each of these.
constexpr char kReplacements[] = {'0', '-', '"', '}', 'x'};
/// Number mutants: every numeric token replaced by each of these
/// (negative, overflowing, just past 2^53, not a number).
const char* const kNumbers[] = {"-1", "1e300", "9007199254740994", "\"x\""};

/// [begin, end) of every numeric token outside strings.
std::vector<std::pair<std::size_t, std::size_t>> numbers(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char ch = text[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
    } else if (ch == '"') {
      in_string = true;
    } else if (ch == '-' || (ch >= '0' && ch <= '9')) {
      std::size_t j = i + 1;
      while (j < text.size() &&
             std::string_view{"0123456789.eE+-"}.find(text[j]) !=
                 std::string_view::npos)
        ++j;
      out.emplace_back(i, j);
      i = j - 1;
    }
  }
  return out;
}

class Mutants : public ::testing::TestWithParam<std::string> {};

TEST_P(Mutants, ParseOrFailWithPathOrPositionNeverThrow) {
  const std::string rel = GetParam();
  const std::string text = slurp(kRoot + "/" + rel);
  ASSERT_FALSE(text.empty()) << rel;
  const Schema schema = schema_for(rel);

  std::size_t accepted = 0, rejected = 0, checked = 0;
  const auto check = [&](const std::string& mutant, const std::string& what) {
    ++checked;
    std::string error;
    const auto doc = Value::parse(mutant, &error);
    if (!doc) {
      ++rejected;
      EXPECT_TRUE(error.find("line ") != std::string::npos &&
                  error.find(", column ") != std::string::npos)
          << rel << " " << what << ": syntax error without a position: "
          << error;
      return;
    }
    bool round_trips = false;
    try {
      error = schema.parse(*doc, round_trips);
    } catch (const std::exception& e) {
      ADD_FAILURE() << rel << " " << what << ": parse threw " << e.what();
      return;
    }
    if (error.empty()) {
      ++accepted;
      EXPECT_TRUE(round_trips) << rel << " " << what
                               << ": parse(to_json(m)) != m";
      return;
    }
    ++rejected;
    const std::string root = schema.root;
    EXPECT_TRUE(error.rfind(root, 0) == 0 &&
                std::string_view{".[:"}.find(error[root.size()]) !=
                    std::string_view::npos)
        << rel << " " << what << ": error without a JSON path: " << error;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    check(text.substr(0, i) + text.substr(i + 1),
          "delete byte " + std::to_string(i));
    for (const char ch : kReplacements) {
      if (text[i] == ch) continue;
      std::string m = text;
      m[i] = ch;
      check(m, "byte " + std::to_string(i) + " := '" + ch + "'");
    }
  }
  for (const auto& [b, e] : numbers(text))
    for (const char* n : kNumbers)
      check(text.substr(0, b) + n + text.substr(e),
            "number at " + std::to_string(b) + " := " + n);

  // Both outcomes must occur, or the mutants are not exercising the schema.
  EXPECT_GT(accepted, 0u) << rel;
  EXPECT_GT(rejected, 0u) << rel;
  EXPECT_EQ(accepted + rejected, checked);
}

std::vector<std::string> mutation_inputs() {
  std::vector<std::string> files = corpus();
  files.push_back(kManifest);
  return files;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, Mutants, ::testing::ValuesIn(mutation_inputs()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = std::filesystem::path{info.param}.stem().string();
      std::replace_if(
          name.begin(), name.end(),
          [](char ch) { return !std::isalnum(static_cast<unsigned char>(ch)); },
          '_');
      return name;
    });

}  // namespace
