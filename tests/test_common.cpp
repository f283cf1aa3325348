// Tests for raa_common: PRNG determinism and distribution sanity, statistics
// helpers, the table printer, the CLI parser and the process-exit-code
// contract.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <vector>

#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace {

using raa::Rng;

TEST(Rng, DeterministicAcrossInstances) {
  Rng a{42}, b{42};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent1{7}, parent2{7};
  Rng c1 = parent1.split();
  Rng c2 = parent2.split();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1(), c2());
  // Parent and child should not mirror each other.
  Rng p{7};
  Rng c = p.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (p() == c());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng r{3};
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng r{3};
  std::array<int, 8> hits{};
  for (int i = 0; i < 8000; ++i) ++hits[r.below(8)];
  for (const int h : hits) EXPECT_GT(h, 700);  // ~1000 expected each
}

TEST(Rng, RangeInclusive) {
  Rng r{5};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r{11};
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng r{13};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  r.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Stats, SummaryKnownValues) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const auto s = raa::summarize(xs);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.0, 1e-12);  // classic textbook sample
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Stats, SummaryEmpty) {
  const auto s = raa::summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, GeomeanKnown) {
  const std::vector<double> xs{1.0, 4.0, 16.0};
  EXPECT_NEAR(raa::geomean(xs), 4.0, 1e-12);
}

TEST(Stats, GeomeanSingle) {
  const std::vector<double> xs{3.5};
  EXPECT_NEAR(raa::geomean(xs), 3.5, 1e-12);
}

TEST(Stats, MeanKnown) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(raa::mean(xs), 2.0);
}

TEST(Stats, RelDiff) {
  EXPECT_NEAR(raa::rel_diff(10.0, 11.0), 1.0 / 11.0, 1e-12);
  EXPECT_EQ(raa::rel_diff(0.0, 0.0), 0.0);
}

TEST(Table, AlignsAndPrintsAllRows) {
  raa::Table t{{"name", "x"}};
  t.row("CG", 1.25);
  t.row("longer-name", 10.5);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("1.250"), std::string::npos);
  EXPECT_NE(out.find("10.500"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Cli, ParsesTypedFlags) {
  const char* argv[] = {"prog", "--n=128", "--alpha=0.5", "--mode=hybrid",
                        "--verbose"};
  const raa::Cli cli{5, argv};
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.0), 0.5);
  EXPECT_EQ(cli.get_string("mode", ""), "hybrid");
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_TRUE(cli.has("n"));
  EXPECT_FALSE(cli.has("missing"));
  EXPECT_EQ(cli.get_int("missing", 7), 7);
}

TEST(Cli, MalformedValueFallsBack) {
  const char* argv[] = {"prog", "--n=abc"};
  const raa::Cli cli{2, argv};
  EXPECT_EQ(cli.get_int("n", 9), 9);
}

TEST(Cli, UnknownFlagNamesTheFirstOneAndTheAcceptedSet) {
  const char* argv[] = {"prog", "--results=r.json", "--tolerence=0.5",
                        "file.json"};
  const raa::Cli cli{4, argv};
  EXPECT_EQ(cli.unknown_flag({"results", "tolerance"}),
            "unknown flag --tolerence (accepted: --results, --tolerance)");
  EXPECT_EQ(cli.unknown_flag({"results", "tolerence"}), "");
  // Positional arguments are not flags.
  const char* files[] = {"prog", "a.json", "b.json"};
  EXPECT_EQ(raa::Cli(3, files).unknown_flag({}), "");
}

TEST(ExitCodes, NumericValuesAreAFrozenContract) {
  // Downstream scripts and the CI shell tests switch on these numbers
  // (docs in common/exit_codes.hpp). Changing any value is a breaking
  // change; the list is append-only.
  EXPECT_EQ(raa::kExitOk, 0);
  EXPECT_EQ(raa::kExitFailure, 1);
  EXPECT_EQ(raa::kExitUsage, 2);
  EXPECT_EQ(raa::kExitBadScenario, 3);
  EXPECT_EQ(raa::kExitPartialFleet, 4);
}

TEST(ExitCodes, NamesMatchTheDocumentedTaxonomy) {
  EXPECT_STREQ(raa::to_string(raa::kExitOk), "ok");
  EXPECT_STREQ(raa::to_string(raa::kExitFailure), "failure");
  EXPECT_STREQ(raa::to_string(raa::kExitUsage), "usage");
  EXPECT_STREQ(raa::to_string(raa::kExitBadScenario), "bad-scenario");
  EXPECT_STREQ(raa::to_string(raa::kExitPartialFleet), "partial-fleet");
}

}  // namespace
