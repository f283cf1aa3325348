#pragma once
/// \file golden_testing.hpp
/// Helpers for the tests that read the scenario corpus and compare output
/// byte for byte with a checked-in golden under tests/data/. A including
/// test target defines RAA_SOURCE_DIR (the repository root; see
/// tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace raa::test_util {

inline const std::string kRoot = RAA_SOURCE_DIR;

/// Whole file as bytes ("" when it cannot be read).
inline std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Every corpus scenario, repo-relative, sorted by name.
inline std::vector<std::string> corpus() {
  std::vector<std::string> files;
  namespace fs = std::filesystem;
  for (const auto& e : fs::directory_iterator{kRoot + "/scenarios"})
    if (e.path().extension() == ".json")
      files.push_back("scenarios/" + e.path().filename().string());
  std::sort(files.begin(), files.end());
  return files;
}

/// Fail unless `actual` equals tests/data/`golden` byte for byte. On a
/// mismatch the actual text is written to the test's temporary directory
/// as `dump`, so an intended change can regenerate the golden from it.
inline void expect_matches_golden(const std::string& actual,
                                  const std::string& golden,
                                  const std::string& dump) {
  const std::string golden_path = kRoot + "/tests/data/" + golden;
  const std::string expected = slurp(golden_path);
  if (actual == expected) return;
  const std::string dump_path = ::testing::TempDir() + dump;
  std::ofstream{dump_path, std::ios::binary} << actual;
  ADD_FAILURE() << (expected.empty() ? "missing golden "
                                     : "output differs from ")
                << golden_path << "; actual written to " << dump_path;
}

}  // namespace raa::test_util
