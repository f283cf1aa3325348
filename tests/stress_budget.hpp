#pragma once
/// \file stress_budget.hpp
/// Iteration budget of the concurrency stress tests.

#include <cstdlib>

namespace raa::test_util {

/// `dflt`, or RAA_STRESS_ITERS when it is set to a positive number. The
/// stealing-stress CTest entries raise it; plain tier1 runs stay fast.
inline unsigned stress_iters(unsigned dflt) {
  if (const char* s = std::getenv("RAA_STRESS_ITERS")) {
    const long v = std::strtol(s, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return dflt;
}

}  // namespace raa::test_util
