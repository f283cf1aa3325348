// Tests for the byte-range dependence registry: RAW/WAR/WAW semantics,
// partial overlaps, segment splitting, and a randomized property test that
// checks the derived orderings against a brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "runtime/dependences.hpp"

namespace {

using raa::rt::AccessMode;
using raa::rt::Dep;
using raa::rt::DependenceRegistry;
using raa::rt::TaskId;

std::vector<TaskId> reg(DependenceRegistry& r, TaskId id,
                        std::initializer_list<Dep> deps) {
  std::vector<TaskId> preds;
  r.register_task(id, std::vector<Dep>(deps), preds);
  std::sort(preds.begin(), preds.end());
  return preds;
}

Dep dep(std::uintptr_t base, std::size_t bytes, AccessMode m) {
  return Dep{base, bytes, m};
}

TEST(Dependences, ReadAfterWrite) {
  DependenceRegistry r;
  EXPECT_TRUE(reg(r, 0, {dep(100, 8, AccessMode::write)}).empty());
  EXPECT_EQ(reg(r, 1, {dep(100, 8, AccessMode::read)}),
            (std::vector<TaskId>{0}));
}

TEST(Dependences, WriteAfterRead) {
  DependenceRegistry r;
  reg(r, 0, {dep(100, 8, AccessMode::write)});
  reg(r, 1, {dep(100, 8, AccessMode::read)});
  reg(r, 2, {dep(100, 8, AccessMode::read)});
  // Writer depends on both readers (WAR) and the previous writer (WAW).
  EXPECT_EQ(reg(r, 3, {dep(100, 8, AccessMode::write)}),
            (std::vector<TaskId>{0, 1, 2}));
}

TEST(Dependences, WriteAfterWrite) {
  DependenceRegistry r;
  reg(r, 0, {dep(100, 8, AccessMode::write)});
  EXPECT_EQ(reg(r, 1, {dep(100, 8, AccessMode::write)}),
            (std::vector<TaskId>{0}));
}

TEST(Dependences, ReadersDoNotDependOnEachOther) {
  DependenceRegistry r;
  reg(r, 0, {dep(100, 8, AccessMode::write)});
  EXPECT_EQ(reg(r, 1, {dep(100, 8, AccessMode::read)}),
            (std::vector<TaskId>{0}));
  EXPECT_EQ(reg(r, 2, {dep(100, 8, AccessMode::read)}),
            (std::vector<TaskId>{0}));  // not {0, 1}
}

TEST(Dependences, DisjointRangesAreIndependent) {
  DependenceRegistry r;
  reg(r, 0, {dep(100, 8, AccessMode::write)});
  EXPECT_TRUE(reg(r, 1, {dep(200, 8, AccessMode::write)}).empty());
  EXPECT_TRUE(reg(r, 2, {dep(108, 8, AccessMode::write)}).empty());
}

TEST(Dependences, PartialOverlapDetected) {
  DependenceRegistry r;
  reg(r, 0, {dep(100, 16, AccessMode::write)});
  // Overlaps the tail [108, 116).
  EXPECT_EQ(reg(r, 1, {dep(108, 16, AccessMode::read)}),
            (std::vector<TaskId>{0}));
  // Touches only the non-overlapped tail [116, 124): depends on task 1's
  // write?  No: task 1 only read. A write to [116, 124) conflicts with
  // task 1's read (WAR on [116, 124)).
  EXPECT_EQ(reg(r, 2, {dep(116, 8, AccessMode::write)}),
            (std::vector<TaskId>{1}));
}

TEST(Dependences, SplitKeepsMiddleIndependent) {
  DependenceRegistry r;
  reg(r, 0, {dep(0, 30, AccessMode::write)});
  reg(r, 1, {dep(10, 10, AccessMode::write)});  // overwrites the middle
  // A read of the middle must depend on task 1 only.
  EXPECT_EQ(reg(r, 2, {dep(12, 4, AccessMode::read)}),
            (std::vector<TaskId>{1}));
  // A read of the head still depends on task 0.
  EXPECT_EQ(reg(r, 3, {dep(0, 4, AccessMode::read)}),
            (std::vector<TaskId>{0}));
}

TEST(Dependences, ReadWriteActsAsBoth) {
  DependenceRegistry r;
  reg(r, 0, {dep(100, 8, AccessMode::write)});
  reg(r, 1, {dep(100, 8, AccessMode::readwrite)});
  EXPECT_EQ(reg(r, 2, {dep(100, 8, AccessMode::read)}),
            (std::vector<TaskId>{1}));
}

TEST(Dependences, InoutChainSerializes) {
  DependenceRegistry r;
  for (TaskId t = 0; t < 5; ++t) {
    const auto preds = reg(r, t, {dep(100, 8, AccessMode::readwrite)});
    if (t == 0)
      EXPECT_TRUE(preds.empty());
    else
      EXPECT_EQ(preds, (std::vector<TaskId>{t - 1}));
  }
}

TEST(Dependences, MultipleDepsUnionPredecessors) {
  DependenceRegistry r;
  reg(r, 0, {dep(100, 8, AccessMode::write)});
  reg(r, 1, {dep(200, 8, AccessMode::write)});
  EXPECT_EQ(reg(r, 2,
                {dep(100, 8, AccessMode::read), dep(200, 8, AccessMode::read)}),
            (std::vector<TaskId>{0, 1}));
}

TEST(Dependences, OwnDepsDoNotSelfDepend) {
  DependenceRegistry r;
  // Task reads and writes overlapping ranges of its own.
  const auto preds = reg(r, 0,
                         {dep(100, 16, AccessMode::read),
                          dep(104, 4, AccessMode::write)});
  EXPECT_TRUE(preds.empty());
}

TEST(Dependences, ZeroByteDepIgnored) {
  DependenceRegistry r;
  reg(r, 0, {dep(100, 8, AccessMode::write)});
  EXPECT_TRUE(reg(r, 1, {dep(100, 0, AccessMode::read)}).empty());
}

TEST(Dependences, SegmentCountGrowsAndClears) {
  DependenceRegistry r;
  reg(r, 0, {dep(0, 10, AccessMode::write)});
  reg(r, 1, {dep(20, 10, AccessMode::write)});
  EXPECT_GE(r.segment_count(), 2u);
  r.clear();
  EXPECT_EQ(r.segment_count(), 0u);
}

// ---------------------------------------------------------------------------
// Property test: compare against a brute-force byte-level oracle.
// ---------------------------------------------------------------------------

struct OracleAccess {
  TaskId task;
  std::uintptr_t lo, hi;
  bool writes, reads;
};

// For each new access, the oracle scans all earlier accesses byte-agnostic:
// a dependence exists iff ranges overlap and at least one side writes,
// BUT only against the *latest* conflicting chain — to mirror registry
// semantics (reads depend on last writer only; writes depend on last writer
// and readers since). We reproduce that with per-byte last-writer/readers.
struct Oracle {
  std::map<std::uintptr_t, TaskId> last_writer;               // per byte
  std::map<std::uintptr_t, std::vector<TaskId>> readers;      // per byte

  std::vector<TaskId> add(TaskId t, std::uintptr_t lo, std::uintptr_t hi,
                          AccessMode m) {
    std::vector<TaskId> preds;
    const bool writes = m != AccessMode::read;
    const bool reads = m != AccessMode::write;
    const auto push = [&](TaskId id) {
      if (id != t && id != raa::rt::kNoTask &&
          std::find(preds.begin(), preds.end(), id) == preds.end())
        preds.push_back(id);
    };
    for (std::uintptr_t b = lo; b < hi; ++b) {
      const auto w = last_writer.find(b);
      const TaskId writer = w == last_writer.end() ? raa::rt::kNoTask
                                                   : w->second;
      if (reads) push(writer);
      if (writes) {
        push(writer);
        for (const TaskId r : readers[b]) push(r);
        last_writer[b] = t;
        readers[b].clear();
      } else {
        readers[b].push_back(t);
      }
    }
    std::sort(preds.begin(), preds.end());
    return preds;
  }
};

TEST(Dependences, RandomizedMatchesByteOracle) {
  raa::Rng rng{2024};
  for (int trial = 0; trial < 20; ++trial) {
    DependenceRegistry reg_;
    Oracle oracle;
    for (TaskId t = 0; t < 60; ++t) {
      const std::uintptr_t lo = 1 + rng.below(64);
      const std::size_t len = 1 + rng.below(16);
      const auto mode = static_cast<AccessMode>(rng.below(3));
      std::vector<TaskId> got;
      const Dep d{lo, len, mode};
      reg_.register_task(t, std::vector<Dep>{d}, got);
      std::sort(got.begin(), got.end());
      const auto want = oracle.add(t, lo, lo + len, mode);
      ASSERT_EQ(got, want) << "trial " << trial << " task " << t;
    }
  }
}

// Most accesses hit one of a few fixed ranges exactly, as a task touching a
// whole object does (the registry's exact-match fast path); the rest
// overlap them partially or span several (the split path). Tasks carry one
// or two accesses. Re-registering a range that is exactly one tracked
// segment must not add segments.
TEST(Dependences, PooledRangesMatchByteOracle) {
  using Range = std::pair<std::uintptr_t, std::size_t>;
  constexpr std::array<Range, 4> kPool = {{{8, 8}, {16, 8}, {32, 4},
                                           {40, 16}}};
  raa::Rng rng{4242};
  for (int trial = 0; trial < 20; ++trial) {
    DependenceRegistry r;
    Oracle oracle;
    std::set<Range> registered;  // pool ranges seen, in phase 1
    // Phase 1 registers only pool ranges (disjoint, so each stays exactly
    // one segment); phase 2 mixes in partial overlaps.
    for (TaskId t = 0; t < 120; ++t) {
      const bool phase1 = t < 40;
      std::vector<Dep> deps;
      for (std::size_t a = 1 + rng.below(2); a > 0; --a) {
        const auto mode = static_cast<AccessMode>(rng.below(3));
        if (phase1 || rng.below(4) != 0) {
          const auto [base, bytes] = kPool[rng.below(kPool.size())];
          deps.push_back(dep(base, bytes, mode));
        } else {
          deps.push_back(dep(1 + rng.below(64), 1 + rng.below(16), mode));
        }
      }
      std::vector<TaskId> want;
      for (const Dep& d : deps) {
        const auto w = oracle.add(t, d.base, d.base + d.bytes, d.mode);
        want.insert(want.end(), w.begin(), w.end());
      }
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());

      const bool re_registration =
          phase1 && std::all_of(deps.begin(), deps.end(), [&](const Dep& d) {
            return registered.contains({d.base, d.bytes});
          });
      const std::size_t segments = r.segment_count();
      std::vector<TaskId> got;
      r.register_task(t, deps, got);
      ASSERT_EQ(got, want) << "trial " << trial << " task " << t;
      if (re_registration) {
        ASSERT_EQ(r.segment_count(), segments)
            << "trial " << trial << " task " << t;
      }
      if (phase1) {
        for (const Dep& d : deps) registered.insert({d.base, d.bytes});
      }
    }
    EXPECT_EQ(registered.size(), kPool.size()) << "trial " << trial;
  }
}

}  // namespace
