// Allocation guard for the task runtime's spawn path. This binary replaces
// the global operator new with a counting one, then checks that spawning
// a dependent task with a small body costs no heap allocation of its own:
// the body lives in the task block, the TDG edges go to one flat edge
// log, and the dependence registry reuses the segments of objects the
// tasks re-touch. What remains is amortised: a new deque node for every
// few task blocks, the executor's queue nodes and the log's growth.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <stdexcept>
#include <vector>

#include "runtime/runtime.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}

void* counted_alloc(std::size_t n, std::align_val_t a) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(a);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size == 0 ? align : size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

// The array and nothrow forms of the library forward to these.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using raa::rt::Dep;
using raa::rt::Runtime;
using raa::rt::detail::TaskBody;

std::uint64_t news() { return g_news.load(std::memory_order_relaxed); }

constexpr std::size_t kGrid = 64;  ///< kGrid x kGrid = 4096 tasks

/// The dependence lists of one wavefront sweep over `grid`: cell (i,j)
/// updates itself from its upper and left neighbours.
std::vector<std::vector<Dep>> wavefront_deps(std::vector<std::uint64_t>& grid) {
  std::vector<std::vector<Dep>> all;
  all.reserve(kGrid * kGrid);
  for (std::size_t i = 0; i < kGrid; ++i)
    for (std::size_t j = 0; j < kGrid; ++j) {
      std::uint64_t& c = grid[i * kGrid + j];
      std::vector<Dep>& deps = all.emplace_back();
      deps.reserve(3);
      deps.push_back(raa::rt::inout(c));
      if (i) deps.push_back(raa::rt::in(grid[(i - 1) * kGrid + j]));
      if (j) deps.push_back(raa::rt::in(grid[i * kGrid + j - 1]));
    }
  return all;
}

/// Spawns one sweep with 24-byte bodies and waits for it.
void sweep(Runtime& rt, std::vector<std::uint64_t>& grid,
           std::vector<std::vector<Dep>>& deps) {
  for (std::size_t i = 0; i < kGrid; ++i)
    for (std::size_t j = 0; j < kGrid; ++j) {
      std::uint64_t* c = &grid[i * kGrid + j];
      const std::uint64_t* up = i ? c - kGrid : nullptr;
      const std::uint64_t* left = j ? c - 1 : nullptr;
      auto body = [c, up, left] {
        *c = *c * 31 + (up ? *up : 0) + (left ? *left : 0);
      };
      static_assert(sizeof(body) == 24);
      rt.spawn(std::move(deps[i * kGrid + j]), body);
    }
  rt.taskwait();
}

TEST(RuntimeAlloc, DependentSpawnsWithSmallBodiesBarelyAllocate) {
  std::vector<std::uint64_t> grid(kGrid * kGrid, 1);
  Runtime rt{{.num_workers = 0}};
  // Warm up: the registry learns every cell, the queues reach their size.
  auto warm = wavefront_deps(grid);
  sweep(rt, grid, warm);

  auto deps = wavefront_deps(grid);
  const std::uint64_t before = news();
  sweep(rt, grid, deps);
  const std::uint64_t spawned = news() - before;

  const double per_task =
      static_cast<double>(spawned) / static_cast<double>(kGrid * kGrid);
  EXPECT_LT(per_task, 0.5) << spawned << " allocations for "
                           << kGrid * kGrid << " tasks";
  EXPECT_EQ(rt.stats().tasks_executed, 2 * kGrid * kGrid);
}

TEST(RuntimeAlloc, BodiesUpToInlineBytesStayInPlace) {
  static_assert(TaskBody::kInlineBytes == 6 * sizeof(void*));
  std::array<char, TaskBody::kInlineBytes> bytes{};
  char* p = bytes.data();
  int runs = 0;
  const std::uint64_t n0 = news();
  TaskBody exact{[&runs, p, q = p, r = p, s = p, t = p] {
    (void)p, (void)q, (void)r, (void)s, (void)t;
    ++runs;
  }};
  EXPECT_EQ(news() - n0, 0u) << "a 48-byte capture is stored in place";
  const std::uint64_t n1 = news();
  TaskBody over{[bytes, &runs] {
    (void)bytes;
    ++runs;
  }};
  EXPECT_EQ(news() - n1, 1u) << "a 56-byte capture goes to the heap";

  // Moving a body never allocates, wherever the callable lives.
  const std::uint64_t n2 = news();
  TaskBody moved_exact{std::move(exact)};
  TaskBody moved_over{std::move(over)};
  EXPECT_EQ(news() - n2, 0u);
  EXPECT_FALSE(exact);
  EXPECT_FALSE(over);
  moved_exact();
  moved_over();
  EXPECT_EQ(runs, 2);
}

/// A callable whose move may throw goes to the heap, however small.
struct ThrowingMove {
  int* runs;
  explicit ThrowingMove(int* r) : runs(r) {}
  ThrowingMove(const ThrowingMove&) = default;
  ThrowingMove(ThrowingMove&& o) noexcept(false) : runs(o.runs) {}
  void operator()() const { ++*runs; }
};

TEST(RuntimeAlloc, ThrowingMoveBodiesGoToTheHeap) {
  int runs = 0;
  const std::uint64_t n0 = news();
  TaskBody body{ThrowingMove{&runs}};
  EXPECT_EQ(news() - n0, 1u);
  TaskBody moved{std::move(body)};
  moved();
  EXPECT_EQ(runs, 1);
}

TEST(RuntimeAlloc, StdFunctionAndPointerBodiesRunAndNullOnesAreRejected) {
  Runtime rt{{.num_workers = 1}};
  std::atomic<int> runs{0};  // the two bodies may run at once
  const std::function<void()> fn = [&runs] { ++runs; };
  rt.spawn(fn);
  rt.silent_async(std::function<void()>{[&runs] { ++runs; }});
  static int pointer_runs = 0;
  void (*ptr)() = [] { ++pointer_runs; };
  rt.spawn({}, ptr);
  rt.taskwait();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(pointer_runs, 1);
  EXPECT_THROW(rt.spawn(std::function<void()>{}), raa::CheckError);
  void (*null_ptr)() = nullptr;
  EXPECT_THROW(rt.silent_async(null_ptr), raa::CheckError);
  EXPECT_EQ(rt.stats().tasks_spawned, 3u);
}

}  // namespace
