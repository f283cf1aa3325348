#pragma once
/// \file task.hpp
/// Task descriptors for the RAA tasking runtime: data-access annotations
/// (the OmpSs in/out/inout clauses), programmer attributes, and the internal
/// task control block.
///
/// The programming model follows §1 of the paper: parallel programs are
/// decomposed into tasks annotated with the data they read and write; the
/// runtime derives a Task Dependency Graph (TDG) and executes tasks
/// out-of-order, "in the same way as superscalar processors manage ILP".

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

namespace raa::rt {

/// Runtime-assigned task identifier; ids are dense and start at 0, so they
/// double as TDG node ids.
using TaskId = std::uint32_t;

inline constexpr TaskId kNoTask = static_cast<TaskId>(-1);

/// How a task accesses a registered data region (OmpSs in/out/inout).
enum class AccessMode : std::uint8_t {
  read,       ///< in:    task reads the region
  write,      ///< out:   task overwrites the region entirely
  readwrite,  ///< inout: task reads then updates the region
};

/// A data-region annotation: a byte range plus an access mode. Regions are
/// identified by address, exactly like OmpSs dependences over contiguous
/// data (§5 notes the standard syntax covers contiguous footprints only).
struct Dep {
  std::uintptr_t base = 0;
  std::size_t bytes = 0;
  AccessMode mode = AccessMode::read;

  friend bool operator==(const Dep&, const Dep&) = default;
};

/// in(x): task reads object x.
template <typename T>
Dep in(const T& object) {
  return {reinterpret_cast<std::uintptr_t>(&object), sizeof(T),
          AccessMode::read};
}
/// out(x): task overwrites object x.
template <typename T>
Dep out(T& object) {
  return {reinterpret_cast<std::uintptr_t>(&object), sizeof(T),
          AccessMode::write};
}
/// inout(x): task reads and updates object x.
template <typename T>
Dep inout(T& object) {
  return {reinterpret_cast<std::uintptr_t>(&object), sizeof(T),
          AccessMode::readwrite};
}
/// Span overloads: annotate a contiguous array section.
template <typename T>
Dep in(std::span<const T> s) {
  return {reinterpret_cast<std::uintptr_t>(s.data()), s.size_bytes(),
          AccessMode::read};
}
template <typename T>
Dep out(std::span<T> s) {
  return {reinterpret_cast<std::uintptr_t>(s.data()), s.size_bytes(),
          AccessMode::write};
}
template <typename T>
Dep inout(std::span<T> s) {
  return {reinterpret_cast<std::uintptr_t>(s.data()), s.size_bytes(),
          AccessMode::readwrite};
}

/// Programmer-visible criticality hint (§3.1: "task criticality can be
/// simply annotated by the programmer").
enum class Criticality : std::uint8_t { normal, critical };

/// Optional per-task attributes.
struct TaskAttrs {
  std::string label;                              ///< for traces / DOT dumps
  /// Exported as the TDG node's critical_hint (graph()), where the
  /// criticality analysis behind the RSU governor reads it.
  Criticality criticality = Criticality::normal;
  double cost_hint = 0.0;  ///< expected work (arbitrary units); 0 = unknown
};

/// One record of the execution trace: which worker ran the task and when
/// (steady-clock nanoseconds since runtime construction).
struct TraceRecord {
  TaskId task = kNoTask;
  std::uint32_t worker = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// What spawn() and silent_async() accept as a task body: any callable a
/// task can store and call with no arguments (its result is discarded).
template <class F>
concept TaskCallable = std::constructible_from<std::decay_t<F>, F> &&
                       std::invocable<std::decay_t<F>&>;

namespace detail {

/// Callables that can be null: spawning one that is null is an error.
template <class T>
inline constexpr bool kNullableBody = std::is_pointer_v<T>;
template <class R, class... A>
inline constexpr bool kNullableBody<std::function<R(A...)>> = true;

/// A task body: any TaskCallable, type-erased without std::function. A
/// callable of at most kInlineBytes bytes and at most pointer alignment
/// whose move cannot throw is stored in the body itself, and so in its
/// task block; any other is stored on the heap. Move-only. An empty
/// std::function or a null function pointer gives an empty body.
class TaskBody {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  TaskBody() noexcept = default;

  template <TaskCallable F>
    requires(!std::same_as<std::remove_cvref_t<F>, TaskBody>)
  explicit TaskBody(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (kNullableBody<std::remove_cvref_t<F>>)
      if (!f) return;
    if constexpr (kInline<Fn>)
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    else
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
    ops_ = &kOps<Fn>;
  }

  TaskBody(TaskBody&& other) noexcept { take(other); }
  TaskBody& operator=(TaskBody&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  ~TaskBody() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Calls the stored callable; the body must not be empty.
  void operator()() { ops_->invoke(storage_); }

  /// Destroys the stored callable, releasing what it captured.
  void reset() noexcept {
    if (ops_ == nullptr) return;
    ops_->destroy(storage_);
    ops_ = nullptr;
  }

 private:
  template <class Fn>
  static constexpr bool kInline = sizeof(Fn) <= kInlineBytes &&
                                  alignof(Fn) <= alignof(void*) &&
                                  std::is_nothrow_move_constructible_v<Fn>;

  /// Per-type operations on `storage_`, which holds the callable itself
  /// (inline) or a pointer to it (heap). `relocate` moves it into empty
  /// storage and leaves the source storage empty.
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* to, void* from) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <class Fn>
  static Fn& get(void* s) noexcept {
    if constexpr (kInline<Fn>)
      return *std::launder(static_cast<Fn*>(s));
    else
      return **std::launder(static_cast<Fn**>(s));
  }

  template <class Fn>
  static constexpr Ops kOps = {
      [](void* s) { std::invoke(get<Fn>(s)); },
      [](void* to, void* from) noexcept {
        if constexpr (kInline<Fn>) {
          Fn& f = get<Fn>(from);
          ::new (to) Fn(std::move(f));
          f.~Fn();
        } else {
          ::new (to) Fn*(&get<Fn>(from));
        }
      },
      [](void* s) noexcept {
        if constexpr (kInline<Fn>)
          get<Fn>(s).~Fn();
        else
          delete &get<Fn>(s);
      }};

  void take(TaskBody& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(storage_, other.storage_);
    ops_ = std::exchange(other.ops_, nullptr);
  }

  alignas(void*) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Index of an edge in the runtime's edge log.
using EdgeId = std::uint32_t;
inline constexpr EdgeId kNoEdge = static_cast<EdgeId>(-1);
/// TaskBlock::succ_head of a finished task: its release chain is closed.
inline constexpr EdgeId kClosed = kNoEdge - 1;

/// One dependence edge of the runtime's edge log: `to` waits for `from`.
/// Edges are logged in spawn order. `next` links the edge into the release
/// chain of `from` when `from` was unfinished at the spawn (see
/// TaskBlock::succ_head); it is written by the spawn before the edge joins
/// the chain and afterwards only by the completion that detached it.
struct Edge {
  TaskId from = kNoTask;
  TaskId to = kNoTask;
  EdgeId next = kNoEdge;
};

/// Internal task control block. A block is written by its spawn before it
/// is published (to the executor, to a predecessor's release chain, or to
/// graph()/trace() through the task store); afterwards the members below
/// say who touches them. Task bodies execute outside any lock.
struct TaskBlock {
  TaskBlock(TaskId task, TaskBody&& fn, TaskAttrs&& a) noexcept
      : id(task), body(std::move(fn)), attrs(std::move(a)) {}

  /// Bit of `children` set while the task's join is parked.
  static constexpr std::uint32_t kJoinParked = std::uint32_t{1} << 31;

  TaskId id = kNoTask;
  /// Predecessors that have not released this task yet, plus one guard
  /// that the spawn holds while it links the task onto their chains, so
  /// no release can reach zero before the spawn is done. The decrement
  /// that reaches zero pushes the task. Zero for dependence-free tasks.
  std::atomic<std::uint32_t> pending_preds{0};
  /// Once published, touched only by the executing thread, which releases
  /// it after the run.
  TaskBody body;
  TaskAttrs attrs;

  /// Release chain: the newest edge-log entry whose successor still waits
  /// for this task, linked through Edge::next newest first. A dependent
  /// spawn links an edge on with a CAS (under the graph mutex, so the CAS
  /// can only lose to the completion); the completion detaches the chain
  /// and closes it with one exchange to kClosed, which also publishes
  /// `trace`, and releases the successors in spawn order.
  std::atomic<EdgeId> succ_head{kNoEdge};

  /// Nested-spawn linkage (Runtime::silent_async): the count of this
  /// task's live children, plus kJoinParked while its join is parked. It is
  /// incremented at a child's spawn by the thread running this task and
  /// decremented (release) at the child's completion; the join reads it
  /// with acquire. A task completes only after its children count has
  /// drained back to zero (implicit join).
  std::atomic<std::uint32_t> children{0};
  /// The task whose body spawned this one, or null.
  TaskBlock* parent = nullptr;

  /// Written by the executing thread just before completion.
  TraceRecord trace;

  /// True once the completion closed the release chain; `trace` is final.
  bool finished() const noexcept {
    return succ_head.load(std::memory_order_acquire) == kClosed;
  }
};

}  // namespace detail
}  // namespace raa::rt
