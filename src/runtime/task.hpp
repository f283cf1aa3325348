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
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

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
  Criticality criticality = Criticality::normal;  ///< scheduling hint
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

namespace detail {

/// Internal task control block. Guarded by the runtime's graph mutex except
/// where noted; task bodies execute outside any lock.
struct TaskBlock {
  TaskId id = kNoTask;
  /// Written at spawn; afterwards touched only by the executing thread,
  /// which also releases it after the run, outside the lock.
  std::function<void()> body;
  TaskAttrs attrs;

  /// Number of not-yet-finished predecessors. Guarded by the graph mutex.
  std::uint32_t pending_preds = 0;
  /// Direct successors discovered at their spawn time.
  std::vector<TaskBlock*> successors;
  /// Set under the graph mutex at completion; `trace` is final once set.
  bool finished = false;

  /// Nested-spawn linkage (Runtime::silent_async): the task whose body
  /// spawned this one, and the count of this task's own live children.
  /// `children` is incremented at the child's spawn and decremented
  /// (release) at its completion, both under the graph mutex; the parent's
  /// join reads it with acquire loads and locks only to park. A task
  /// completes only after its children count has drained back to zero
  /// (implicit join).
  TaskBlock* parent = nullptr;
  std::atomic<std::uint32_t> children{0};

  /// Written by the executing thread just before completion.
  TraceRecord trace;
};

}  // namespace detail
}  // namespace raa::rt
