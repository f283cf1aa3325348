#pragma once
/// \file dependences.hpp
/// Byte-range dependence registry: turns the per-task in/out/inout
/// annotations into TDG edges, exactly like the Nanos++ dependence system.
///
/// Semantics (program order = spawn order):
///   * read  of a range depends on the last writer of every overlapped byte
///     (RAW);
///   * write of a range depends on the last writer (WAW) and on every reader
///     since that writer (WAR), then becomes the new last writer and clears
///     the reader set;
///   * readwrite behaves as read followed by write.
///
/// The registry stores disjoint segments in an ordered map keyed by start
/// address; registering an access splits overlapped segments at the access
/// boundaries, so arbitrary partial overlaps are supported. An access that
/// is exactly one tracked segment (a task re-touching a whole object) takes
/// one map search and no split.

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "runtime/task.hpp"

namespace raa::rt {

/// See file comment. Not thread-safe: callers serialise registration in
/// spawn order (the runtime holds its graph mutex across registration).
class DependenceRegistry {
 public:
  /// Register `task`'s accesses; appends the ids of tasks it must wait for
  /// into `preds` (excluding `task` itself). `preds` comes back sorted and
  /// deduplicated as a whole — callers pass a fresh (or don't-care-order)
  /// vector; the single sort+dedup replaces a per-candidate linear scan.
  void register_task(TaskId task, std::span<const Dep> deps,
                     std::vector<TaskId>& preds);

  /// Number of distinct segments currently tracked (test/debug aid).
  std::size_t segment_count() const noexcept { return segments_.size(); }

  /// Drop all tracked state (e.g. between independent phases).
  void clear() { segments_.clear(); }

 private:
  struct Segment {
    std::uintptr_t end = 0;  ///< one past the last byte
    TaskId writer = kNoTask;
    std::vector<TaskId> readers;  ///< readers since `writer`
  };

  using SegMap = std::map<std::uintptr_t, Segment>;

  /// Ensure segment boundaries exist at `at` (splitting a covering segment).
  void split_at(std::uintptr_t at);

  /// Apply one access [lo, hi) of the given mode for `task`.
  void apply(TaskId task, std::uintptr_t lo, std::uintptr_t hi,
             AccessMode mode, std::vector<TaskId>& preds);

  /// Append a predecessor candidate (duplicates resolved later in bulk).
  static void note_pred(std::vector<TaskId>& preds, TaskId id);
  /// Append `task` to a segment's reader list (adjacent-duplicate safe).
  static void add_reader(Segment& seg, TaskId task);

  SegMap segments_;
};

}  // namespace raa::rt
