#include "runtime/dependences.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace raa::rt {

namespace {
/// First reader-capacity reservation: most segments see a handful of
/// readers between writers; reserving up front avoids the 1->2->4 growth
/// reallocations that used to dominate reader-list churn.
constexpr std::size_t kReaderReserve = 8;
}  // namespace

void DependenceRegistry::note_pred(std::vector<TaskId>& preds, TaskId id) {
  // Duplicates are fine here: register_task sort+dedups once at the end,
  // which replaces the old O(preds) linear scan per candidate.
  if (id != kNoTask) preds.push_back(id);
}

void DependenceRegistry::add_reader(Segment& seg, TaskId task) {
  // All of a task's registrations are applied back-to-back, so a duplicate
  // reader entry can only be the immediately preceding one.
  if (!seg.readers.empty() && seg.readers.back() == task) return;
  if (seg.readers.empty()) seg.readers.reserve(kReaderReserve);
  seg.readers.push_back(task);
}

void DependenceRegistry::split_at(std::uintptr_t at) {
  auto it = segments_.upper_bound(at);
  if (it == segments_.begin()) return;
  --it;
  const std::uintptr_t seg_lo = it->first;
  Segment& seg = it->second;
  if (seg_lo < at && at < seg.end) {
    Segment right = seg;  // copies writer + readers
    seg.end = at;
    segments_.emplace(at, std::move(right));
  }
}

void DependenceRegistry::apply(TaskId task, std::uintptr_t lo,
                               std::uintptr_t hi, AccessMode mode,
                               std::vector<TaskId>& preds) {
  RAA_CHECK(lo < hi);
  const bool reads = mode != AccessMode::write;
  const bool writes = mode != AccessMode::read;

  const auto touch = [&](Segment& seg) {
    if (reads) {
      note_pred(preds, seg.writer);  // RAW
    }
    if (writes) {
      note_pred(preds, seg.writer);         // WAW
      for (const TaskId r : seg.readers)    // WAR
        note_pred(preds, r);
      seg.writer = task;
      seg.readers.clear();  // keeps capacity for the next reader epoch
    } else {
      add_reader(seg, task);
    }
  };

  // Fast path: the access is exactly one tracked segment (the common case
  // of a task re-touching a whole object), so neither split would cut.
  auto it = segments_.lower_bound(lo);
  if (it != segments_.end() && it->first == lo && it->second.end == hi) {
    touch(it->second);
    return;
  }

  split_at(lo);
  split_at(hi);

  // Walk existing segments overlapping [lo, hi); fill gaps with fresh
  // segments so the new access is recorded everywhere.
  std::uintptr_t cursor = lo;
  it = segments_.lower_bound(lo);

  while (cursor < hi) {
    if (it == segments_.end() || it->first >= hi) {
      // Tail gap [cursor, hi).
      Segment fresh;
      fresh.end = hi;
      if (writes) {
        fresh.writer = task;
      } else {
        fresh.writer = kNoTask;
        add_reader(fresh, task);
      }
      it = segments_.emplace(cursor, std::move(fresh)).first;
      ++it;
      cursor = hi;
      break;
    }
    if (it->first > cursor) {
      // Gap [cursor, it->first).
      Segment fresh;
      fresh.end = it->first;
      if (writes) {
        fresh.writer = task;
      } else {
        add_reader(fresh, task);
      }
      segments_.emplace(cursor, std::move(fresh));
      cursor = it->first;
      continue;
    }
    // Segment starting exactly at cursor; boundaries guarantee it ends
    // within [lo, hi].
    RAA_CHECK(it->second.end <= hi);
    touch(it->second);
    cursor = it->second.end;
    ++it;
  }
}

void DependenceRegistry::register_task(TaskId task, std::span<const Dep> deps,
                                       std::vector<TaskId>& preds) {
  for (const Dep& d : deps) {
    if (d.bytes == 0) continue;
    apply(task, d.base, d.base + d.bytes, d.mode, preds);
  }
  // One sort+dedup per registration instead of an O(preds) membership scan
  // per candidate predecessor (the old add_unique was quadratic in the
  // reader count of hot ranges). A task's own earlier accesses must not
  // appear as its predecessors.
  std::sort(preds.begin(), preds.end());
  preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
  std::erase(preds, task);
}

}  // namespace raa::rt
