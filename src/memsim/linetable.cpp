#include "memsim/linetable.hpp"

#include <cstddef>
#include <memory>
#include <new>

namespace raa::mem {

LineTable::Page* LineTable::slow_page(std::uint64_t page) {
  Page** slot = nullptr;
  if (page < kDensePages) {
    if (page >= pages_.size())
      pages_.resize(static_cast<std::size_t>(page) + 1, nullptr);
    slot = &pages_[static_cast<std::size_t>(page)];
  } else {
    slot = &high_pages_[page];
  }
  if (*slot == nullptr) {
    // A plain new[] block, aligned by hand: aligned operator new goes
    // through memalign, whose split-off fragments raised the peak RSS of
    // many short runs in one process (the fleet) by ~0.7 MiB.
    constexpr std::size_t kBytes = sizeof(Page) + alignof(Page);
    void* p = blocks_.emplace_back(new std::byte[kBytes]).get();
    std::size_t space = kBytes;
    p = std::align(alignof(Page), sizeof(Page), p, space);
    *slot = ::new (p) Page{};  // all-zero records; trivially destructible
  }
  return *slot;
}

}  // namespace raa::mem
