#include "src/storage/buffer_pool.h"

#include <cassert>

#include "src/obs/paranoid.h"

namespace senn::storage {

const char* ReplacementPolicyName(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kLru:
      return "lru";
    case ReplacementPolicy::kClock:
      return "clock";
  }
  return "?";
}

BufferPool::BufferPool(BufferPoolOptions options) : options_(options) {
  if (options_.capacity_pages > 0) frames_.reserve(options_.capacity_pages);
}

BufferPool::~BufferPool() {
  SENN_PARANOID_CHECK(pinned_pages() == 0, "pin leak at pool teardown");
}

BufferPool::FetchResult BufferPool::Fetch(PageId id) {
  auto it = table_.find(id);
  if (it != table_.end()) {
    Frame& frame = *frames_[it->second];
    frame.pins += 1;
    frame.referenced = true;
    frame.last_use = ++tick_;
    ++stats_.logical;
    ++stats_.hits;
    return {&frame.page, false};
  }

  // Miss: find a frame — grow while below capacity (or unbounded), evict
  // otherwise.
  size_t index;
  if (options_.capacity_pages == 0 || frames_.size() < options_.capacity_pages) {
    frames_.push_back(std::make_unique<Frame>());
    index = frames_.size() - 1;
  } else {
    index = PickVictim();
    if (index == kNoFrame) return {nullptr, false};  // every frame pinned
    table_.erase(frames_[index]->page.id);
    ++stats_.evictions;
  }
  Frame& frame = *frames_[index];
  frame.page.id = id;
  frame.page.data.fill(std::byte{0});  // no stale bytes from the evicted page
  frame.pins = 1;
  frame.referenced = true;
  frame.last_use = ++tick_;
  table_[id] = index;
  ++stats_.logical;
  ++stats_.misses;
  return {&frame.page, true};
}

void BufferPool::Unpin(PageId id) {
  auto it = table_.find(id);
  assert(it != table_.end() && "Unpin of a non-resident page");
  SENN_PARANOID_CHECK(it != table_.end(), "Unpin of a non-resident page");
  if (it == table_.end()) return;
  Frame& frame = *frames_[it->second];
  assert(frame.pins > 0 && "Unpin without a matching Fetch");
  SENN_PARANOID_CHECK(frame.pins > 0, "Unpin without a matching Fetch");
  if (frame.pins > 0) frame.pins -= 1;
}

void BufferPool::UnpinIfPinned(PageId id) {
  auto it = table_.find(id);
  if (it == table_.end()) return;
  Frame& frame = *frames_[it->second];
  if (frame.pins > 0) frame.pins -= 1;
}

uint32_t BufferPool::PinCount(PageId id) const {
  auto it = table_.find(id);
  return it == table_.end() ? 0 : frames_[it->second]->pins;
}

size_t BufferPool::pinned_pages() const {
  size_t n = 0;
  for (const std::unique_ptr<Frame>& frame : frames_) {
    if (frame->pins > 0) ++n;
  }
  return n;
}

size_t BufferPool::PickVictim() {
  return options_.policy == ReplacementPolicy::kLru ? PickVictimLru() : PickVictimClock();
}

size_t BufferPool::PickVictimLru() const {
  // Least recently fetched among the unpinned frames. Ticks are unique, so
  // the choice is total-ordered and deterministic.
  size_t victim = kNoFrame;
  uint64_t oldest = 0;
  for (size_t i = 0; i < frames_.size(); ++i) {
    const Frame& frame = *frames_[i];
    if (frame.pins > 0) continue;
    if (victim == kNoFrame || frame.last_use < oldest) {
      victim = i;
      oldest = frame.last_use;
    }
  }
  return victim;
}

size_t BufferPool::PickVictimClock() {
  // Two sweeps suffice: the first clears every unpinned frame's reference
  // bit, so the second must find a victim — unless every frame is pinned.
  const size_t n = frames_.size();
  for (size_t step = 0; step < 2 * n; ++step) {
    const size_t index = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % n;
    Frame& frame = *frames_[index];
    if (frame.pins > 0) continue;
    if (frame.referenced) {
      frame.referenced = false;
      continue;
    }
    return index;
  }
  return kNoFrame;
}

}  // namespace senn::storage
