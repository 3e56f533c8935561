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
    Frame& frame = frames_[it->second];
    frame.pins += 1;
    frame.referenced = true;
    Touch(it->second);
    ++stats_.logical;
    ++stats_.hits;
    return {true, false};
  }

  // Miss: find a frame — grow while below capacity (or unbounded), evict
  // otherwise.
  size_t index;
  if (options_.capacity_pages == 0 || frames_.size() < options_.capacity_pages) {
    frames_.emplace_back();
    recency_.emplace_back();
    index = frames_.size() - 1;
  } else {
    index = PickVictim();
    if (index == kNoFrame) return {false, false};  // every frame pinned
    table_.erase(frames_[index].id);
    ++stats_.evictions;
  }
  Frame& frame = frames_[index];
  frame.id = id;
  frame.pins = 1;
  frame.referenced = true;
  Touch(index);
  table_[id] = index;
  ++stats_.logical;
  ++stats_.misses;
  return {true, true};
}

void BufferPool::Unpin(PageId id) {
  auto it = table_.find(id);
  assert(it != table_.end() && "Unpin of a non-resident page");
  SENN_PARANOID_CHECK(it != table_.end(), "Unpin of a non-resident page");
  if (it == table_.end()) return;
  Frame& frame = frames_[it->second];
  assert(frame.pins > 0 && "Unpin without a matching Fetch");
  SENN_PARANOID_CHECK(frame.pins > 0, "Unpin without a matching Fetch");
  if (frame.pins > 0) frame.pins -= 1;
}

void BufferPool::UnpinIfPinned(PageId id) {
  auto it = table_.find(id);
  if (it == table_.end()) return;
  Frame& frame = frames_[it->second];
  if (frame.pins > 0) frame.pins -= 1;
}

uint32_t BufferPool::PinCount(PageId id) const {
  auto it = table_.find(id);
  return it == table_.end() ? 0 : frames_[it->second].pins;
}

size_t BufferPool::pinned_pages() const {
  size_t n = 0;
  for (const Frame& frame : frames_) {
    if (frame.pins > 0) ++n;
  }
  return n;
}

size_t BufferPool::PickVictim() {
  return options_.policy == ReplacementPolicy::kLru ? PickVictimLru() : PickVictimClock();
}

size_t BufferPool::PickVictimLru() const {
  // Least recently fetched among the unpinned frames: the first unpinned
  // frame from the least recent end.
  for (size_t i = least_recent_; i != kNoFrame; i = recency_[i].next) {
    if (frames_[i].pins == 0) return i;
  }
  return kNoFrame;
}

void BufferPool::Touch(size_t index) {
  if (index == most_recent_) return;
  RecencyLink& link = recency_[index];
  // Unlink (a frame fresh from growth has no neighbors and is not the
  // least recent one, so this is a no-op for it).
  if (link.prev != kNoFrame) recency_[link.prev].next = link.next;
  if (link.next != kNoFrame) recency_[link.next].prev = link.prev;
  if (least_recent_ == index) least_recent_ = link.next;
  // Append at the most recent end.
  link.prev = most_recent_;
  link.next = kNoFrame;
  if (most_recent_ != kNoFrame) recency_[most_recent_].next = index;
  most_recent_ = index;
  if (least_recent_ == kNoFrame) least_recent_ = index;
}

size_t BufferPool::PickVictimClock() {
  // Two sweeps suffice: the first clears every unpinned frame's reference
  // bit, so the second must find a victim — unless every frame is pinned.
  const size_t n = frames_.size();
  for (size_t step = 0; step < 2 * n; ++step) {
    const size_t index = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % n;
    Frame& frame = frames_[index];
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
