// A buffer pool over fixed-size pages with pin/unpin semantics and
// pluggable replacement (LRU, CLOCK). It models page residency only: a
// frame records which page it holds, its pins and its CLOCK bit, never the
// page's bytes (the packed tree is the one copy of every node). Its outputs
// are the hit, miss, eviction and pin counts.
//
// Single-threaded by design: the spatial server processes one query at a
// time per simulation, and the sweep engine isolates whole simulations per
// worker, so the pool needs no locking (ASan/TSan stages of tools/check.sh
// run the storage tests to keep this honest). When a multi-threaded caller
// sits above (the rpc server's event loops), synchronization is EXTERNAL:
// rpc::QueryService::mu_ is the documented serialization boundary, and its
// GUARDED_BY annotations (src/common/thread_annotations.h) plus the
// senn_lint L9 lock-discipline rule keep every Fetch inside that critical
// section rather than adding a second lock layer here.
//
// Determinism: eviction decisions depend only on the fetch/unpin sequence —
// LRU recency is an intrusive list of frame indices that every fetch moves
// its frame to the back of, CLOCK sweeps frames by index, and no hash-map
// iteration order ever reaches a decision — so a simulation with a bounded
// pool remains a pure function of its config. The LRU victim is the first
// unpinned frame from the front of the list: the least recently fetched
// unpinned frame, found after skipping only the (few, transiently) pinned
// ones.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "src/storage/page.h"

namespace senn::storage {

class BufferPool {
 public:
  explicit BufferPool(BufferPoolOptions options);
  /// Paranoid builds verify pin balance here: every Fetch must have been
  /// matched by an Unpin before the pool is torn down.
  ~BufferPool();

  /// Outcome of a Fetch.
  struct FetchResult {
    /// False when the pool is at capacity with every frame pinned: nothing
    /// was pinned and nothing is charged.
    bool pinned = false;
    /// True when the page was not resident (a physical page read).
    bool miss = false;
  };

  /// Pins page `id`, faulting it into a frame on a miss. A miss on a full
  /// pool evicts one unpinned resident page chosen by the replacement
  /// policy.
  FetchResult Fetch(PageId id);

  /// Releases one pin of a resident page. Fetch/Unpin calls must pair.
  void Unpin(PageId id);
  /// Releases one pin of `id` if it holds one; a page that is unpinned or
  /// not resident is left alone. One table lookup (Unpin's pairing checks
  /// do not apply: the caller tolerates a fetch that never pinned).
  void UnpinIfPinned(PageId id);

  bool Resident(PageId id) const { return table_.find(id) != table_.end(); }
  /// Pin count of a page (0 when unpinned or not resident).
  uint32_t PinCount(PageId id) const;
  size_t resident_pages() const { return table_.size(); }
  size_t pinned_pages() const;

  const BufferPoolOptions& options() const { return options_; }
  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferPoolStats{}; }

 private:
  struct Frame {
    PageId id = kInvalidPageId;
    uint32_t pins = 0;
    bool referenced = false;  // CLOCK second-chance bit
  };
  static constexpr size_t kNoFrame = static_cast<size_t>(-1);
  /// A frame's neighbors in the recency list (kNoFrame at either end).
  struct RecencyLink {
    size_t prev = kNoFrame;
    size_t next = kNoFrame;
  };

  /// Index of the frame to evict, or kNoFrame when every frame is pinned.
  size_t PickVictim();
  size_t PickVictimLru() const;
  size_t PickVictimClock();
  /// Moves frame `index` (appended when it is not yet listed) to the most
  /// recent end of the recency list.
  void Touch(size_t index);

  BufferPoolOptions options_;
  BufferPoolStats stats_;
  std::vector<Frame> frames_;
  std::unordered_map<PageId, size_t> table_;  // page id -> frame index
  size_t clock_hand_ = 0;
  // Recency list over frame indices, least recently fetched first.
  std::vector<RecencyLink> recency_;
  size_t least_recent_ = kNoFrame;
  size_t most_recent_ = kNoFrame;
};

}  // namespace senn::storage
