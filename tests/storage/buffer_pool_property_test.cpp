// Property tests for the buffer pool: random fetch/pin/unpin traces are
// replayed against an independently written reference-model simulator, and
// the two must agree on EVERY observable — hit/miss of each fetch, the
// resident set, and per-page pin counts — plus the pool invariants:
//
//   * a pinned page is never evicted,
//   * hits + misses == logical accesses,
//   * the resident set never exceeds the configured capacity,
//   * LRU / CLOCK victim choices match the reference policies exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/storage/buffer_pool.h"

namespace senn::storage {
namespace {

// Straight-line reference model: linear scans, no hash tables, no shared
// code with the implementation beyond the options struct.
class ReferencePool {
 public:
  explicit ReferencePool(BufferPoolOptions options) : options_(options) {}

  struct Result {
    bool ok = false;    // false: every frame pinned, nothing happened
    bool miss = false;
  };

  Result Fetch(PageId id) {
    for (Frame& f : frames_) {
      if (f.id == id) {
        f.pins += 1;
        f.referenced = true;
        f.last_use = ++tick_;
        return {true, false};
      }
    }
    size_t index;
    if (options_.capacity_pages == 0 || frames_.size() < options_.capacity_pages) {
      frames_.push_back(Frame{});
      index = frames_.size() - 1;
    } else {
      index = options_.policy == ReplacementPolicy::kLru ? LruVictim() : ClockVictim();
      if (index == kNone) return {false, false};
      ++evictions_;
    }
    Frame& f = frames_[index];
    f.id = id;
    f.pins = 1;
    f.referenced = true;
    f.last_use = ++tick_;
    return {true, true};
  }

  void Unpin(PageId id) {
    for (Frame& f : frames_) {
      if (f.id == id && f.pins > 0) {
        f.pins -= 1;
        return;
      }
    }
    FAIL() << "reference Unpin of page " << id << " without a pin";
  }

  bool Resident(PageId id) const {
    for (const Frame& f : frames_) {
      if (f.id == id) return true;
    }
    return false;
  }

  uint32_t PinCount(PageId id) const {
    for (const Frame& f : frames_) {
      if (f.id == id) return f.pins;
    }
    return 0;
  }

  size_t resident_pages() const { return frames_.size(); }
  uint64_t evictions() const { return evictions_; }

 private:
  struct Frame {
    PageId id = kInvalidPageId;
    uint32_t pins = 0;
    bool referenced = false;
    uint64_t last_use = 0;
  };
  static constexpr size_t kNone = static_cast<size_t>(-1);

  size_t LruVictim() const {
    size_t victim = kNone;
    for (size_t i = 0; i < frames_.size(); ++i) {
      if (frames_[i].pins > 0) continue;
      if (victim == kNone || frames_[i].last_use < frames_[victim].last_use) victim = i;
    }
    return victim;
  }

  size_t ClockVictim() {
    const size_t n = frames_.size();
    for (size_t step = 0; step < 2 * n; ++step) {
      const size_t i = hand_;
      hand_ = (hand_ + 1) % n;
      if (frames_[i].pins > 0) continue;
      if (frames_[i].referenced) {
        frames_[i].referenced = false;
        continue;
      }
      return i;
    }
    return kNone;
  }

  BufferPoolOptions options_;
  std::vector<Frame> frames_;
  size_t hand_ = 0;
  uint64_t tick_ = 0;
  uint64_t evictions_ = 0;
};

void RunRandomTrace(ReplacementPolicy policy, size_t capacity, uint64_t seed) {
  SCOPED_TRACE(std::string("policy=") + ReplacementPolicyName(policy) +
               " capacity=" + std::to_string(capacity) + " seed=" + std::to_string(seed));
  BufferPoolOptions options;
  options.capacity_pages = capacity;
  options.policy = policy;
  BufferPool pool(options);
  ReferencePool ref(options);

  Rng rng(seed);
  constexpr uint32_t kUniverse = 37;
  std::vector<PageId> pinned;  // one entry per outstanding pin

  for (int step = 0; step < 3000; ++step) {
    // Bias toward fetches but keep the pin population bounded so bounded
    // pools regularly exercise eviction, not just pin exhaustion.
    const bool fetch = pinned.empty() || (pinned.size() < 6 && rng.Bernoulli(0.6));
    if (fetch) {
      const PageId id = static_cast<PageId>(rng.NextIndex(kUniverse));
      const ReferencePool::Result expected = ref.Fetch(id);
      const BufferPool::FetchResult actual = pool.Fetch(id);
      ASSERT_EQ(expected.ok, actual.pinned) << "step " << step << " page " << id;
      if (expected.ok) {
        ASSERT_EQ(expected.miss, actual.miss) << "step " << step << " page " << id;
        pinned.push_back(id);
      }
    } else {
      const size_t i = static_cast<size_t>(rng.NextIndex(pinned.size()));
      const PageId id = pinned[i];
      pinned[i] = pinned.back();
      pinned.pop_back();
      ref.Unpin(id);
      pool.Unpin(id);
    }

    // Invariants.
    const BufferPoolStats& st = pool.stats();
    ASSERT_EQ(st.logical, st.hits + st.misses);
    if (capacity > 0) {
      ASSERT_LE(pool.resident_pages(), capacity);
    }
    for (PageId id : pinned) {
      ASSERT_TRUE(pool.Resident(id)) << "pinned page " << id << " was evicted";
      ASSERT_GE(pool.PinCount(id), 1u);
    }

    // Full observable-state equivalence with the reference model.
    ASSERT_EQ(ref.resident_pages(), pool.resident_pages());
    ASSERT_EQ(ref.evictions(), st.evictions);
    for (uint32_t id = 0; id < kUniverse; ++id) {
      ASSERT_EQ(ref.Resident(id), pool.Resident(id)) << "step " << step << " page " << id;
      ASSERT_EQ(ref.PinCount(id), pool.PinCount(id)) << "step " << step << " page " << id;
    }
  }

  // Balance every pin: the paranoid teardown check treats leaked pins as a
  // bug (a leaked pin in production permanently shrinks the pool).
  for (PageId id : pinned) {
    ref.Unpin(id);
    pool.Unpin(id);
  }
}

TEST(BufferPoolPropertyTest, RandomTracesMatchReferenceModel) {
  for (ReplacementPolicy policy : {ReplacementPolicy::kLru, ReplacementPolicy::kClock}) {
    for (size_t capacity : {size_t{2}, size_t{3}, size_t{7}, size_t{16}, size_t{0}}) {
      for (uint64_t seed : {11ull, 223ull, 4241ull, 900001ull}) {
        RunRandomTrace(policy, capacity, seed);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(BufferPoolPropertyTest, FetchFailsOnlyWhenEveryFrameIsPinned) {
  BufferPoolOptions options;
  options.capacity_pages = 2;
  BufferPool pool(options);
  ASSERT_TRUE(pool.Fetch(0).pinned);
  ASSERT_TRUE(pool.Fetch(1).pinned);
  // Both frames pinned: a third page cannot be faulted in and nothing may
  // be charged for the failed attempt.
  const BufferPoolStats before = pool.stats();
  BufferPool::FetchResult r = pool.Fetch(2);
  EXPECT_FALSE(r.pinned);
  EXPECT_FALSE(r.miss);
  EXPECT_EQ(pool.stats().logical, before.logical);
  EXPECT_EQ(pool.stats().misses, before.misses);
  // Releasing one pin makes the fetch succeed by evicting the unpinned page.
  pool.Unpin(0);
  r = pool.Fetch(2);
  ASSERT_TRUE(r.pinned);
  EXPECT_TRUE(r.miss);
  EXPECT_FALSE(pool.Resident(0));
  EXPECT_TRUE(pool.Resident(1));
  // Balance every pin: the paranoid teardown check treats leaked pins as a
  // bug (a leaked pin in production permanently shrinks the pool).
  pool.Unpin(1);
  pool.Unpin(2);
}

TEST(BufferPoolPropertyTest, UnboundedPoolNeverEvicts) {
  BufferPool pool(BufferPoolOptions{});  // capacity 0 = unbounded
  constexpr PageId kPages = 500;
  for (PageId id = 0; id < kPages; ++id) {
    BufferPool::FetchResult r = pool.Fetch(id);
    ASSERT_TRUE(r.pinned);
    EXPECT_TRUE(r.miss);
    pool.Unpin(id);
  }
  for (PageId id = 0; id < kPages; ++id) {
    BufferPool::FetchResult r = pool.Fetch(id);
    ASSERT_TRUE(r.pinned);
    EXPECT_FALSE(r.miss) << "page " << id;
    pool.Unpin(id);
  }
  EXPECT_EQ(pool.stats().evictions, 0u);
  EXPECT_EQ(pool.resident_pages(), static_cast<size_t>(kPages));
  EXPECT_EQ(pool.stats().hits, static_cast<uint64_t>(kPages));
  EXPECT_EQ(pool.stats().misses, static_cast<uint64_t>(kPages));
}

// A frame reused by an eviction carries nothing of the page it held: the
// new page starts with exactly one pin and a fresh CLOCK reference bit, and
// the old page is gone from the pool.
TEST(BufferPoolPropertyTest, EvictedFrameStartsFreshOnReuse) {
  BufferPoolOptions options;
  options.capacity_pages = 2;
  options.policy = ReplacementPolicy::kClock;
  BufferPool pool(options);
  // Page 0 is pinned twice and released, so its frame has held pins.
  ASSERT_TRUE(pool.Fetch(0).pinned);
  ASSERT_TRUE(pool.Fetch(0).pinned);
  pool.Unpin(0);
  pool.Unpin(0);
  ASSERT_TRUE(pool.Fetch(1).pinned);
  pool.Unpin(1);
  // The sweep clears both reference bits, then evicts page 0's frame.
  BufferPool::FetchResult r = pool.Fetch(2);
  ASSERT_TRUE(r.pinned);
  ASSERT_TRUE(r.miss);
  EXPECT_FALSE(pool.Resident(0));
  EXPECT_EQ(pool.PinCount(0), 0u);
  EXPECT_EQ(pool.PinCount(2), 1u);
  EXPECT_EQ(pool.pinned_pages(), 1u);
  pool.Unpin(2);
  EXPECT_EQ(pool.PinCount(2), 0u);
  // Page 2's reference bit is set, page 1's was cleared by the sweep: the
  // next miss takes page 1's frame and gives page 2 its second chance.
  r = pool.Fetch(3);
  ASSERT_TRUE(r.pinned);
  ASSERT_TRUE(r.miss);
  EXPECT_FALSE(pool.Resident(1));
  EXPECT_TRUE(pool.Resident(2));
  EXPECT_EQ(pool.stats().evictions, 2u);
  // Re-fetching the evicted page is a miss, not a stale hit.
  pool.Unpin(3);
  r = pool.Fetch(0);
  ASSERT_TRUE(r.pinned);
  EXPECT_TRUE(r.miss);
  EXPECT_EQ(pool.PinCount(0), 1u);
  pool.Unpin(0);
}

// LRU is a stack algorithm: for one fixed reference string, the resident set
// of a k-frame pool is a subset of the (k+1)-frame pool's (inclusion
// property), so hits are monotone non-decreasing in capacity. This is the
// property the bench sweep's acceptance rests on; CLOCK offers no such
// guarantee and is deliberately absent here.
TEST(BufferPoolPropertyTest, LruHitCountMonotoneInCapacity) {
  for (uint64_t seed : {5ull, 77ull, 31337ull}) {
    Rng rng(seed);
    std::vector<PageId> trace;
    for (int i = 0; i < 2000; ++i) {
      trace.push_back(static_cast<PageId>(rng.NextIndex(64)));
    }
    uint64_t previous_hits = 0;
    for (size_t capacity : {size_t{2}, size_t{4}, size_t{8}, size_t{16}, size_t{32},
                            size_t{64}, size_t{0}}) {
      BufferPoolOptions options;
      options.capacity_pages = capacity;
      options.policy = ReplacementPolicy::kLru;
      BufferPool pool(options);
      for (PageId id : trace) {
        ASSERT_TRUE(pool.Fetch(id).pinned);
        pool.Unpin(id);
      }
      EXPECT_GE(pool.stats().hits, previous_hits)
          << "seed " << seed << " capacity " << capacity;
      previous_hits = pool.stats().hits;
    }
  }
}

TEST(BufferPoolPropertyTest, ResetStatsKeepsResidency) {
  BufferPoolOptions options;
  options.capacity_pages = 4;
  BufferPool pool(options);
  for (PageId id = 0; id < 4; ++id) {
    ASSERT_TRUE(pool.Fetch(id).pinned);
    pool.Unpin(id);
  }
  pool.ResetStats();
  EXPECT_EQ(pool.stats().logical, 0u);
  EXPECT_EQ(pool.resident_pages(), 4u);  // a warmed pool stays warm
  BufferPool::FetchResult r = pool.Fetch(2);
  ASSERT_TRUE(r.pinned);
  EXPECT_FALSE(r.miss);
  pool.Unpin(2);
}

TEST(BufferPoolPropertyTest, UnpinIfPinnedReleasesOnlyAHeldPin) {
  BufferPoolOptions options;
  options.capacity_pages = 2;
  BufferPool pool(options);
  pool.UnpinIfPinned(7);  // never fetched: a no-op, nothing becomes resident
  EXPECT_FALSE(pool.Resident(7));
  ASSERT_TRUE(pool.Fetch(1).pinned);
  ASSERT_TRUE(pool.Fetch(1).pinned);
  EXPECT_EQ(pool.PinCount(1), 2u);
  pool.UnpinIfPinned(1);
  EXPECT_EQ(pool.PinCount(1), 1u);
  pool.UnpinIfPinned(1);
  EXPECT_EQ(pool.PinCount(1), 0u);
  pool.UnpinIfPinned(1);  // resident but unpinned: stays resident at zero pins
  EXPECT_EQ(pool.PinCount(1), 0u);
  EXPECT_TRUE(pool.Resident(1));
  EXPECT_EQ(pool.stats().logical, 2u);  // releasing pins is not an access
}

}  // namespace
}  // namespace senn::storage
