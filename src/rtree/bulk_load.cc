#include "src/rtree/bulk_load.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>

namespace senn::rtree {

namespace {

using Branch = PackedTree::Branch;

// A packed node before preorder numbering: a run of its level's items.
struct Run {
  uint32_t first = 0;
  uint32_t count = 0;
};

geom::Vec2 CenterOf(const ObjectEntry& o) { return geom::Mbr::OfPoint(o.position).Center(); }
geom::Vec2 CenterOf(const Branch& b) { return b.mbr.Center(); }

using detail::kSortChunk;

// A bucket of the distribution sort holding more items than this is
// stable-sorted by std::stable_sort instead of by insertion: its keys are
// clustered, and insertion would take quadratic time.
constexpr size_t kMaxInsertionBucket = 32;

// Stably merges the sorted runs [first, middle) and [middle, last) through
// `buffer`. A run that fits the buffer is moved there and merged back in
// one pass; when neither fits, the larger run is cut at its middle, the
// other at the matching bound, and the two inner pieces are rotated past
// each other so that each half merges on its own. Ties keep the left run
// first throughout, as std::stable_sort's merges do.
template <typename Item, typename Less>
void MergeRuns(Item* first, Item* middle, Item* last, std::span<Item> buffer, Less less) {
  const size_t len1 = static_cast<size_t>(middle - first);
  const size_t len2 = static_cast<size_t>(last - middle);
  if (len1 == 0 || len2 == 0) return;
  if (len1 <= len2 && len1 <= buffer.size()) {
    Item* left = buffer.data();
    Item* const left_end = std::move(first, middle, left);
    Item* right = middle;
    Item* out = first;
    while (left != left_end && right != last) {
      *out++ = less(*right, *left) ? std::move(*right++) : std::move(*left++);
    }
    std::move(left, left_end, out);
  } else if (len2 <= buffer.size()) {
    Item* const right_begin = buffer.data();
    Item* right = std::move(middle, last, right_begin);
    Item* left = middle;
    Item* out = last;
    while (left != first && right != right_begin) {
      *--out = less(*(right - 1), *(left - 1)) ? std::move(*--left) : std::move(*--right);
    }
    std::move_backward(right_begin, right, out);
  } else {
    Item* first_cut;
    Item* second_cut;
    if (len1 > len2) {
      first_cut = first + len1 / 2;
      second_cut = std::lower_bound(middle, last, *first_cut, less);
    } else {
      second_cut = middle + len2 / 2;
      first_cut = std::upper_bound(first, middle, *second_cut, less);
    }
    Item* const new_middle = std::rotate(first_cut, middle, second_cut);
    MergeRuns(first, first_cut, new_middle, buffer, less);
    MergeRuns(new_middle, second_cut, last, buffer, less);
  }
}

// std::stable_sort by one coordinate of the items' MBR centers, with scratch
// bounded by one chunk: chunks of kSortChunk items are bucket-sorted through
// one chunk-sized buffer, then merged bottom-up, neighbors in order, through
// that same buffer. A stable sort's result is unique (ties in input order;
// -0.0 and +0.0 tie under "<"), so this is exactly the order std::stable_sort
// gives. One sorter serves a whole level: the x sort and every slab's y sort.
template <typename Item>
class BoundedStableSorter {
 public:
  // Scratch for sorting spans of up to `n` items.
  explicit BoundedStableSorter(size_t n)
      : buffer_(std::min(n, kSortChunk)), bucket_ends_(buffer_.size() + 1) {}

  // Sorts by CenterOf(item).*axis, &geom::Vec2::x or &geom::Vec2::y.
  void Sort(std::span<Item> items, double geom::Vec2::*axis) {
    const auto key = [axis](const Item& item) { return CenterOf(item).*axis; };
    const auto less = [&key](const Item& a, const Item& b) { return key(a) < key(b); };
    const size_t n = items.size();
    for (size_t begin = 0; begin < n; begin += kSortChunk) {
      SortChunk(items.subspan(begin, std::min(kSortChunk, n - begin)), key, less);
    }
    Item* const base = items.data();
    for (size_t width = kSortChunk; width < n; width *= 2) {
      for (size_t begin = 0; begin + width < n; begin += 2 * width) {
        MergeRuns(base + begin, base + begin + width, base + std::min(begin + 2 * width, n),
                  std::span<Item>(buffer_), less);
      }
    }
  }

 private:
  // Distributes the chunk's n items into n buckets by
  // (key - lo) * (n / (hi - lo)), then stable-sorts each bucket on its way
  // back. IEEE subtraction of a constant and multiplication by a positive
  // constant are monotone, so a lower bucket's keys are never greater, and
  // keys that tie under "<" (the two zeros too) share a bucket: bucket
  // order plus stable order within buckets is std::stable_sort's order.
  // A NaN key, or a range or scale that is not finite (infinite keys, keys
  // spanning more than DBL_MAX, a range so small that n / range overflows,
  // or every key tied), leaves no such map; such a chunk is
  // std::stable_sort'ed whole.
  template <typename Key, typename Less>
  void SortChunk(std::span<Item> chunk, Key key, Less less) {
    const size_t n = chunk.size();
    if (n < 2) return;
    double lo = key(chunk[0]);
    double hi = lo;
    bool has_nan = false;
    for (const Item& item : chunk) {
      const double k = key(item);
      has_nan |= std::isnan(k);
      lo = std::min(lo, k);
      hi = std::max(hi, k);
    }
    const double range = hi - lo;
    const double scale = static_cast<double>(n) / range;
    if (has_nan || !std::isfinite(range) || !std::isfinite(scale)) {
      std::stable_sort(chunk.begin(), chunk.end(), less);
      return;
    }
    // The largest key maps to about n; clamping in double keeps the cast
    // in range.
    const double top = static_cast<double>(n - 1);
    const auto bucket = [&](const Item& item) {
      return static_cast<size_t>(std::min((key(item) - lo) * scale, top));
    };

    // ends[b + 1] counts bucket b; the prefix sums turn ends[b] into bucket
    // b's first slot, and scattering advances it to bucket b's end.
    std::span<uint32_t> ends(bucket_ends_.data(), n + 1);
    std::fill(ends.begin(), ends.end(), 0);
    for (const Item& item : chunk) ++ends[bucket(item) + 1];
    for (size_t b = 1; b < n; ++b) ends[b] += ends[b - 1];
    for (Item& item : chunk) buffer_[ends[bucket(item)]++] = std::move(item);

    Item* const in = buffer_.data();
    Item* const out = chunk.data();
    size_t begin = 0;
    for (size_t b = 0; b < n; ++b) {
      const size_t end = ends[b];
      if (end - begin > kMaxInsertionBucket) {
        std::move(in + begin, in + end, out + begin);
        std::stable_sort(out + begin, out + end, less);
      } else {
        for (size_t i = begin; i < end; ++i) {
          size_t j = i;
          for (; j > begin && less(in[i], out[j - 1]); --j) out[j] = std::move(out[j - 1]);
          out[j] = std::move(in[i]);
        }
      }
      begin = end;
    }
  }

  std::vector<Item> buffer_;
  std::vector<uint32_t> bucket_ends_;
};

// Splits `count` items into groups of at most `cap`, rebalancing the tail so
// every group has at least `min_size` (requires cap >= 2 * min_size, which
// the RStarTree options clamp guarantees). Returns the group sizes.
std::vector<size_t> GroupSizes(size_t count, size_t cap, size_t min_size) {
  std::vector<size_t> sizes;
  size_t remaining = count;
  while (remaining > 0) {
    size_t take = std::min(cap, remaining);
    sizes.push_back(take);
    remaining -= take;
  }
  if (sizes.size() >= 2 && sizes.back() < min_size) {
    size_t need = min_size - sizes.back();
    sizes[sizes.size() - 2] -= need;
    sizes.back() += need;
  }
  return sizes;
}

// Packs `items` (all at the same level) into nodes with STR: sort by center
// x, slice, sort slices by center y, cut runs. Items are ObjectEntry at the
// leaf level and Branch above, so every level goes through this one packer.
// The items are sorted in place; each returned run is one node, in packing
// order.
template <typename Item>
std::vector<Run> PackLevel(std::vector<Item>& items, const RStarTree::Options& options) {
  const size_t cap = static_cast<size_t>(options.max_entries);
  const size_t min_size = static_cast<size_t>(options.min_entries);
  const size_t n = items.size();
  const size_t node_count = (n + cap - 1) / cap;
  const size_t slices = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(node_count))));
  const size_t slice_size = (n + slices - 1) / slices;

  // Stable: co-located items keep their input order (object input order at
  // the leaf level, child packing order above), so the packing is a pure
  // function of the input sequence even for duplicate coordinates (lattice
  // worlds).
  BoundedStableSorter<Item> sorter(n);
  sorter.Sort(std::span<Item>(items), &geom::Vec2::x);

  std::vector<Run> runs;
  runs.reserve(node_count);
  size_t begin = 0;
  while (begin < n) {
    size_t end = std::min(begin + slice_size, n);
    // Absorb a tail slice too small to form a legal node.
    if (n - end > 0 && n - end < min_size) end = n;
    sorter.Sort(std::span<Item>(items).subspan(begin, end - begin), &geom::Vec2::y);
    size_t cursor = begin;
    for (size_t take : GroupSizes(end - begin, cap, min_size)) {
      runs.push_back({static_cast<uint32_t>(cursor), static_cast<uint32_t>(take)});
      cursor += take;
    }
    begin = end;
  }
  return runs;
}

template <typename Item>
std::span<const Item> Items(const std::vector<Item>& items, Run run) {
  return std::span<const Item>(items).subspan(run.first, run.count);
}

}  // namespace

void detail::StableSortByCenter(std::span<ObjectEntry> items, double geom::Vec2::*axis) {
  BoundedStableSorter<ObjectEntry>(items.size()).Sort(items, axis);
}

PackedTree BulkLoadPacked(std::vector<ObjectEntry> objects, RStarTree::Options options) {
  PackedTree tree;
  tree.options_ = RStarTree::ClampOptions(options);
  const size_t n = objects.size();
  if (n <= static_cast<size_t>(tree.options_.max_entries)) {
    // One leaf in input order: the tree n inserts build.
    tree.nodes_.front().count = static_cast<uint32_t>(n);
    tree.objects_ = std::move(objects);
    return tree;
  }

  // runs[l] holds the level-l nodes in packing order; branches[l - 1] the
  // sorted level-l items, whose `child` indexes runs[l - 1] until the
  // preorder walk below renumbers it.
  std::vector<std::vector<Run>> runs{PackLevel(objects, tree.options_)};
  std::vector<std::vector<Branch>> branches;
  while (runs.back().size() > 1) {
    const std::vector<Run>& below = runs.back();
    std::vector<Branch> items;
    items.reserve(below.size());
    for (size_t i = 0; i < below.size(); ++i) {
      const geom::Mbr mbr = branches.empty() ? MbrOf(Items(objects, below[i]))
                                             : MbrOf(Items(branches.back(), below[i]));
      items.push_back({mbr, static_cast<NodeId>(i)});
    }
    runs.push_back(PackLevel(items, tree.options_));
    branches.push_back(std::move(items));
  }

  // Preorder numbering (the NodePager's page order): a node's id is taken
  // before its children's, and an index node's branches are laid out as one
  // run, filled in as its children receive their ids.
  tree.nodes_.clear();
  auto emit = [&](auto& self, size_t level, uint32_t index) -> NodeId {
    const Run run = runs[level][index];
    const NodeId id = static_cast<NodeId>(tree.nodes_.size());
    tree.nodes_.push_back({run.first, run.count, static_cast<int32_t>(level)});
    if (level == 0) return id;
    const uint32_t first = static_cast<uint32_t>(tree.branches_.size());
    tree.nodes_[id].first = first;
    tree.branches_.resize(first + run.count);
    for (uint32_t i = 0; i < run.count; ++i) {
      const Branch& src = branches[level - 1][run.first + i];
      const NodeId child = self(self, level - 1, src.child);
      tree.branches_[first + i] = {src.mbr, child};
    }
    return id;
  };
  emit(emit, runs.size() - 1, 0);
  tree.objects_ = std::move(objects);
  return tree;
}

}  // namespace senn::rtree
