#include "src/storage/node_pager.h"

#include <cassert>
#include <cstring>
#include <type_traits>

namespace senn::storage {

// A node's id is its page id.
static_assert(std::is_same_v<rtree::NodeId, PageId>);

namespace {

// Per-slot wire size: MBR (4 doubles) + the larger of the two slot bodies
// (leaf object: int64 id + 2 doubles). Index slots waste the difference —
// pages are fixed-size, slack is the point.
constexpr size_t kHeaderBytes = sizeof(uint32_t) * 2;
constexpr size_t kMbrBytes = sizeof(double) * 4;
constexpr size_t kBodyBytes = sizeof(int64_t) + sizeof(double) * 2;
constexpr size_t kSlotBytes = kMbrBytes + kBodyBytes;

size_t SlotOffset(size_t index) { return kHeaderBytes + index * kSlotBytes; }

void WriteBytes(Page* page, size_t offset, const void* src, size_t n) {
  assert(offset + n <= kPageSizeBytes);
  std::memcpy(page->data.data() + offset, src, n);
}

void ReadBytes(const Page& page, size_t offset, void* dst, size_t n) {
  assert(offset + n <= kPageSizeBytes);
  std::memcpy(dst, page.data.data() + offset, n);
}

}  // namespace

size_t SerializedNodeBytes(size_t slot_count) { return SlotOffset(slot_count); }

PageHeader ReadPageHeader(const Page& page) {
  PageHeader header;
  ReadBytes(page, 0, &header.level, sizeof(header.level));
  ReadBytes(page, sizeof(uint32_t), &header.slot_count, sizeof(header.slot_count));
  return header;
}

PageSlot ReadPageSlot(const Page& page, size_t index) {
  PageSlot slot;
  size_t offset = SlotOffset(index);
  double mbr[4];
  ReadBytes(page, offset, mbr, sizeof(mbr));
  slot.mbr.lo = {mbr[0], mbr[1]};
  slot.mbr.hi = {mbr[2], mbr[3]};
  offset += kMbrBytes;
  const PageHeader header = ReadPageHeader(page);
  if (header.level == 0) {
    ReadBytes(page, offset, &slot.object_id, sizeof(slot.object_id));
    ReadBytes(page, offset + sizeof(int64_t), &slot.object_x, sizeof(double));
    ReadBytes(page, offset + sizeof(int64_t) + sizeof(double), &slot.object_y,
              sizeof(double));
  } else {
    ReadBytes(page, offset, &slot.child, sizeof(slot.child));
  }
  return slot;
}

NodePager::NodePager(const rtree::PackedTree* tree, BufferPoolOptions options)
    : tree_(tree), pool_([&] {
        if (options.capacity_pages > 0 && options.capacity_pages < 2) {
          options.capacity_pages = 2;
        }
        return options;
      }()) {}

bool NodePager::Fetch(rtree::NodeId id) {
  BufferPool::FetchResult result = pool_.Fetch(id);
  if (result.page == nullptr) {
    // Every frame pinned — unreachable through the tree traversals (at most
    // two concurrent pins vs. the clamped minimum capacity of two), but a
    // hostile caller gets a degraded answer, not UB: treat the access as an
    // unbuffered physical read. Unpin() below tolerates the missing pin.
    assert(false && "buffer pool exhausted by pins");
    return true;
  }
  if (result.miss) Materialize(id, result.page);
  return result.miss;
}

void NodePager::Unpin(rtree::NodeId id) { pool_.UnpinIfPinned(id); }

void NodePager::Materialize(rtree::NodeId id, Page* page) const {
  const rtree::PackedTree::Node& node = tree_->node(id);
  assert(SerializedNodeBytes(node.count) <= kPageSizeBytes &&
         "node fan-out exceeds the fixed page size");
  const uint32_t level = static_cast<uint32_t>(node.level);
  WriteBytes(page, 0, &level, sizeof(level));
  WriteBytes(page, sizeof(uint32_t), &node.count, sizeof(node.count));
  auto write_mbr = [page](size_t offset, const geom::Mbr& mbr) {
    const double bytes[4] = {mbr.lo.x, mbr.lo.y, mbr.hi.x, mbr.hi.y};
    WriteBytes(page, offset, bytes, sizeof(bytes));
  };
  if (node.IsLeaf()) {
    size_t offset = SlotOffset(0);
    for (const rtree::ObjectEntry& o : tree_->objects(node)) {
      write_mbr(offset, geom::Mbr::OfPoint(o.position));
      WriteBytes(page, offset + kMbrBytes, &o.id, sizeof(int64_t));
      WriteBytes(page, offset + kMbrBytes + sizeof(int64_t), &o.position.x, sizeof(double));
      WriteBytes(page, offset + kMbrBytes + sizeof(int64_t) + sizeof(double),
                 &o.position.y, sizeof(double));
      offset += kSlotBytes;
    }
    return;
  }
  size_t offset = SlotOffset(0);
  for (const rtree::PackedTree::Branch& b : tree_->branches(node)) {
    write_mbr(offset, b.mbr);
    const PageId child = b.child;
    WriteBytes(page, offset + kMbrBytes, &child, sizeof(child));
    offset += kSlotBytes;
  }
}

}  // namespace senn::storage
