#include "src/storage/node_pager.h"

#include <cassert>
#include <cstring>

namespace senn::storage {

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

NodePager::NodePager(const rtree::RStarTree* tree, BufferPoolOptions options)
    : pool_([&] {
        if (options.capacity_pages > 0 && options.capacity_pages < 2) {
          options.capacity_pages = 2;
        }
        return options;
      }()) {
  RegisterSubtree(tree->root());
}

void NodePager::RegisterSubtree(const rtree::RStarTree::Node* node) {
  page_of_.emplace(node, static_cast<PageId>(page_of_.size()));
  if (node->IsLeaf()) return;
  for (const rtree::RStarTree::Slot& slot : node->slots) {
    RegisterSubtree(slot.child.get());
  }
}

PageId NodePager::PageOf(const rtree::RStarTree::Node* node) {
  auto [it, inserted] = page_of_.emplace(node, static_cast<PageId>(page_of_.size()));
  return it->second;
}

bool NodePager::Fetch(const rtree::RStarTree::Node* node) {
  const PageId id = PageOf(node);
  BufferPool::FetchResult result = pool_.Fetch(id);
  if (result.page == nullptr) {
    // Every frame pinned — unreachable through the tree traversals (at most
    // two concurrent pins vs. the clamped minimum capacity of two), but a
    // hostile caller gets a degraded answer, not UB: treat the access as an
    // unbuffered physical read. Unpin() below tolerates the missing pin.
    assert(false && "buffer pool exhausted by pins");
    return true;
  }
  if (result.miss) Materialize(node, result.page);
  return result.miss;
}

void NodePager::Unpin(const rtree::RStarTree::Node* node) {
  pool_.UnpinIfPinned(PageOf(node));
}

void NodePager::Materialize(const rtree::RStarTree::Node* node, Page* page) {
  assert(SerializedNodeBytes(node->slots.size()) <= kPageSizeBytes &&
         "node fan-out exceeds the fixed page size");
  const uint32_t level = static_cast<uint32_t>(node->level);
  const uint32_t slot_count = static_cast<uint32_t>(node->slots.size());
  WriteBytes(page, 0, &level, sizeof(level));
  WriteBytes(page, sizeof(uint32_t), &slot_count, sizeof(slot_count));
  for (size_t i = 0; i < node->slots.size(); ++i) {
    const rtree::RStarTree::Slot& slot = node->slots[i];
    size_t offset = SlotOffset(i);
    const double mbr[4] = {slot.mbr.lo.x, slot.mbr.lo.y, slot.mbr.hi.x, slot.mbr.hi.y};
    WriteBytes(page, offset, mbr, sizeof(mbr));
    offset += kMbrBytes;
    if (node->IsLeaf()) {
      WriteBytes(page, offset, &slot.object.id, sizeof(int64_t));
      WriteBytes(page, offset + sizeof(int64_t), &slot.object.position.x, sizeof(double));
      WriteBytes(page, offset + sizeof(int64_t) + sizeof(double), &slot.object.position.y,
                 sizeof(double));
    } else {
      const PageId child = PageOf(slot.child.get());
      WriteBytes(page, offset, &child, sizeof(child));
    }
  }
}

}  // namespace senn::storage
