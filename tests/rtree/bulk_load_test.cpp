#include "src/rtree/bulk_load.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>

#include "src/common/rng.h"
#include "src/rtree/knn.h"

namespace senn::rtree {
namespace {

using geom::Vec2;

std::vector<ObjectEntry> MakeRandomObjects(int n, Rng* rng, double extent = 1000.0) {
  std::vector<ObjectEntry> objs;
  for (int i = 0; i < n; ++i) {
    objs.push_back({{rng->Uniform(0, extent), rng->Uniform(0, extent)}, i});
  }
  return objs;
}

// The ids in every leaf of `tree`.
std::multiset<int64_t> LeafIds(const PackedTree& tree) {
  std::multiset<int64_t> ids;
  for (NodeId id = 0; id < tree.node_count(); ++id) {
    const PackedTree::Node& node = tree.node(id);
    if (!node.IsLeaf()) continue;
    for (const ObjectEntry& o : tree.objects(node)) ids.insert(o.id);
  }
  return ids;
}

size_t LeafCount(const PackedTree& tree) {
  size_t leaves = 0;
  for (NodeId id = 0; id < tree.node_count(); ++id) leaves += tree.node(id).IsLeaf();
  return leaves;
}

TEST(BulkLoadTest, EmptyInput) {
  const PackedTree tree = BulkLoadPacked({});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(BulkLoadTest, SmallInputFallsBackToInserts) {
  Rng rng(1);
  const PackedTree tree = BulkLoadPacked(MakeRandomObjects(20, &rng));
  EXPECT_EQ(tree.size(), 20u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

class BulkLoadSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(BulkLoadSizeTest, InvariantsAndCompleteness) {
  Rng rng(100 + GetParam());
  int n = GetParam();
  std::vector<ObjectEntry> objs = MakeRandomObjects(n, &rng);
  const PackedTree tree = BulkLoadPacked(objs);
  EXPECT_EQ(tree.size(), static_cast<size_t>(n));
  ASSERT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants().ToString();
  std::multiset<int64_t> expected;
  for (const ObjectEntry& o : objs) expected.insert(o.id);
  EXPECT_EQ(LeafIds(tree), expected);
}

// Sizes straddling node-capacity boundaries (cap 30, min 12) including the
// awkward tails that force slice/group rebalancing.
INSTANTIATE_TEST_SUITE_P(Sizes, BulkLoadSizeTest,
                         ::testing::Values(31, 60, 61, 89, 97, 300, 901, 4050, 12345));

TEST(BulkLoadTest, QueriesMatchIncrementalTree) {
  Rng rng(2);
  std::vector<ObjectEntry> objs = MakeRandomObjects(3000, &rng);
  const PackedTree packed_bulk = BulkLoadPacked(objs);
  RStarTree incremental;
  for (const ObjectEntry& o : objs) incremental.Insert(o.position, o.id);
  const PackedTree packed_incremental = Pack(incremental);
  for (int trial = 0; trial < 30; ++trial) {
    Vec2 q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    std::vector<Neighbor> a = BestFirstKnn(packed_bulk, q, 10);
    std::vector<Neighbor> b = BestFirstKnn(packed_incremental, q, 10);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].object.id, b[i].object.id) << "trial " << trial << " rank " << i;
    }
  }
}

TEST(BulkLoadTest, PackedTreeIsShallowerOrEqual) {
  Rng rng(3);
  std::vector<ObjectEntry> objs = MakeRandomObjects(5000, &rng);
  const PackedTree bulk = BulkLoadPacked(objs);
  RStarTree incremental;
  for (const ObjectEntry& o : objs) incremental.Insert(o.position, o.id);
  EXPECT_LE(bulk.height(), incremental.height());
}

TEST(BulkLoadTest, HigherUtilizationThanIncremental) {
  // STR packs near 100%: fewer leaves than one-at-a-time insertion.
  Rng rng(5);
  std::vector<ObjectEntry> objs = MakeRandomObjects(6000, &rng);
  const PackedTree bulk = BulkLoadPacked(objs);
  RStarTree incremental;
  for (const ObjectEntry& o : objs) incremental.Insert(o.position, o.id);
  EXPECT_LT(LeafCount(bulk), LeafCount(Pack(incremental)));
}

TEST(BulkLoadTest, CustomOptionsRespected) {
  Rng rng(6);
  RStarTree::Options opts;
  opts.max_entries = 8;
  opts.min_entries = 3;
  const PackedTree tree = BulkLoadPacked(MakeRandomObjects(500, &rng), opts);
  EXPECT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants().ToString();
  EXPECT_EQ(tree.options().max_entries, 8);
}

// ChargeNodeAccess is the one place a packed-tree traversal counts a node:
// charging every node once splits the count into leaves and index nodes,
// and only an attached hook fetches pages, records misses and asks for an
// unpin.
TEST(BulkLoadTest, ChargingEveryNodeOnceSplitsLeavesFromIndexNodes) {
  class EveryOtherMisses : public NodePageHook {
   public:
    bool Fetch(NodeId id) override {
      fetched.push_back(id);
      return id % 2 == 0;
    }
    void Unpin(NodeId) override {}
    std::vector<NodeId> fetched;
  };
  Rng rng(7);
  const PackedTree tree = BulkLoadPacked(MakeRandomObjects(4000, &rng));
  ASSERT_GE(tree.height(), 3);
  const uint64_t leaves = LeafCount(tree);
  const uint64_t index_nodes = tree.node_count() - leaves;

  AccessCounter counter;
  for (NodeId id = 0; id < tree.node_count(); ++id) {
    EXPECT_FALSE(ChargeNodeAccess(tree, id, &counter, nullptr));
    EXPECT_FALSE(ChargeNodeAccess(tree, id, nullptr, nullptr));
  }
  EXPECT_EQ(counter.leaf_nodes, leaves);
  EXPECT_EQ(counter.index_nodes, index_nodes);
  EXPECT_EQ(counter.misses(), 0u);

  EveryOtherMisses hook;
  AccessCounter paged;
  uint64_t leaf_misses = 0, index_misses = 0;
  for (NodeId id = 0; id < tree.node_count(); ++id) {
    EXPECT_TRUE(ChargeNodeAccess(tree, id, &paged, &hook));
    if (id % 2 == 0) (tree.node(id).IsLeaf() ? leaf_misses : index_misses) += 1;
  }
  ASSERT_EQ(hook.fetched.size(), tree.node_count());
  for (NodeId id = 0; id < tree.node_count(); ++id) EXPECT_EQ(hook.fetched[id], id);
  EXPECT_EQ(paged.leaf_nodes, leaves);
  EXPECT_EQ(paged.index_nodes, index_nodes);
  EXPECT_EQ(paged.leaf_misses, leaf_misses);
  EXPECT_EQ(paged.index_misses, index_misses);
  EXPECT_EQ(paged.shared_misses + paged.private_misses, 0u);
}

// FNV-1a over a preorder walk of the tree: per node its level, slot count
// and the preorder index of its parent; per slot its MBR bits and, at the
// leaves, the object's position bits and id. Two trees hash equal only if
// they have the same node order, slot order, MBRs and parent links.
class Fingerprint {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  void MixPoint(Vec2 p) {
    Mix(std::bit_cast<uint64_t>(p.x));
    Mix(std::bit_cast<uint64_t>(p.y));
  }
  void MixNode(int level, size_t slots, int64_t parent) {
    Mix(static_cast<uint64_t>(level));
    Mix(slots);
    Mix(static_cast<uint64_t>(parent));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ULL;
};

uint64_t ShapeFingerprint(const RStarTree& tree) {
  Fingerprint f;
  std::unordered_map<const RStarTree::Node*, int64_t> preorder_index;
  std::vector<const RStarTree::Node*> stack{tree.root()};
  while (!stack.empty()) {
    const RStarTree::Node* node = stack.back();
    stack.pop_back();
    const int64_t index = static_cast<int64_t>(preorder_index.size());
    preorder_index[node] = index;
    auto parent = preorder_index.find(node->parent);
    f.MixNode(node->level, node->slots.size(),
              parent == preorder_index.end() ? -1 : parent->second);
    for (const RStarTree::Slot& s : node->slots) {
      f.MixPoint(s.mbr.lo);
      f.MixPoint(s.mbr.hi);
      if (node->IsLeaf()) {
        f.MixPoint(s.object.position);
        f.Mix(static_cast<uint64_t>(s.object.id));
      }
    }
    for (auto it = node->slots.rbegin(); it != node->slots.rend(); ++it) {
      if (it->child) stack.push_back(it->child.get());
    }
  }
  return f.value();
}

// The same hash over the packed layout: a node's preorder index is its id,
// and a leaf point counts as its degenerate MBR.
uint64_t ShapeFingerprint(const PackedTree& tree) {
  Fingerprint f;
  std::vector<std::pair<NodeId, int64_t>> stack{{PackedTree::root(), -1}};
  while (!stack.empty()) {
    const auto [id, parent] = stack.back();
    stack.pop_back();
    const PackedTree::Node& node = tree.node(id);
    f.MixNode(node.level, node.count, parent);
    if (node.IsLeaf()) {
      for (const ObjectEntry& o : tree.objects(node)) {
        f.MixPoint(o.position);
        f.MixPoint(o.position);
        f.MixPoint(o.position);
        f.Mix(static_cast<uint64_t>(o.id));
      }
      continue;
    }
    std::span<const PackedTree::Branch> branches = tree.branches(node);
    for (const PackedTree::Branch& b : branches) {
      f.MixPoint(b.mbr.lo);
      f.MixPoint(b.mbr.hi);
    }
    for (auto it = branches.rbegin(); it != branches.rend(); ++it) {
      stack.push_back({it->child, static_cast<int64_t>(id)});
    }
  }
  return f.value();
}

// Co-located points: a side x side lattice, each site held `copies` times,
// ids shuffled so that input order and id order disagree.
std::vector<ObjectEntry> LatticeObjects(int side = 40, int copies = 6) {
  std::vector<ObjectEntry> objs;
  for (int copy = 0; copy < copies; ++copy) {
    for (int i = 0; i < side; ++i) {
      for (int j = 0; j < side; ++j) objs.push_back({{i * 25.0, j * 25.0}, 0});
    }
  }
  std::vector<int64_t> ids(objs.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int64_t>(i);
  Rng rng(31);
  rng.Shuffle(&ids);
  for (size_t i = 0; i < objs.size(); ++i) objs[i].id = ids[i];
  return objs;
}

// Eight dense hotspots of 1,500 points each.
std::vector<ObjectEntry> HotspotObjects() {
  Rng rng(32);
  std::vector<ObjectEntry> objs;
  for (int c = 0; c < 8; ++c) {
    Vec2 center{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    for (int i = 0; i < 1500; ++i) {
      objs.push_back({{center.x + rng.Uniform(-4, 4), center.y + rng.Uniform(-4, 4)},
                      static_cast<int64_t>(objs.size())});
    }
  }
  return objs;
}

// Coordinates around the origin, with exact -0.0 and +0.0 mixed in on both
// axes: STR's "<" treats the two zeros as equal, so they must keep their
// input order, while the MBRs record which zero came first.
std::vector<ObjectEntry> SignedZeroObjects(int n = 3000) {
  Rng rng(33);
  std::vector<ObjectEntry> objs;
  for (int i = 0; i < n; ++i) {
    Vec2 p{rng.Uniform(-500, 500), rng.Uniform(-500, 500)};
    if (i % 3 == 0) p.x = (i % 2 == 0) ? 0.0 : -0.0;
    if (i % 5 == 0) p.y = (i % 4 == 0) ? -0.0 : 0.0;
    objs.push_back({p, i});
  }
  return objs;
}

// Pins the exact packed shape: a change to the STR packer that is meant to
// be a pure speed or memory change must keep every one of these. The
// packer sorts in chunks of 32K items merged through a buffer of the same
// size; the last four cases are large enough to merge across chunks: the
// big lattice's ties (each x value held 5,200 times, in every chunk) and
// the signed zeros straddle chunk boundaries, 150,001 uniform points make
// five chunks, the last one short, and at fan-out 8 the 37,500 leaves of
// 300,000 points make the branch level merge too.
TEST(BulkLoadTest, PackedShapeMatchesRecordedFingerprints) {
  struct Case {
    const char* name;
    std::vector<ObjectEntry> objects;
    RStarTree::Options options;
    uint64_t fingerprint;
  };
  auto uniform = [](int n) {
    Rng rng(30);
    return MakeRandomObjects(n, &rng);
  };
  RStarTree::Options small;
  small.max_entries = 8;
  small.min_entries = 3;
  std::vector<Case> cases;
  cases.push_back({"uniform_0", uniform(0), {}, 5256656924758153597ULL});
  cases.push_back({"uniform_30", uniform(30), {}, 13227157039120517713ULL});
  cases.push_back({"uniform_31", uniform(31), {}, 7321201986864498735ULL});
  cases.push_back({"uniform_917", uniform(917), {}, 13514357043882143354ULL});
  cases.push_back({"uniform_12345", uniform(12345), {}, 1025627196410158520ULL});
  cases.push_back({"uniform_100000", uniform(100000), {}, 15376182289894193836ULL});
  cases.push_back({"lattice", LatticeObjects(), {}, 5171286311086684148ULL});
  cases.push_back({"hotspots", HotspotObjects(), {}, 17170030887914338905ULL});
  cases.push_back({"signed_zero", SignedZeroObjects(), {}, 14344744092756440684ULL});
  cases.push_back({"fanout_8_3", uniform(5000), small, 5286098656492171123ULL});
  cases.push_back({"lattice_208000", LatticeObjects(100, 52), {}, 17954227511933981849ULL});
  cases.push_back({"signed_zero_120000", SignedZeroObjects(120000), {}, 8740691950388844627ULL});
  cases.push_back({"uniform_150001", uniform(150001), {}, 878890877589774689ULL});
  cases.push_back({"fanout_8_3_300000", uniform(300000), small, 3991163214095599957ULL});
  for (Case& c : cases) {
    const size_t n = c.objects.size();
    const PackedTree packed = BulkLoadPacked(c.objects, c.options);
    EXPECT_EQ(packed.size(), n) << c.name;
    EXPECT_TRUE(packed.CheckInvariants().ok()) << c.name;
    EXPECT_EQ(ShapeFingerprint(packed), c.fingerprint) << c.name;
  }
}

// Pack is a lossless preorder freeze of any valid pointer tree, including
// the irregular shapes one-at-a-time insertion leaves behind: at fan-out 8,
// 3,000 inserts go through many R* splits and forced reinserts.
TEST(BulkLoadTest, PackOfAnInsertBuiltTreeKeepsItsShape) {
  Rng rng(34);
  RStarTree::Options small;
  small.max_entries = 8;
  small.min_entries = 3;
  RStarTree tree(small);
  std::vector<ObjectEntry> objs = MakeRandomObjects(3000, &rng);
  for (const ObjectEntry& o : objs) tree.Insert(o.position, o.id);
  ASSERT_TRUE(tree.CheckInvariants().ok());
  ASSERT_GE(tree.height(), 4);

  const PackedTree packed = Pack(tree);
  EXPECT_EQ(packed.size(), tree.size());
  EXPECT_EQ(packed.height(), tree.height());
  EXPECT_TRUE(packed.CheckInvariants().ok()) << packed.CheckInvariants().ToString();
  EXPECT_EQ(ShapeFingerprint(packed), ShapeFingerprint(tree));
}

}  // namespace
}  // namespace senn::rtree
