#include "pheap/gc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "atlas/recovery.h"
#include "common/random.h"
#include "pheap/check.h"
#include "pheap/heap.h"
#include "pheap/test_util.h"

namespace tsp::pheap {
namespace {

using testing::ScopedRegionFile;
using testing::UniqueBaseAddress;

// A persistent singly linked list node used to build reachable graphs.
struct ListNode {
  static constexpr std::uint32_t kPersistentTypeId = 101;
  std::uint64_t value = 0;
  ListNode* next = nullptr;
};

// A list node allocated with a caller-chosen payload size, so graphs
// mix size classes.
struct BlobNode {
  static constexpr std::uint32_t kPersistentTypeId = 102;
  BlobNode* next = nullptr;
};

TypeRegistry MakeRegistry() {
  TypeRegistry registry;
  registry.Register<ListNode>(
      "ListNode", [](const void* payload, const PointerVisitor& visit) {
        visit(static_cast<const ListNode*>(payload)->next);
      });
  registry.Register<BlobNode>(
      "BlobNode", [](const void* payload, const PointerVisitor& visit) {
        visit(static_cast<const BlobNode*>(payload)->next);
      });
  return registry;
}

struct Extent {
  std::uint64_t offset;  // of the BlockHeader
  std::uint64_t size;    // header included
};

Extent ExtentOf(const PersistentHeap& heap, const void* payload) {
  const std::uint64_t offset =
      heap.region()->ToOffset(payload) - sizeof(BlockHeader);
  const auto* block =
      static_cast<const BlockHeader*>(heap.region()->FromOffset(offset));
  return {offset, block->size()};
}

// What a GC must rebuild, computed without the mark bitmap from the
// reachable extents and the bump pointer before the GC: the gaps
// between the sorted extents, each carved from its low end into the
// largest class blocks that fit, pushed in ascending address order.
struct SweepOracle {
  GcStats stats;
  std::uint64_t bump = 0;
  std::vector<std::vector<std::uint64_t>> pushes;  // per class, in order
};

SweepOracle ComputeOracle(const PersistentHeap& heap,
                          std::vector<Extent> extents) {
  const RegionHeader* h = heap.region()->header();
  const std::uint64_t arena_end = h->arena_offset + h->arena_size;
  SweepOracle oracle;
  oracle.pushes.resize(Allocator::kNumSizeClasses);
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) {
              return a.offset < b.offset;
            });
  std::uint64_t cursor = h->arena_offset;
  for (const Extent& extent : extents) {
    ++oracle.stats.live_objects;
    oracle.stats.live_bytes += extent.size;
    while (cursor < extent.offset) {
      int fit = -1;
      for (int c = 0; c < static_cast<int>(Allocator::kNumSizeClasses); ++c) {
        if (Allocator::ClassBlockSize(c) <= extent.offset - cursor) fit = c;
      }
      if (fit < 0) {
        oracle.stats.sliver_bytes += extent.offset - cursor;
        break;
      }
      oracle.pushes[fit].push_back(cursor);
      ++oracle.stats.free_blocks;
      oracle.stats.free_bytes += Allocator::ClassBlockSize(fit);
      cursor += Allocator::ClassBlockSize(fit);
    }
    cursor = std::max(cursor, extent.offset + extent.size);
  }
  oracle.bump = cursor;
  const std::uint64_t old_bump = std::min<std::uint64_t>(
      h->bump_offset.load(std::memory_order_relaxed), arena_end);
  oracle.stats.tail_reclaimed_bytes =
      old_bump > cursor ? old_bump - cursor : 0;
  return oracle;
}

// Checks the GC's stats, the new bump pointer and every rebuilt free
// list (class, order and offset of each block) against `oracle`.
void ExpectMatchesOracle(const PersistentHeap& heap, const GcStats& stats,
                         const SweepOracle& oracle) {
  EXPECT_EQ(stats.live_objects, oracle.stats.live_objects);
  EXPECT_EQ(stats.live_bytes, oracle.stats.live_bytes);
  EXPECT_EQ(stats.free_blocks, oracle.stats.free_blocks);
  EXPECT_EQ(stats.free_bytes, oracle.stats.free_bytes);
  EXPECT_EQ(stats.sliver_bytes, oracle.stats.sliver_bytes);
  EXPECT_EQ(stats.tail_reclaimed_bytes, oracle.stats.tail_reclaimed_bytes);
  EXPECT_EQ(stats.invalid_pointers, 0u);
  const RegionHeader* h = heap.region()->header();
  EXPECT_EQ(h->bump_offset.load(std::memory_order_relaxed), oracle.bump);
  for (std::size_t c = 0; c < Allocator::kNumSizeClasses; ++c) {
    std::vector<std::uint64_t> list;
    for (std::uint64_t offset = OffsetOf(h->free_list_head(c).load(
             std::memory_order_relaxed));
         offset != 0 && list.size() <= oracle.pushes[c].size();
         offset = static_cast<const FreeBlockPayload*>(
                      heap.region()->FromOffset(offset + sizeof(BlockHeader)))
                      ->next_offset) {
      list.push_back(offset);
    }
    std::reverse(list.begin(), list.end());  // lists are LIFO
    EXPECT_EQ(list, oracle.pushes[c]) << "size class " << c;
  }
}

class GcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<ScopedRegionFile>("gc");
    RegionOptions options;
    options.size = 64 * 1024 * 1024;
    options.base_address = UniqueBaseAddress();
    options.runtime_area_size = 1 * 1024 * 1024;
    auto heap = PersistentHeap::Create(file_->path(), options);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_ = std::move(*heap);
  }

  ListNode* BuildChain(int n) {
    ListNode* head = nullptr;
    for (int i = 0; i < n; ++i) {
      ListNode* node = heap_->New<ListNode>();
      node->value = static_cast<std::uint64_t>(i);
      node->next = head;
      head = node;
    }
    return head;
  }

  // Writes an allocated ListNode block at arena granule `granule`,
  // bypassing the allocator so the block lands exactly there.
  ListNode* PlaceNode(std::uint64_t granule, ListNode* next) {
    MappedRegion* region = heap_->region();
    auto* block = static_cast<BlockHeader*>(region->FromOffset(
        region->header()->arena_offset + granule * kGranule));
    block->magic = BlockHeader::kAllocatedMagic;
    block->type_id = ListNode::kPersistentTypeId;
    block->block_size = BlockHeader::PackSize(2 * kGranule, 0);
    auto* node = reinterpret_cast<ListNode*>(block + 1);
    node->value = granule;
    node->next = next;
    return node;
  }

  std::unique_ptr<ScopedRegionFile> file_;
  std::unique_ptr<PersistentHeap> heap_;
};

// Builds `count` BlobNodes of random payload sizes in `heap`, links a
// random half of them into a chain from the root, and returns the
// chain's extents (the rest is garbage the GC must carve).
std::vector<Extent> BuildRandomBlobGraph(PersistentHeap* heap, Random* rng,
                                         int count) {
  std::vector<BlobNode*> chain;
  for (int i = 0; i < count; ++i) {
    const std::size_t payload = 8 + rng->Uniform(1000);
    auto* node = static_cast<BlobNode*>(
        heap->Alloc(payload, BlobNode::kPersistentTypeId));
    node->next = nullptr;
    if (rng->Bernoulli(0.5)) {
      if (!chain.empty()) chain.back()->next = node;
      chain.push_back(node);
    }
  }
  heap->set_root(chain.empty() ? nullptr : chain.front());
  std::vector<Extent> extents;
  for (const BlobNode* node : chain) extents.push_back(ExtentOf(*heap, node));
  return extents;
}

TEST_F(GcTest, EmptyRootFreesEverything) {
  BuildChain(100);  // never linked to the root — all garbage
  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, 0u);
  EXPECT_EQ(stats.live_bytes, 0u);
  // Everything returned to the bump region.
  EXPECT_EQ(heap_->GetAllocatorStats().bump_offset,
            heap_->region()->header()->arena_offset);
}

TEST_F(GcTest, NoRootResetsBumpToArenaStart) {
  BuildChain(40);
  const RegionHeader* h = heap_->region()->header();
  const std::uint64_t old_bump = h->bump_offset.load();
  ASSERT_EQ(h->root_offset.load(), 0u);
  const SweepOracle oracle = ComputeOracle(*heap_, {});
  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, 0u);
  EXPECT_EQ(stats.free_blocks, 0u);
  EXPECT_EQ(stats.free_bytes, 0u);
  EXPECT_EQ(stats.sliver_bytes, 0u);
  EXPECT_EQ(stats.tail_reclaimed_bytes, old_bump - h->arena_offset);
  EXPECT_EQ(h->bump_offset.load(), h->arena_offset);
  ExpectMatchesOracle(*heap_, stats, oracle);
  const CheckReport check = CheckHeap(*heap_, registry);
  EXPECT_TRUE(check.ok) << check.ToString();
}

// Live headers on both sides of a 64-granule bitmap word boundary and
// a block ending exactly at the arena end (its header bit is in the
// last word): the sweep must see each and carve the gaps between.
TEST_F(GcTest, LiveBlocksAtBitmapWordEdges) {
  RegionHeader* h = heap_->region()->header();
  const std::uint64_t last = h->arena_size / kGranule - 2;
  const TypeRegistry registry = MakeRegistry();
  // A block spans two granules, so 63 and 64 cannot be live at once;
  // the third layout leaves a whole bitmap word (granules 128-191) empty.
  for (const std::vector<std::uint64_t>& granules :
       {std::vector<std::uint64_t>{0, 63, 65, last},
        std::vector<std::uint64_t>{64, last},
        std::vector<std::uint64_t>{1, 127, 192, last}}) {
    ListNode* head = nullptr;
    std::vector<Extent> extents;
    for (auto it = granules.rbegin(); it != granules.rend(); ++it) {
      head = PlaceNode(*it, head);
      extents.push_back(ExtentOf(*heap_, head));
    }
    heap_->set_root(head);
    h->bump_offset.store(h->arena_offset + h->arena_size);

    const SweepOracle oracle = ComputeOracle(*heap_, extents);
    const GcStats stats = heap_->RunRecoveryGc(registry);
    ExpectMatchesOracle(*heap_, stats, oracle);
    EXPECT_EQ(stats.live_objects, granules.size());
    EXPECT_EQ(stats.tail_reclaimed_bytes, 0u);
    EXPECT_EQ(h->bump_offset.load(), h->arena_offset + h->arena_size);

    std::vector<std::uint64_t> seen;
    for (ListNode* n = heap_->root<ListNode>(); n != nullptr; n = n->next) {
      seen.push_back(n->value);
    }
    EXPECT_EQ(seen, granules);
    const CheckReport check = CheckHeap(*heap_, registry);
    EXPECT_TRUE(check.ok) << check.ToString();
  }
}

// Shard recovery runs one GC per heap on concurrent threads; each keeps
// its mark state to itself and rebuilds exactly its own heap.
TEST(GcParallelTest, FourHeapsRecoverConcurrently) {
  constexpr int kHeaps = 4;
  std::vector<std::unique_ptr<ScopedRegionFile>> files;
  std::vector<std::unique_ptr<PersistentHeap>> heaps;
  std::vector<PersistentHeap*> raw;
  std::vector<SweepOracle> oracles;
  for (int i = 0; i < kHeaps; ++i) {
    files.push_back(std::make_unique<ScopedRegionFile>("gc_parallel"));
    RegionOptions options;
    options.size = 16 * 1024 * 1024;
    options.base_address = UniqueBaseAddress();
    options.runtime_area_size = 1 * 1024 * 1024;
    auto heap = PersistentHeap::Create(files.back()->path(), options);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    Random rng(static_cast<std::uint64_t>(100 + i));
    const std::vector<Extent> extents =
        BuildRandomBlobGraph(heap->get(), &rng, 300 + 100 * i);
    oracles.push_back(ComputeOracle(**heap, extents));
    raw.push_back(heap->get());
    heaps.push_back(std::move(*heap));
  }

  const TypeRegistry registry = MakeRegistry();
  const std::vector<atlas::ShardRecovery> results =
      atlas::RecoverHeapsParallel(raw, registry, kHeaps);
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kHeaps));
  for (int i = 0; i < kHeaps; ++i) {
    SCOPED_TRACE("heap " + std::to_string(i));
    ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
    ExpectMatchesOracle(*heaps[i], results[i].result.gc, oracles[i]);
    const CheckReport check = CheckHeap(*heaps[i], registry);
    EXPECT_TRUE(check.ok) << check.ToString();
  }
}

TEST_F(GcTest, ReachableChainSurvives) {
  ListNode* head = BuildChain(50);
  heap_->set_root(head);
  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, 50u);
  EXPECT_EQ(stats.invalid_pointers, 0u);

  // Data intact after the sweep.
  int count = 0;
  for (ListNode* n = heap_->root<ListNode>(); n != nullptr; n = n->next) {
    EXPECT_EQ(n->value, static_cast<std::uint64_t>(49 - count));
    ++count;
  }
  EXPECT_EQ(count, 50);
}

TEST_F(GcTest, UnreachableTailIsReclaimed) {
  ListNode* head = BuildChain(100);
  // Keep only the first 10 nodes reachable.
  ListNode* cut = head;
  for (int i = 0; i < 9; ++i) cut = cut->next;
  cut->next = nullptr;
  heap_->set_root(head);

  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, 10u);
  EXPECT_GT(stats.free_blocks + (stats.tail_reclaimed_bytes > 0 ? 1 : 0), 0u);

  // The reclaimed space is allocatable again.
  for (int i = 0; i < 90; ++i) {
    EXPECT_NE(heap_->New<ListNode>(), nullptr);
  }
}

TEST_F(GcTest, InteriorGapsBecomeFreeBlocks) {
  std::vector<ListNode*> nodes;
  for (int i = 0; i < 100; ++i) nodes.push_back(heap_->New<ListNode>());
  // Chain only even-indexed nodes; odd ones become interior garbage.
  for (int i = 0; i + 2 < 100; i += 2) nodes[i]->next = nodes[i + 2];
  nodes[98]->next = nullptr;
  heap_->set_root(nodes[0]);

  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, 50u);
  EXPECT_GT(stats.free_blocks, 0u);
  EXPECT_GT(stats.free_bytes, 0u);
}

TEST_F(GcTest, RebuiltFreeListsAreUsable) {
  std::vector<ListNode*> nodes;
  for (int i = 0; i < 64; ++i) nodes.push_back(heap_->New<ListNode>());
  for (int i = 0; i + 2 < 64; i += 2) nodes[i]->next = nodes[i + 2];
  nodes[62]->next = nullptr;
  heap_->set_root(nodes[0]);

  const TypeRegistry registry = MakeRegistry();
  heap_->RunRecoveryGc(registry);

  const std::uint64_t bump_before = heap_->GetAllocatorStats().bump_offset;
  // 32 interior gaps of 32 bytes: new same-class allocations must come
  // from rebuilt free lists, not from bumping.
  for (int i = 0; i < 30; ++i) ASSERT_NE(heap_->New<ListNode>(), nullptr);
  EXPECT_EQ(heap_->GetAllocatorStats().bump_offset, bump_before);
}

TEST_F(GcTest, SimulatedTornMetadataIsRebuilt) {
  ListNode* head = BuildChain(20);
  heap_->set_root(head);

  // Simulate a crash that tore allocator metadata: scribble the free
  // lists and bump pointer with garbage (within arena bounds).
  RegionHeader* h = heap_->region()->header();
  h->free_lists[2].head.store(MakeTagged(7, h->arena_offset + 8 * kGranule),
                              std::memory_order_relaxed);
  h->bump_offset.store(h->arena_offset + h->arena_size,
                       std::memory_order_relaxed);

  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, 20u);

  // Allocator fully functional again.
  for (int i = 0; i < 1000; ++i) ASSERT_NE(heap_->New<ListNode>(), nullptr);
}

TEST_F(GcTest, UnregisteredTypeIsLeaf) {
  ListNode* head = BuildChain(3);
  heap_->set_root(head);
  TypeRegistry empty;  // ListNode not registered → treated as leaf
  const GcStats stats = heap_->RunRecoveryGc(empty);
  // Only the root object is found; its children are unreachable to the
  // GC and get reclaimed. (This documents why registration matters.)
  EXPECT_EQ(stats.live_objects, 1u);
}

TEST_F(GcTest, NullAndForeignPointersIgnored) {
  ListNode* node = heap_->New<ListNode>();
  static ListNode foreign;  // static storage, not in the heap
  node->next = &foreign;
  heap_->set_root(node);
  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, 1u);
  EXPECT_EQ(stats.invalid_pointers, 0u) << "out-of-region pointers are legal";
}

TEST_F(GcTest, DanglingInRegionPointerCountsInvalid) {
  ListNode* node = heap_->New<ListNode>();
  ListNode* victim = heap_->New<ListNode>();
  heap_->Free(victim);
  node->next = victim;  // dangles into a freed block
  heap_->set_root(node);
  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, 1u);
  EXPECT_EQ(stats.invalid_pointers, 1u);
}

TEST_F(GcTest, SharedSubgraphMarkedOnce) {
  ListNode* shared = heap_->New<ListNode>();
  shared->value = 99;
  ListNode* a = heap_->New<ListNode>();
  ListNode* b = heap_->New<ListNode>();
  a->next = shared;
  b->next = shared;
  ListNode* root = heap_->New<ListNode>();
  root->next = a;
  // Build a diamond via a cycle: root -> a -> shared, b -> shared,
  // shared -> b creates a cycle to test termination.
  shared->next = b;
  heap_->set_root(root);
  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, 4u);
}

TEST_F(GcTest, RepeatedGcIsIdempotent) {
  ListNode* head = BuildChain(25);
  heap_->set_root(head);
  const TypeRegistry registry = MakeRegistry();
  const GcStats first = heap_->RunRecoveryGc(registry);
  const GcStats second = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(first.live_objects, second.live_objects);
  EXPECT_EQ(first.live_bytes, second.live_bytes);
  EXPECT_EQ(second.tail_reclaimed_bytes, 0u);
}

// Property sweep: for any mix of live/garbage object sizes, GC preserves
// exactly the reachable set and the allocator stays coherent.
class GcPropertyTest : public GcTest,
                       public ::testing::WithParamInterface<int> {};

TEST_P(GcPropertyTest, RandomGraphsSurviveGc) {
  const int seed = GetParam();
  Random rng(static_cast<std::uint64_t>(seed));
  std::vector<ListNode*> all;
  for (int i = 0; i < 500; ++i) {
    ListNode* n = heap_->New<ListNode>();
    n->value = rng.Next();
    all.push_back(n);
  }
  // Random chain through a random subset.
  std::vector<ListNode*> chain;
  for (ListNode* n : all) {
    if (rng.Bernoulli(0.5)) chain.push_back(n);
  }
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    chain[i]->next = chain[i + 1];
  }
  if (!chain.empty()) {
    chain.back()->next = nullptr;
    heap_->set_root(chain.front());
  }

  std::vector<std::uint64_t> expected;
  expected.reserve(chain.size());
  for (ListNode* n : chain) expected.push_back(n->value);

  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, chain.size());

  std::vector<std::uint64_t> actual;
  for (ListNode* n = heap_->root<ListNode>(); n != nullptr; n = n->next) {
    actual.push_back(n->value);
  }
  EXPECT_EQ(actual, expected);
}

// Mixed size classes, interleaved garbage: the GC's stats and free
// lists equal the oracle computed from the sorted reachable extents.
TEST_P(GcPropertyTest, SweepMatchesSortedExtentOracle) {
  Random rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const std::vector<Extent> extents =
      BuildRandomBlobGraph(heap_.get(), &rng, 600);
  const SweepOracle oracle = ComputeOracle(*heap_, extents);
  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  ExpectMatchesOracle(*heap_, stats, oracle);
  const CheckReport check = CheckHeap(*heap_, registry);
  EXPECT_TRUE(check.ok) << check.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcPropertyTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace tsp::pheap
