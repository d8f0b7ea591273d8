#include "cache/min_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "cache/recency_list.h"
#include "util/rng.h"

namespace sc::cache {

/// Reaches into a RecencyList's links so the invariant check can be shown
/// to reject each kind of corruption.
struct RecencyListTestPeer {
  static void set_prev(RecencyList& list, std::size_t id, std::uint32_t v) {
    list.nodes_[id].prev = v;
  }
  static void set_next(RecencyList& list, std::size_t id, std::uint32_t v) {
    list.nodes_[id].next = v;
  }
  static void set_key(RecencyList& list, std::size_t id, double key) {
    list.nodes_[id].key = key;
  }
};

namespace {

TEST(IndexedMinHeap, PushPopOrdersByKey) {
  IndexedMinHeap heap(10);
  heap.push(3, 5.0);
  heap.push(1, 2.0);
  heap.push(7, 9.0);
  heap.push(2, 1.0);
  EXPECT_EQ(heap.pop_min(), 2u);
  EXPECT_EQ(heap.pop_min(), 1u);
  EXPECT_EQ(heap.pop_min(), 3u);
  EXPECT_EQ(heap.pop_min(), 7u);
  EXPECT_TRUE(heap.empty());
}

TEST(IndexedMinHeap, ContainsAndKey) {
  IndexedMinHeap heap(5);
  heap.push(0, 1.5);
  EXPECT_TRUE(heap.contains(0));
  EXPECT_FALSE(heap.contains(1));
  EXPECT_DOUBLE_EQ(heap.key(0), 1.5);
  EXPECT_THROW((void)heap.key(1), std::out_of_range);
}

TEST(IndexedMinHeap, UpdateBothDirections) {
  IndexedMinHeap heap(4);
  heap.push(0, 1.0);
  heap.push(1, 2.0);
  heap.push(2, 3.0);
  heap.update(2, 0.5);  // decrease: becomes min
  EXPECT_EQ(heap.min_id(), 2u);
  heap.update(2, 10.0);  // increase: back to the bottom
  EXPECT_EQ(heap.min_id(), 0u);
  EXPECT_TRUE(heap.check_invariants());
}

TEST(IndexedMinHeap, UpsertInsertsOrRekeys) {
  IndexedMinHeap heap(3);
  heap.upsert(1, 4.0);
  EXPECT_TRUE(heap.contains(1));
  heap.upsert(1, 1.0);
  EXPECT_DOUBLE_EQ(heap.key(1), 1.0);
  EXPECT_EQ(heap.size(), 1u);
}

TEST(IndexedMinHeap, RemoveArbitrary) {
  IndexedMinHeap heap(6);
  for (std::size_t i = 0; i < 6; ++i) {
    heap.push(i, static_cast<double>(i));
  }
  heap.remove(3);
  EXPECT_FALSE(heap.contains(3));
  EXPECT_EQ(heap.size(), 5u);
  EXPECT_TRUE(heap.check_invariants());
  // The remaining ids pop in order, skipping 3.
  const std::vector<std::size_t> expected = {0, 1, 2, 4, 5};
  for (const std::size_t id : expected) {
    EXPECT_EQ(heap.pop_min(), id);
  }
}

TEST(IndexedMinHeap, DuplicateAndAbsentOperationsThrow) {
  IndexedMinHeap heap(3);
  heap.push(0, 1.0);
  EXPECT_THROW(heap.push(0, 2.0), std::logic_error);
  EXPECT_THROW(heap.update(1, 2.0), std::out_of_range);
  EXPECT_THROW(heap.remove(1), std::out_of_range);
  IndexedMinHeap empty(1);
  EXPECT_THROW((void)empty.min_id(), std::out_of_range);
  EXPECT_THROW((void)empty.min_key(), std::out_of_range);
  EXPECT_THROW((void)empty.pop_min(), std::out_of_range);
}

TEST(IndexedMinHeap, ClearEmptiesAndStaysUsable) {
  IndexedMinHeap heap(8);
  for (std::size_t i = 0; i < 8; ++i) heap.push(i, static_cast<double>(i));
  heap.clear();
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_FALSE(heap.contains(i));
  EXPECT_TRUE(heap.check_invariants());
  // Ids are reusable immediately after clear().
  heap.push(3, 2.0);
  heap.push(5, 1.0);
  EXPECT_EQ(heap.pop_min(), 5u);
  EXPECT_EQ(heap.pop_min(), 3u);
  // Clearing an empty heap is a no-op.
  heap.clear();
  EXPECT_TRUE(heap.check_invariants());
}

TEST(IndexedMinHeap, EqualKeysAllPop) {
  IndexedMinHeap heap(4);
  for (std::size_t i = 0; i < 4; ++i) heap.push(i, 1.0);
  std::vector<std::size_t> popped;
  while (!heap.empty()) popped.push_back(heap.pop_min());
  std::sort(popped.begin(), popped.end());
  EXPECT_EQ(popped, (std::vector<std::size_t>{0, 1, 2, 3}));
}

/// Property test: random push/update/remove/pop against a reference
/// multimap, checking invariants throughout.
class HeapFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeapFuzz, AgreesWithReferenceModel) {
  util::Rng rng(GetParam());
  constexpr std::size_t kIds = 200;
  IndexedMinHeap heap(kIds);
  std::map<std::size_t, double> model;  // id -> key

  auto model_min = [&]() {
    std::size_t best_id = 0;
    double best = 1e300;
    for (const auto& [id, key] : model) {
      if (key < best) {
        best = key;
        best_id = id;
      }
    }
    return std::pair{best_id, best};
  };

  for (int step = 0; step < 3000; ++step) {
    const std::size_t id = rng.uniform_int(0, kIds - 1);
    switch (rng.uniform_int(0, 3)) {
      case 0:  // upsert
      {
        const double key = rng.uniform();
        heap.upsert(id, key);
        model[id] = key;
        break;
      }
      case 1:  // remove if present
        if (model.count(id)) {
          heap.remove(id);
          model.erase(id);
        }
        break;
      case 2:  // pop-min
        if (!model.empty()) {
          const auto [mid, mkey] = model_min();
          EXPECT_DOUBLE_EQ(heap.min_key(), mkey);
          const std::size_t popped = heap.pop_min();
          // Ties may pop any id with the min key.
          EXPECT_DOUBLE_EQ(model.at(popped), mkey);
          model.erase(popped);
          (void)mid;
        }
        break;
      case 3: {  // membership agreement
        EXPECT_EQ(heap.contains(id), model.count(id) > 0);
        break;
      }
    }
    ASSERT_EQ(heap.size(), model.size());
    if (step % 500 == 0) {
      ASSERT_TRUE(heap.check_invariants());
    }
  }
  EXPECT_TRUE(heap.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));


// ------------------------------------------------------- RecencyList

TEST(RecencyList, MonotoneKeysEvictOldestFirst) {
  RecencyList list(6);
  for (std::size_t id = 0; id < 5; ++id) {
    list.push(id, static_cast<double>(id + 1));
  }
  list.update(0, 6.0);  // a hit moves 0 to the tail
  EXPECT_EQ(list.min_id(), 1u);
  EXPECT_DOUBLE_EQ(list.min_key(), 2.0);
  list.remove(1);
  list.remove(2);
  EXPECT_EQ(list.min_id(), 3u);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_FALSE(list.contains(1));
  EXPECT_DOUBLE_EQ(list.key(0), 6.0);
  EXPECT_TRUE(list.check_invariants());
  EXPECT_EQ(list.entries(),
            (std::vector<std::pair<std::size_t, double>>{
                {0, 6.0}, {3, 4.0}, {4, 5.0}}));
}

TEST(RecencyList, DuplicateAbsentAndEmptyOperationsThrow) {
  RecencyList list(3);
  list.push(0, 1.0);
  EXPECT_THROW(list.push(0, 2.0), std::logic_error);
  EXPECT_THROW(list.update(1, 2.0), std::out_of_range);
  EXPECT_THROW(list.remove(1), std::out_of_range);
  EXPECT_THROW((void)list.key(1), std::out_of_range);
  EXPECT_THROW((void)list.contains(3), std::out_of_range);
  RecencyList empty(1);
  EXPECT_THROW((void)empty.min_id(), std::out_of_range);
  EXPECT_THROW((void)empty.min_key(), std::out_of_range);
}

TEST(RecencyList, ClearAndResetReuseTheList) {
  RecencyList list(8);
  for (std::size_t id = 0; id < 8; ++id) {
    list.push(id, static_cast<double>(id));
  }
  list.clear();
  EXPECT_TRUE(list.empty());
  for (std::size_t id = 0; id < 8; ++id) EXPECT_FALSE(list.contains(id));
  EXPECT_TRUE(list.check_invariants());
  list.push(5, 2.0);
  list.push(3, 1.0);
  EXPECT_EQ(list.min_id(), 3u);
  list.reset(4);
  EXPECT_TRUE(list.empty());
  EXPECT_THROW((void)list.contains(5), std::out_of_range);
  list.push(2, 1.0);
  EXPECT_EQ(list.min_id(), 2u);
  EXPECT_TRUE(list.check_invariants());
}

TEST(RecencyList, OutOfOrderKeysStayOrdered) {
  // load_state replays a snapshot's entries in id order, so keys arrive
  // in any order; updates may also lower a key.
  util::Rng rng(11);
  constexpr std::size_t kIds = 300;
  RecencyList list(kIds);
  IndexedMinHeap heap(kIds);
  for (std::size_t id = 0; id < kIds; id += 2) {
    const double key = rng.uniform();
    list.push(id, key);
    heap.push(id, key);
  }
  ASSERT_TRUE(list.check_invariants());
  for (int step = 0; step < 200; ++step) {
    const std::size_t id = 2 * rng.uniform_int(0, kIds / 2 - 1);
    const double key = rng.uniform();
    list.update(id, key);
    heap.update(id, key);
    ASSERT_TRUE(list.check_invariants());
  }
  EXPECT_EQ(list.entries(), heap.entries());
  // Draining from the head yields the keys in ascending order.
  while (!list.empty()) {
    ASSERT_EQ(list.min_id(), heap.min_id());
    ASSERT_DOUBLE_EQ(list.min_key(), heap.min_key());
    list.remove(heap.pop_min());
  }
  EXPECT_TRUE(heap.empty());
}

TEST(RecencyList, EqualKeysKeepInsertionOrder) {
  RecencyList list(4);
  for (const std::size_t id : {2u, 0u, 3u, 1u}) list.push(id, 1.0);
  std::vector<std::size_t> order;
  while (!list.empty()) {
    order.push_back(list.min_id());
    list.remove(order.back());
  }
  EXPECT_EQ(order, (std::vector<std::size_t>{2, 0, 3, 1}));
}

TEST(RecencyList, InvariantCheckRejectsCorruptedLinks) {
  const auto filled = [] {
    RecencyList list(5);
    for (std::size_t id = 0; id < 4; ++id) {
      list.push(id, static_cast<double>(id));
    }
    return list;
  };
  {
    RecencyList list = filled();
    ASSERT_TRUE(list.check_invariants());
    RecencyListTestPeer::set_prev(list, 2, 0);  // 1 <-> 2 asymmetric
    EXPECT_FALSE(list.check_invariants());
  }
  {
    RecencyList list = filled();
    RecencyListTestPeer::set_next(list, 3, 1);  // tail loops back
    EXPECT_FALSE(list.check_invariants());
  }
  {
    RecencyList list = filled();
    RecencyListTestPeer::set_next(list, 1, 3);  // skips 2: count too low
    RecencyListTestPeer::set_prev(list, 3, 1);
    EXPECT_FALSE(list.check_invariants());
  }
  {
    RecencyList list = filled();
    RecencyListTestPeer::set_key(list, 1, 9.0);  // out of key order
    EXPECT_FALSE(list.check_invariants());
  }
  {
    RecencyList list = filled();
    RecencyListTestPeer::set_prev(list, 4, 0);  // a stray "present" id
    EXPECT_FALSE(list.check_invariants());
  }
}

/// Property test: with unique, increasing keys (the LRU clock) the list
/// and the heap are interchangeable — same minimum, size, membership and
/// entries after every operation.
class RecencyListVsHeap : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecencyListVsHeap, AgreeOnMonotoneKeys) {
  util::Rng rng(GetParam());
  constexpr std::size_t kIds = 64;
  RecencyList list(kIds);
  IndexedMinHeap heap(kIds);
  double clock = 0.0;

  for (int step = 0; step < 4000; ++step) {
    const std::size_t id = rng.uniform_int(0, kIds - 1);
    switch (rng.uniform_int(0, 4)) {
      case 0:  // push
        if (!heap.contains(id)) {
          clock += 1.0;
          list.push(id, clock);
          heap.push(id, clock);
        }
        break;
      case 1:  // update (a hit)
        if (heap.contains(id)) {
          clock += 1.0;
          list.update(id, clock);
          heap.update(id, clock);
        }
        break;
      case 2:  // upsert
        clock += 1.0;
        list.upsert(id, clock);
        heap.upsert(id, clock);
        break;
      case 3:  // remove an arbitrary id
        if (heap.contains(id)) {
          list.remove(id);
          heap.remove(id);
        }
        break;
      case 4:  // evict the minimum
        if (!heap.empty()) {
          const std::size_t victim = heap.min_id();
          ASSERT_EQ(list.min_id(), victim);
          list.remove(victim);
          heap.remove(victim);
        }
        break;
    }
    ASSERT_EQ(list.size(), heap.size());
    ASSERT_EQ(list.empty(), heap.empty());
    if (!heap.empty()) {
      ASSERT_EQ(list.min_id(), heap.min_id());
      ASSERT_EQ(list.min_key(), heap.min_key());
    }
    for (std::size_t i = 0; i < kIds; ++i) {
      ASSERT_EQ(list.contains(i), heap.contains(i));
    }
    ASSERT_EQ(list.entries(), heap.entries());
    ASSERT_TRUE(list.check_invariants());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecencyListVsHeap,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace sc::cache
