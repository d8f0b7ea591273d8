// Addressable binary min-heap keyed by double utilities.
//
// The paper (§2.4) calls for a priority queue over cached objects keyed by
// utility, with O(log n) updates when an access changes an object's
// utility. std::priority_queue cannot re-key, so this heap maintains a
// handle (slot id -> heap position) index supporting push / update /
// remove / pop-min, each O(log n). It is the default index of the
// utility engine (cache/policy.h); the LRU kernel, whose keys only ever
// grow, uses the O(1) RecencyList (cache/recency_list.h) instead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sc::cache {

/// Min-heap over dense ids [0, capacity) with updatable keys.
class IndexedMinHeap {
 public:
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  explicit IndexedMinHeap(std::size_t id_capacity)
      : pos_(id_capacity, kNpos) {
    // Every id can be present at most once, so reserving id_capacity
    // makes push() allocation-free for the heap's whole lifetime.
    heap_.reserve(id_capacity);
  }

  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] bool contains(std::size_t id) const {
    return pos_.at(id) != kNpos;
  }

  /// Key of a contained id.
  [[nodiscard]] double key(std::size_t id) const {
    const std::size_t p = pos_.at(id);
    if (p == kNpos) throw std::out_of_range("IndexedMinHeap::key: absent id");
    return heap_[p].key;
  }

  /// Insert id with key; id must not already be present.
  void push(std::size_t id, double key) {
    if (contains(id)) {
      throw std::logic_error("IndexedMinHeap::push: id already present");
    }
    heap_.push_back(Entry{key, id});
    pos_[id] = heap_.size() - 1;
    sift_up(heap_.size() - 1);
  }

  /// Change the key of a contained id (either direction).
  void update(std::size_t id, double key) {
    const std::size_t p = pos_.at(id);
    if (p == kNpos) {
      throw std::out_of_range("IndexedMinHeap::update: absent id");
    }
    const double old = heap_[p].key;
    heap_[p].key = key;
    if (key < old) {
      sift_up(p);
    } else if (key > old) {
      sift_down(p);
    }
  }

  /// Insert or re-key.
  void upsert(std::size_t id, double key) {
    if (contains(id)) {
      update(id, key);
    } else {
      push(id, key);
    }
  }

  /// Id with the minimum key.
  [[nodiscard]] std::size_t min_id() const {
    if (empty()) throw std::out_of_range("IndexedMinHeap::min_id: empty");
    return heap_[0].id;
  }

  [[nodiscard]] double min_key() const {
    if (empty()) throw std::out_of_range("IndexedMinHeap::min_key: empty");
    return heap_[0].key;
  }

  /// Remove and return the minimum-key id.
  std::size_t pop_min() {
    const std::size_t id = min_id();
    remove(id);
    return id;
  }

  /// Drop every entry in O(size) (vs. O(n log n) for repeated pop_min),
  /// keeping the backing storage for reuse.
  void clear() noexcept {
    for (const Entry& e : heap_) pos_[e.id] = kNpos;
    heap_.clear();
  }

  /// Re-initialize for a (possibly different) id capacity, reusing the
  /// backing storage: after reset the heap is indistinguishable from a
  /// freshly constructed IndexedMinHeap(id_capacity).
  void reset(std::size_t id_capacity) {
    heap_.clear();
    pos_.assign(id_capacity, kNpos);
    heap_.reserve(id_capacity);
  }

  /// Remove an arbitrary contained id.
  void remove(std::size_t id) {
    const std::size_t p = pos_.at(id);
    if (p == kNpos) {
      throw std::out_of_range("IndexedMinHeap::remove: absent id");
    }
    const std::size_t last = heap_.size() - 1;
    if (p != last) {
      swap_entries(p, last);
      heap_.pop_back();
      pos_[id] = kNpos;
      // The moved entry may need to go either way.
      sift_up(p);
      sift_down(p);
    } else {
      heap_.pop_back();
      pos_[id] = kNpos;
    }
  }

  /// Every (id, key) entry, sorted by id (deterministic order for
  /// snapshots). Materialized per call; audit/persistence hook, not for
  /// hot paths.
  [[nodiscard]] std::vector<std::pair<std::size_t, double>> entries() const {
    std::vector<std::pair<std::size_t, double>> out;
    out.reserve(heap_.size());
    for (const Entry& e : heap_) out.emplace_back(e.id, e.key);
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Validate the heap property and index consistency (test hook).
  [[nodiscard]] bool check_invariants() const {
    for (std::size_t i = 1; i < heap_.size(); ++i) {
      if (heap_[i].key < heap_[(i - 1) / 2].key) return false;
    }
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      if (pos_[heap_[i].id] != i) return false;
    }
    std::size_t present = 0;
    for (const std::size_t p : pos_) {
      if (p != kNpos) ++present;
    }
    return present == heap_.size();
  }

 private:
  struct Entry {
    double key;
    std::size_t id;
  };

  void swap_entries(std::size_t a, std::size_t b) {
    std::swap(heap_[a], heap_[b]);
    pos_[heap_[a].id] = a;
    pos_[heap_[b].id] = b;
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (heap_[i].key >= heap_[parent].key) break;
      swap_entries(i, parent);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t l = 2 * i + 1;
      const std::size_t r = l + 1;
      std::size_t smallest = i;
      if (l < n && heap_[l].key < heap_[smallest].key) smallest = l;
      if (r < n && heap_[r].key < heap_[smallest].key) smallest = r;
      if (smallest == i) break;
      swap_entries(i, smallest);
      i = smallest;
    }
  }

  std::vector<Entry> heap_;
  std::vector<std::size_t> pos_;
};

}  // namespace sc::cache
