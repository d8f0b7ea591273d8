// Key-ordered intrusive doubly-linked list over dense ids: the LRU
// kernel's priority index.
//
// LRU keys an object by a strictly increasing logical clock, so every
// access re-keys the object to the maximum and every eviction takes the
// minimum. On IndexedMinHeap both are full-depth sift_downs; on a list
// kept in key order both are O(1): push and update walk back from the
// tail, which stops at once for a new maximum key, and the minimum is the
// head. Out-of-order keys (a snapshot's id-ordered entries replayed by
// load_state) still give a correctly ordered list, at a walk linear in
// the list length per insert.
//
// The class exposes the IndexedMinHeap surface the utility engine
// (cache/policy.h) uses, so UtilityPolicy<Kernel> runs one body over
// either index. Keys that tie keep insertion order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sc::cache {

/// Ordered list over dense ids [0, capacity) with updatable keys; the
/// head holds the minimum key.
class RecencyList {
 public:
  explicit RecencyList(std::size_t id_capacity) { reset(id_capacity); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool contains(std::size_t id) const {
    return nodes_.at(id).prev != kAbsent;
  }

  /// Key of a contained id.
  [[nodiscard]] double key(std::size_t id) const {
    return nodes_[present(id, "RecencyList::key: absent id")].key;
  }

  /// Insert id with key; id must not already be present.
  void push(std::size_t id, double key) {
    if (contains(id)) {
      throw std::logic_error("RecencyList::push: id already present");
    }
    nodes_[id].key = key;
    link_from_tail(static_cast<std::uint32_t>(id));
    ++size_;
  }

  /// Change the key of a contained id (either direction). A key that
  /// still fits between its neighbours keeps its place.
  void update(std::size_t id, double key) {
    const std::uint32_t i = present(id, "RecencyList::update: absent id");
    Node& n = nodes_[i];
    n.key = key;
    if ((n.prev == kNil || nodes_[n.prev].key <= key) &&
        (n.next == kNil || key <= nodes_[n.next].key)) {
      return;
    }
    unlink(i);
    link_from_tail(i);
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
    if (empty()) throw std::out_of_range("RecencyList::min_id: empty");
    return head_;
  }

  [[nodiscard]] double min_key() const {
    if (empty()) throw std::out_of_range("RecencyList::min_key: empty");
    return nodes_[head_].key;
  }

  /// Remove an arbitrary contained id.
  void remove(std::size_t id) {
    const std::uint32_t i = present(id, "RecencyList::remove: absent id");
    unlink(i);
    nodes_[i].prev = kAbsent;
    --size_;
  }

  /// Drop every entry in O(size), keeping the backing storage.
  void clear() noexcept {
    for (std::uint32_t i = head_; i != kNil;) {
      const std::uint32_t next = nodes_[i].next;
      nodes_[i] = Node{};
      i = next;
    }
    head_ = tail_ = kNil;
    size_ = 0;
  }

  /// Re-initialize for a (possibly different) id capacity, reusing the
  /// backing storage: after reset the list is indistinguishable from a
  /// freshly constructed RecencyList(id_capacity).
  void reset(std::size_t id_capacity) {
    if (id_capacity >= kAbsent) {
      throw std::length_error("RecencyList: id capacity exceeds uint32");
    }
    nodes_.assign(id_capacity, Node{});
    head_ = tail_ = kNil;
    size_ = 0;
  }

  /// Every (id, key) entry, sorted by id (deterministic order for
  /// snapshots). Materialized per call; audit/persistence hook, not for
  /// hot paths.
  [[nodiscard]] std::vector<std::pair<std::size_t, double>> entries() const {
    std::vector<std::pair<std::size_t, double>> out;
    out.reserve(size_);
    for (std::size_t id = 0; id < nodes_.size(); ++id) {
      if (nodes_[id].prev != kAbsent) out.emplace_back(id, nodes_[id].key);
    }
    return out;
  }

  /// Validate key order, link symmetry and the size count (test and
  /// audit hook). Bounded by the node count, so a corrupted cycle
  /// terminates.
  [[nodiscard]] bool check_invariants() const {
    std::size_t walked = 0;
    std::uint32_t prev = kNil;
    for (std::uint32_t i = head_; i != kNil; i = nodes_[i].next) {
      if (i >= nodes_.size() || ++walked > size_) return false;
      const Node& n = nodes_[i];
      if (n.prev != prev) return false;
      if (prev != kNil && n.key < nodes_[prev].key) return false;
      prev = i;
    }
    if (prev != tail_ || walked != size_) return false;
    std::size_t present_count = 0;
    for (const Node& n : nodes_) {
      if (n.prev != kAbsent) ++present_count;
    }
    return present_count == size_;
  }

 private:
  friend struct RecencyListTestPeer;  // corrupts links in invariant tests

  /// End-of-list link.
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  /// `prev` of an id that is not in the list.
  static constexpr std::uint32_t kAbsent = 0xFFFFFFFEu;

  struct Node {
    double key = 0.0;
    std::uint32_t prev = kAbsent;
    std::uint32_t next = kNil;
  };

  /// `id` as a node index; throws `what` unless it is in the list.
  [[nodiscard]] std::uint32_t present(std::size_t id,
                                      const char* what) const {
    if (!contains(id)) throw std::out_of_range(what);
    return static_cast<std::uint32_t>(id);
  }

  /// Insert i after the last node whose key is <= i's key.
  void link_from_tail(std::uint32_t i) {
    const double key = nodes_[i].key;
    std::uint32_t after = tail_;
    while (after != kNil && key < nodes_[after].key) {
      after = nodes_[after].prev;
    }
    const std::uint32_t before = after == kNil ? head_ : nodes_[after].next;
    nodes_[i].prev = after;
    nodes_[i].next = before;
    (after == kNil ? head_ : nodes_[after].next) = i;
    (before == kNil ? tail_ : nodes_[before].prev) = i;
  }

  /// Detach i from its neighbours; i's own links are left stale.
  void unlink(std::uint32_t i) {
    const Node& n = nodes_[i];
    (n.prev == kNil ? head_ : nodes_[n.prev].next) = n.next;
    (n.next == kNil ? tail_ : nodes_[n.next].prev) = n.prev;
  }

  std::vector<Node> nodes_;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::size_t size_ = 0;
};

}  // namespace sc::cache
