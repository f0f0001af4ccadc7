// NodePool: spare nodes for a node-based map with steady churn.
//
// A map that gains one entry and loses one per operation (the TC's
// outstanding-op table, the DC's duplicate filter) would otherwise pay a heap
// allocation and a free for every operation. The pool keeps the nodes
// that erasures extract (C++17 node handles) and hands them back to later
// insertions, so such a map stops allocating once warm. A kept node also
// keeps its mapped value, so assigning a new value into it reuses that
// value's buffers too.
//
// Not thread-safe: guard the pool with the mutex that guards its map(s).
// One pool may serve several maps of the same type.
#pragma once

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace untx {

template <typename Map>
class NodePool {
 public:
  using Node = typename Map::node_type;

  explicit NodePool(size_t max_spare) : max_spare_(max_spare) {}

  /// (*map)[key] = value, on a spare node when the pool has one.
  template <typename V>
  void Put(Map* map, const typename Map::key_type& key, V&& value) {
    if (spare_.empty()) {
      map->insert_or_assign(key, std::forward<V>(value));
      return;
    }
    Node node = std::move(spare_.back());
    spare_.pop_back();
    node.key() = key;
    node.mapped() = std::forward<V>(value);
    auto result = map->insert(std::move(node));
    if (!result.inserted) {
      result.position->second = std::move(result.node.mapped());
      Keep(std::move(result.node));
    }
  }

  /// Inserts `key`, absent from *map, just before `hint` (as map->insert
  /// with a hint), on a spare node when the pool has one. The mapped
  /// value is left as the node's last user left it (or default), so
  /// assigning into it reuses its buffers.
  typename Map::iterator Insert(Map* map, typename Map::iterator hint,
                                const typename Map::key_type& key) {
    if (spare_.empty()) return map->try_emplace(hint, key);
    Node node = std::move(spare_.back());
    spare_.pop_back();
    node.key() = key;
    return map->insert(hint, std::move(node));
  }

  /// map->erase(it), keeping the node; returns the following iterator.
  typename Map::iterator Erase(Map* map, typename Map::iterator it) {
    auto next = std::next(it);
    Keep(map->extract(it));
    return next;
  }

 private:
  void Keep(Node node) {
    if (spare_.size() < max_spare_) spare_.push_back(std::move(node));
  }

  std::vector<Node> spare_;
  const size_t max_spare_;
};

}  // namespace untx
