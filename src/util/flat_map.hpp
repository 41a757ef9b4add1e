// Sorted-vector flat map/set.
//
// Drop-in replacements for the std::map / std::set subset the per-round
// accounting structures use (Πk+2 own/peer stores, Protocol χ report
// bookkeeping, summary buckets, the equivocation ledgers). Keys live
// contiguously in one sorted vector: lookups binary-search a cache-dense
// array instead of chasing red-black tree nodes, and iteration is a linear
// scan in strictly increasing key order — the SAME order std::map yields,
// which is load-bearing: identical seeds must produce byte-identical
// suspicion sets, so swapping the container must not reorder any walk.
//
// Inserts shift the tail (O(n)), so a FlatMap suits a map whose inserts
// arrive mostly in key order (they append) or that stays at a few hundred
// entries; there contiguity wins over asymptotics. A store filled in
// arrival order with thousands of entries per round is the
// counterexample: Π2's per-router statement slots (~17k per round on
// generated Sprintlink) live in a dense table instead (detection/pi2.hpp),
// and χ's exit and calibration stores, keyed by random packet
// fingerprints and never iterated, are hash maps (detection/chi.hpp).
// Not a general replacement: iterators invalidate on insert and erase,
// like a vector's.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace fatih::util {

/// std::map-compatible subset over a key-sorted vector of pairs.
template <typename Key, typename T, typename Compare = std::less<Key>>
class FlatMap {
 public:
  using key_type = Key;
  using mapped_type = T;
  using value_type = std::pair<Key, T>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  [[nodiscard]] iterator begin() { return v_.begin(); }
  [[nodiscard]] iterator end() { return v_.end(); }
  [[nodiscard]] const_iterator begin() const { return v_.begin(); }
  [[nodiscard]] const_iterator end() const { return v_.end(); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] bool empty() const { return v_.empty(); }
  void clear() { v_.clear(); }

  [[nodiscard]] iterator lower_bound(const Key& k) {
    return std::lower_bound(v_.begin(), v_.end(), k, KeyLess{});
  }
  [[nodiscard]] const_iterator lower_bound(const Key& k) const {
    return std::lower_bound(v_.begin(), v_.end(), k, KeyLess{});
  }

  [[nodiscard]] iterator find(const Key& k) {
    auto it = lower_bound(k);
    return it != v_.end() && !Compare{}(k, it->first) ? it : v_.end();
  }
  [[nodiscard]] const_iterator find(const Key& k) const {
    auto it = lower_bound(k);
    return it != v_.end() && !Compare{}(k, it->first) ? it : v_.end();
  }
  [[nodiscard]] bool contains(const Key& k) const { return find(k) != v_.end(); }
  [[nodiscard]] std::size_t count(const Key& k) const { return contains(k) ? 1 : 0; }

  [[nodiscard]] T& at(const Key& k) {
    auto it = find(k);
    if (it == v_.end()) throw std::out_of_range("FlatMap::at");
    return it->second;
  }
  [[nodiscard]] const T& at(const Key& k) const {
    auto it = find(k);
    if (it == v_.end()) throw std::out_of_range("FlatMap::at");
    return it->second;
  }

  T& operator[](const Key& k) {
    auto it = lower_bound(k);
    if (it == v_.end() || Compare{}(k, it->first)) {
      it = v_.insert(it, value_type(k, T{}));
    }
    return it->second;
  }

  std::pair<iterator, bool> insert(value_type kv) {
    auto it = lower_bound(kv.first);
    if (it != v_.end() && !Compare{}(kv.first, it->first)) return {it, false};
    return {v_.insert(it, std::move(kv)), true};
  }

  template <typename... Args>
  std::pair<iterator, bool> emplace(Args&&... args) {
    return insert(value_type(std::forward<Args>(args)...));
  }

  iterator erase(iterator it) { return v_.erase(it); }
  iterator erase(const_iterator it) { return v_.erase(it); }
  std::size_t erase(const Key& k) {
    auto it = find(k);
    if (it == v_.end()) return 0;
    v_.erase(it);
    return 1;
  }

  /// Bulk removal in one pass; surviving order (and hence iteration order)
  /// is preserved.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    return std::erase_if(v_, pred);
  }

 private:
  struct KeyLess {
    bool operator()(const value_type& a, const Key& b) const { return Compare{}(a.first, b); }
    bool operator()(const Key& a, const value_type& b) const { return Compare{}(a, b.first); }
  };
  std::vector<value_type> v_;
};

/// std::set-compatible subset over a sorted vector.
template <typename Key, typename Compare = std::less<Key>>
class FlatSet {
 public:
  using key_type = Key;
  using value_type = Key;
  using iterator = typename std::vector<Key>::const_iterator;
  using const_iterator = iterator;

  [[nodiscard]] const_iterator begin() const { return v_.begin(); }
  [[nodiscard]] const_iterator end() const { return v_.end(); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] bool empty() const { return v_.empty(); }
  void clear() { v_.clear(); }

  [[nodiscard]] const_iterator find(const Key& k) const {
    auto it = std::lower_bound(v_.begin(), v_.end(), k, Compare{});
    return it != v_.end() && !Compare{}(k, *it) ? const_iterator(it) : end();
  }
  [[nodiscard]] bool contains(const Key& k) const { return find(k) != end(); }
  [[nodiscard]] std::size_t count(const Key& k) const { return contains(k) ? 1 : 0; }

  std::pair<const_iterator, bool> insert(Key k) {
    auto it = std::lower_bound(v_.begin(), v_.end(), k, Compare{});
    if (it != v_.end() && !Compare{}(k, *it)) return {const_iterator(it), false};
    return {const_iterator(v_.insert(it, std::move(k))), true};
  }

  std::size_t erase(const Key& k) {
    auto it = std::lower_bound(v_.begin(), v_.end(), k, Compare{});
    if (it == v_.end() || Compare{}(k, *it)) return 0;
    v_.erase(it);
    return 1;
  }

  /// Bulk removal in one pass; surviving order is preserved.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    return std::erase_if(v_, pred);
  }

 private:
  std::vector<Key> v_;
};

/// std::erase_if analogue (found by ADL); one linear pass, order of
/// surviving elements preserved.
template <typename Key, typename T, typename Compare, typename Pred>
std::size_t erase_if(FlatMap<Key, T, Compare>& m, Pred pred) {
  return m.erase_if(pred);
}

}  // namespace fatih::util
