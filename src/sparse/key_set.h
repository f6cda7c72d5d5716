// Flat open-addressing set of 64-bit keys.
//
// The generators reject duplicate (row, col) draws by packing each
// coordinate into one uint64 and asking a set whether it is new. A node
// based std::unordered_set spends ~40 bytes per key on nodes and buckets;
// this table stores the keys themselves in one power-of-two array with
// linear probing, kept at most 3/4 full (11-21 bytes per key when sized
// for the expected count).
// insert() reports "newly added" exactly like
// std::unordered_set::insert().second, so callers make the same
// accept/reject decisions and draw the same random numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cosparse::sparse {

class FlatKeySet {
 public:
  /// Sizes the table so `expected` keys fit without growing.
  explicit FlatKeySet(std::size_t expected = 0)
      : slots_(capacity_for(expected), kEmpty) {}

  /// Adds `key`; returns true when it was not in the set yet.
  bool insert(std::uint64_t key) {
    if (key == kEmpty) {
      // The empty-slot marker cannot live in the table; track it aside.
      const bool added = !has_marker_key_;
      has_marker_key_ = true;
      return added;
    }
    std::size_t i = find_slot(key);
    if (slots_[i] == key) return false;
    if ((used_ + 1) * 4 > slots_.size() * 3) {
      grow();
      i = find_slot(key);
    }
    slots_[i] = key;
    ++used_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    if (key == kEmpty) return has_marker_key_;
    return slots_[find_slot(key)] == key;
  }

  [[nodiscard]] std::size_t size() const {
    return used_ + (has_marker_key_ ? 1 : 0);
  }
  /// Table slots (a power of two); exposed for tests.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  static std::size_t capacity_for(std::size_t keys) {
    std::size_t cap = 16;
    while (cap * 3 < keys * 4) cap *= 2;
    return cap;
  }

  /// splitmix64's finalizer: packed coordinates differ mostly in their
  /// low bits of each half, which a plain mask would cluster.
  static std::uint64_t mix(std::uint64_t k) {
    k ^= k >> 30;
    k *= 0xBF58476D1CE4E5B9ULL;
    k ^= k >> 27;
    k *= 0x94D049BB133111EBULL;
    k ^= k >> 31;
    return k;
  }

  /// Slot holding `key`, or the empty slot where it would go.
  [[nodiscard]] std::size_t find_slot(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix(key)) & mask;
    while (slots_[i] != kEmpty && slots_[i] != key) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<std::uint64_t> old(slots_.size() * 2, kEmpty);
    old.swap(slots_);
    for (const std::uint64_t k : old) {
      if (k != kEmpty) slots_[find_slot(k)] = k;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t used_ = 0;  ///< occupied table slots
  bool has_marker_key_ = false;
};

}  // namespace cosparse::sparse
