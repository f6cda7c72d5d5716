// FlatKeySet: same answers as std::unordered_set, across growth.
#include "sparse/key_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>

#include "common/rng.h"

namespace cosparse::sparse {
namespace {

TEST(FlatKeySet, MatchesUnorderedSetAcrossGrowth) {
  // Start small so the table doubles many times; draw from a narrow range
  // so about half the inserts are duplicates.
  FlatKeySet flat(4);
  std::unordered_set<std::uint64_t> ref;
  Rng rng(7, "flat_key_set");
  const std::size_t initial_capacity = flat.capacity();
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t row = rng.next_below(400);
    const std::uint64_t col = rng.next_below(400);
    const std::uint64_t key = (row << 32) | col;
    ASSERT_EQ(flat.insert(key), ref.insert(key).second) << "insert " << i;
    ASSERT_EQ(flat.size(), ref.size());
  }
  EXPECT_GT(flat.capacity(), initial_capacity * 1000);
  for (std::uint64_t row = 0; row < 400; ++row) {
    for (std::uint64_t col = 0; col < 400; ++col) {
      const std::uint64_t key = (row << 32) | col;
      ASSERT_EQ(flat.contains(key), ref.count(key) == 1);
    }
  }
}

TEST(FlatKeySet, StaysAtMostThreeQuartersFull) {
  FlatKeySet flat(1000);
  const std::size_t reserved = flat.capacity();
  for (std::uint64_t k = 0; k < 1000; ++k) EXPECT_TRUE(flat.insert(k * 97));
  EXPECT_EQ(flat.capacity(), reserved);  // `expected` keys never grow it
  EXPECT_LE(flat.size() * 4, flat.capacity() * 3);
  EXPECT_EQ(flat.capacity() & (flat.capacity() - 1), 0u);
}

TEST(FlatKeySet, ZeroAndAllOnesAreOrdinaryKeys) {
  FlatKeySet flat;
  const std::uint64_t all_ones = ~std::uint64_t{0};
  EXPECT_FALSE(flat.contains(0));
  EXPECT_FALSE(flat.contains(all_ones));
  EXPECT_TRUE(flat.insert(0));
  EXPECT_TRUE(flat.insert(all_ones));
  EXPECT_FALSE(flat.insert(0));
  EXPECT_FALSE(flat.insert(all_ones));
  EXPECT_TRUE(flat.contains(0));
  EXPECT_TRUE(flat.contains(all_ones));
  EXPECT_EQ(flat.size(), 2u);
}

}  // namespace
}  // namespace cosparse::sparse
