// Enumerator tests: exhaustiveness, distinctness, ordering, dedup caches.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <set>

#include "core/enumerate.hpp"

namespace erpi::core {
namespace {

std::vector<int> ids(int n) {
  std::vector<int> out(static_cast<size_t>(n));
  std::iota(out.begin(), out.end(), 0);
  return out;
}

std::set<std::string> drain_keys(Enumerator& e, uint64_t cap = UINT64_MAX) {
  std::set<std::string> keys;
  uint64_t count = 0;
  while (count++ < cap) {
    const auto il = e.next();
    if (!il) break;
    EXPECT_TRUE(keys.insert(il->key()).second) << "duplicate " << il->key();
  }
  return keys;
}

// Every enumerator must cover all n! distinct permutations exactly once.
class ExhaustivenessTest : public ::testing::TestWithParam<int> {};

TEST_P(ExhaustivenessTest, DfsCoversAllPermutations) {
  DfsEnumerator dfs(ids(GetParam()));
  EXPECT_EQ(drain_keys(dfs).size(), factorial_saturated(GetParam()));
  EXPECT_EQ(dfs.emitted(), factorial_saturated(GetParam()));
}

TEST_P(ExhaustivenessTest, RandomCoversAllPermutations) {
  RandomEnumerator rand(ids(GetParam()), 99);
  EXPECT_EQ(drain_keys(rand).size(), factorial_saturated(GetParam()));
}

TEST_P(ExhaustivenessTest, GroupedLexicographicCoversUnitPermutations) {
  std::vector<EventUnit> units;
  for (int i = 0; i < GetParam(); ++i) units.push_back({{i}});
  GroupedEnumerator grouped(units);
  EXPECT_EQ(drain_keys(grouped).size(), factorial_saturated(GetParam()));
}

TEST_P(ExhaustivenessTest, GroupedShuffledCoversUnitPermutations) {
  std::vector<EventUnit> units;
  for (int i = 0; i < GetParam(); ++i) units.push_back({{i}});
  GroupedEnumerator grouped(units, GroupedEnumerator::Order::Shuffled, 5);
  EXPECT_EQ(drain_keys(grouped).size(), factorial_saturated(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(SmallN, ExhaustivenessTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(DfsEnumerator, FirstLeafIsIdentityAndOrderIsLexicographic) {
  DfsEnumerator dfs(ids(3));
  EXPECT_EQ(dfs.next()->key(), "0,1,2");
  EXPECT_EQ(dfs.next()->key(), "0,2,1");
  EXPECT_EQ(dfs.next()->key(), "1,0,2");
  EXPECT_GT(dfs.nodes_expanded(), 0u);
}

TEST(DfsEnumerator, BranchSeedPermutesChildOrder) {
  DfsEnumerator plain(ids(5));
  DfsEnumerator seeded(ids(5), 1234);
  EXPECT_NE(plain.next()->key(), seeded.next()->key());
  // still exhaustive and duplicate-free
  seeded.reset();
  EXPECT_EQ(drain_keys(seeded).size(), 120u);
}

TEST(DfsEnumerator, EmptyInputExhaustsImmediately) {
  DfsEnumerator dfs({});
  EXPECT_FALSE(dfs.next());
}

TEST(RandomEnumerator, DeterministicPerSeed) {
  RandomEnumerator a(ids(6), 7);
  RandomEnumerator b(ids(6), 7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next()->key(), b.next()->key());
  RandomEnumerator c(ids(6), 8);
  a.reset();
  EXPECT_NE(a.next()->key(), c.next()->key());
}

TEST(RandomEnumerator, ShuffleCountGrowsWithCoverage) {
  RandomEnumerator rand(ids(4), 3);
  drain_keys(rand);
  // must have shuffled strictly more times than it emitted (rejected dups)
  EXPECT_GT(rand.shuffles(), 24u);
  EXPECT_GT(rand.cache_bytes(), 0u);
}

TEST(GroupedEnumerator, FlattensGroupsContiguously) {
  std::vector<EventUnit> units{{{0, 1}}, {{2}}, {{3, 4}}};
  GroupedEnumerator grouped(units);
  const auto keys = drain_keys(grouped);
  EXPECT_EQ(keys.size(), 6u);  // 3 units -> 3!
  for (const auto& key : keys) {
    // "0,1" always contiguous, "3,4" always contiguous
    EXPECT_NE(key.find("0,1"), std::string::npos) << key;
    EXPECT_NE(key.find("3,4"), std::string::npos) << key;
  }
}

TEST(GroupedEnumerator, ShuffledEmitsCapturedOrderFirst) {
  std::vector<EventUnit> units{{{0}}, {{1}}, {{2}}, {{3}}};
  GroupedEnumerator grouped(units, GroupedEnumerator::Order::Shuffled, 17);
  EXPECT_EQ(grouped.next()->key(), "0,1,2,3");
}

TEST(GroupedEnumerator, UniverseSizeIsUnitFactorial) {
  std::vector<EventUnit> units{{{0, 1, 2}}, {{3}}, {{4, 5}}};
  GroupedEnumerator grouped(units);
  EXPECT_EQ(grouped.universe_size(), 6u);
}

TEST(Enumerators, ResetRestartsFromScratch) {
  DfsEnumerator dfs(ids(4));
  const auto first = dfs.next()->key();
  dfs.next();
  dfs.reset();
  EXPECT_EQ(dfs.next()->key(), first);
  EXPECT_EQ(dfs.emitted(), 1u);
}

// ---------------------------------------------------------------------------
// Packed dedup keys
// ---------------------------------------------------------------------------

TEST(PackedDedupKeys, WidthScalesWithMaxId) {
  EXPECT_EQ(packed_key_width(0), 1);
  EXPECT_EQ(packed_key_width(255), 1);
  EXPECT_EQ(packed_key_width(256), 2);
  EXPECT_EQ(packed_key_width(65535), 2);
  EXPECT_EQ(packed_key_width(65536), 4);
}

TEST(PackedDedupKeys, DistinctSequencesPackToDistinctKeys) {
  const std::vector<size_t> a{0, 1, 2};
  const std::vector<size_t> b{0, 2, 1};
  EXPECT_NE(packed_dedup_key(a, 1), packed_dedup_key(b, 1));
  EXPECT_EQ(packed_dedup_key(a, 1).size(), 3u);
  EXPECT_EQ(packed_dedup_key(a, 2).size(), 6u);
  // Multi-byte little-endian encoding keeps ids > 255 distinct.
  const std::vector<int> c{256, 1};
  const std::vector<int> d{0, 1};
  EXPECT_NE(packed_dedup_key(c, 2), packed_dedup_key(d, 2));
}

TEST(PackedDedupKeys, CacheBytesTracksEmittedCount) {
  // Every shuffled emission inserts exactly one new key, so cache_bytes is an
  // exact linear function of the emitted count: n * width + 48 per key.
  std::vector<EventUnit> units{{{0}}, {{1}}, {{2}}, {{3}}};
  GroupedEnumerator shuffled(units, GroupedEnumerator::Order::Shuffled, 11);
  uint64_t emitted = 0;
  while (shuffled.next()) {
    ++emitted;
    EXPECT_EQ(shuffled.cache_bytes(), emitted * (4 * 1 + 48));
  }
  EXPECT_EQ(emitted, 24u);

  RandomEnumerator rand(ids(4), 11);
  emitted = 0;
  while (rand.next()) {
    ++emitted;
    EXPECT_EQ(rand.cache_bytes(), emitted * (4 * 1 + 48));
  }
  EXPECT_EQ(emitted, 24u);
}

}  // namespace
}  // namespace erpi::core
