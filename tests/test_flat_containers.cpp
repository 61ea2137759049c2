// flat_set / flat_u64_map: the dense-core replacements for the engine's
// std::set / std::map members.  flat_set must be observably identical to
// std::set (ascending iteration — the determinism contract); the hash map
// must agree with a reference map under randomized workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/flat_hash.h"
#include "common/flat_set.h"
#include "common/rng.h"

namespace asyncrd {
namespace {

// --- flat_set -------------------------------------------------------------

TEST(FlatSet, BasicInsertContainsErase) {
  flat_set<int> s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.insert(5));
  EXPECT_TRUE(s.insert(3));
  EXPECT_TRUE(s.insert(9));
  EXPECT_FALSE(s.insert(5));  // duplicate
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(4));
  EXPECT_EQ(s.count(9), 1u);
  EXPECT_EQ(s.erase(3), 1u);
  EXPECT_EQ(s.erase(3), 0u);
  EXPECT_EQ(s.size(), 2u);
}

TEST(FlatSet, IteratesInAscendingOrderLikeStdSet) {
  flat_set<int> fs;
  std::set<int> ss;
  rng r(7);
  for (int i = 0; i < 500; ++i) {
    const int v = static_cast<int>(r.below(200));
    EXPECT_EQ(fs.insert(v), ss.insert(v).second);
  }
  ASSERT_EQ(fs.size(), ss.size());
  EXPECT_TRUE(fs == ss);  // element-wise, in order
  EXPECT_TRUE(std::is_sorted(fs.begin(), fs.end()));
}

TEST(FlatSet, BulkInsertMergesUnsortedDuplicatedInput) {
  flat_set<int> fs = {10, 20, 30};
  const std::vector<int> incoming = {25, 10, 5, 25, 40, 20};
  fs.insert(incoming.begin(), incoming.end());
  EXPECT_TRUE(fs == std::set<int>({5, 10, 20, 25, 30, 40}));
}

TEST(FlatSet, PositionalRangeEraseRemovesPrefix) {
  // self_query extracts the k smallest ids as a prefix slice.
  flat_set<int> fs = {1, 2, 3, 4, 5};
  std::vector<int> taken(fs.begin(), fs.begin() + 3);
  fs.erase(fs.begin(), fs.begin() + 3);
  EXPECT_EQ(taken, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(fs == std::set<int>({4, 5}));
}

TEST(FlatSet, FindWorks) {
  const flat_set<int> fs = {42, 4, 23, 8, 16, 15};
  EXPECT_TRUE(fs == (std::set<int>{4, 8, 15, 16, 23, 42}));
  EXPECT_NE(fs.find(15), fs.end());
  EXPECT_EQ(*fs.find(15), 15);
  EXPECT_EQ(fs.find(14), fs.end());
}

TEST(FlatSet, RandomizedParityWithStdSet) {
  flat_set<std::uint32_t> fs;
  std::set<std::uint32_t> ss;
  rng r(99);
  std::vector<std::uint32_t> batch;
  // Bulk insert of an unsorted range with duplicates drawn from
  // [from, from + span).
  const auto bulk = [&](std::uint32_t from, std::uint32_t span) {
    batch.clear();
    const std::uint64_t k = 1 + r.below(12);
    for (std::uint64_t i = 0; i < k; ++i)
      batch.push_back(from + static_cast<std::uint32_t>(r.below(span)));
    batch.push_back(batch.front());
    fs.insert(batch.begin(), batch.end());
    ss.insert(batch.begin(), batch.end());
    EXPECT_TRUE(fs == ss);
  };
  for (int step = 0; step < 5000; ++step) {
    const std::uint32_t v = static_cast<std::uint32_t>(r.below(400));
    switch (r.below(5)) {
      case 0:
        EXPECT_EQ(fs.insert(v), ss.insert(v).second);
        break;
      case 1:
        EXPECT_EQ(fs.erase(v), ss.erase(v));
        break;
      case 2: {
        // A range landing below, inside or above the existing values.
        const std::uint32_t lo = ss.empty() ? 0 : *ss.begin();
        const std::uint32_t hi = ss.empty() ? 0 : *ss.rbegin();
        switch (r.below(3)) {
          case 0: bulk(0, lo + 1); break;
          case 1: bulk(lo, hi - lo + 1); break;
          default: bulk(hi, 50); break;
        }
        break;
      }
      case 3:
        // Now and then, start over with a range into the empty set.
        if (r.below(50) == 0) {
          fs.clear();
          ss.clear();
          bulk(static_cast<std::uint32_t>(r.below(400)), 100);
        }
        break;
      default:
        EXPECT_EQ(fs.contains(v), ss.count(v) == 1);
    }
  }
  EXPECT_TRUE(fs == ss);
}

// --- flat_u64_map ---------------------------------------------------------

TEST(FlatU64Map, InsertFindGrow) {
  flat_u64_map m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(1), flat_u64_map::npos);
  for (std::uint64_t k = 0; k < 1000; ++k)
    m.insert(k * 3 + 1, static_cast<std::uint32_t>(k));
  EXPECT_EQ(m.size(), 1000u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(m.find(k * 3 + 1), static_cast<std::uint32_t>(k));
    EXPECT_EQ(m.find(k * 3 + 2), flat_u64_map::npos);
  }
}

TEST(FlatU64Map, TryInsertIsSingleProbeUpsert) {
  flat_u64_map m;
  EXPECT_TRUE(m.try_insert(7, 1));
  EXPECT_FALSE(m.try_insert(7, 2));  // present: value untouched
  EXPECT_EQ(m.find(7), 1u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatU64Map, ReserveAvoidsLosingEntries) {
  flat_u64_map m;
  m.reserve(5000);
  for (std::uint64_t k = 1; k <= 5000; ++k)
    m.insert(k, static_cast<std::uint32_t>(k));
  for (std::uint64_t k = 1; k <= 5000; ++k)
    ASSERT_EQ(m.find(k), static_cast<std::uint32_t>(k));
}

TEST(FlatU64Map, ForEachVisitsEveryPairOnce) {
  flat_u64_map m;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  rng r(3);
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t k = r.below(1000) + 1;
    const auto v = static_cast<std::uint32_t>(i);
    if (m.try_insert(k, v)) ref.emplace(k, v);
  }
  std::unordered_map<std::uint64_t, std::uint32_t> seen;
  m.for_each([&](std::uint64_t k, std::uint32_t v) {
    EXPECT_TRUE(seen.emplace(k, v).second) << "duplicate visit of key " << k;
  });
  EXPECT_EQ(seen, ref);
}

TEST(FlatU64Map, ClearResets) {
  flat_u64_map m;
  m.insert(1, 2);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(1), flat_u64_map::npos);
  m.insert(1, 3);  // usable after clear
  EXPECT_EQ(m.find(1), 3u);
}

}  // namespace
}  // namespace asyncrd
