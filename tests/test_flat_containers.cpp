// flat_set / flat_u64_map: the dense-core replacements for the engine's
// std::set / std::map members.  flat_set must be observably identical to
// std::set (ascending iteration — the determinism contract) in its sorted
// and its bitmap form, and move between the forms by its promote and demote
// rule; the hash map must agree with a reference map under randomized
// workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
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
  flat_set<node_id> s;
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
  flat_set<node_id> fs;
  std::set<node_id> ss;
  rng r(7);
  for (int i = 0; i < 500; ++i) {
    const node_id v = static_cast<node_id>(r.below(200));
    EXPECT_EQ(fs.insert(v), ss.insert(v).second);
  }
  ASSERT_EQ(fs.size(), ss.size());
  EXPECT_TRUE(fs == ss);  // element-wise, in order
  EXPECT_TRUE(std::is_sorted(fs.begin(), fs.end()));
}

TEST(FlatSet, BulkInsertMergesUnsortedDuplicatedInput) {
  flat_set<node_id> fs = {10, 20, 30};
  const std::vector<node_id> incoming = {25, 10, 5, 25, 40, 20};
  fs.insert(incoming.begin(), incoming.end());
  EXPECT_TRUE(fs == std::set<node_id>({5, 10, 20, 25, 30, 40}));
}

TEST(FlatSet, PositionalRangeEraseRemovesPrefix) {
  // self_query extracts the k smallest ids as a prefix slice.
  flat_set<node_id> fs = {1, 2, 3, 4, 5};
  std::vector<node_id> taken(fs.begin(), std::next(fs.begin(), 3));
  fs.erase(fs.begin(), std::next(fs.begin(), 3));
  EXPECT_EQ(taken, (std::vector<node_id>{1, 2, 3}));
  EXPECT_TRUE(fs == std::set<node_id>({4, 5}));
}

TEST(FlatSet, FindWorks) {
  const flat_set<node_id> fs = {42, 4, 23, 8, 16, 15};
  EXPECT_TRUE(fs == (std::set<node_id>{4, 8, 15, 16, 23, 42}));
  EXPECT_NE(fs.find(15), fs.end());
  EXPECT_EQ(*fs.find(15), 15u);
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

// --- flat_set: the bitmap form -------------------------------------------

// Ids lo, lo + step, ..., count of them.
flat_set<node_id> spaced(node_id lo, node_id step, node_id count) {
  flat_set<node_id> fs;
  for (node_id i = 0; i < count; ++i) fs.insert(lo + i * step);
  return fs;
}

std::vector<node_id> contents(const flat_set<node_id>& fs) {
  return {fs.begin(), fs.end()};
}

TEST(FlatSet, DenseSetsPromoteAtTwoHundredFiftySixIds) {
  flat_set<node_id> fs = spaced(1000, 1, 255);
  EXPECT_FALSE(fs.is_bitmap());
  fs.insert(1255);
  EXPECT_TRUE(fs.is_bitmap());
  EXPECT_EQ(fs.size(), 256u);
  EXPECT_EQ(*fs.begin(), 1000u);
  EXPECT_TRUE(std::is_sorted(fs.begin(), fs.end()));
  EXPECT_TRUE(fs.contains(1255));
  EXPECT_FALSE(fs.contains(1256));
  EXPECT_FALSE(fs.contains(999));
  // One id per 32: the window needs exactly one word per id.
  EXPECT_TRUE(spaced(64, 32, 256).is_bitmap());
  // The range constructor chooses the form the same way.
  const std::vector<node_id> dense = contents(spaced(7, 1, 300));
  EXPECT_TRUE(flat_set<node_id>(dense.begin(), dense.end()).is_bitmap());
}

TEST(FlatSet, SparseSetsStaySorted) {
  // One id per 33: the window would need more than one word per id.
  const flat_set<node_id> fs = spaced(0, 33, 2000);
  EXPECT_FALSE(fs.is_bitmap());
  EXPECT_EQ(fs.size(), 2000u);
  EXPECT_TRUE(fs.contains(33 * 1999));
  EXPECT_FALSE(spaced(5, 1000, 300).is_bitmap());
}

TEST(FlatSet, OutlierDemotesAndKeepsContents) {
  flat_set<node_id> fs = spaced(100, 1, 300);
  ASSERT_TRUE(fs.is_bitmap());
  std::vector<node_id> want = contents(fs);
  constexpr node_id outlier = 4294967294u;  // 2^32 - 2
  EXPECT_TRUE(fs.insert(outlier));
  EXPECT_FALSE(fs.is_bitmap());
  want.push_back(outlier);
  EXPECT_EQ(contents(fs), want);
  EXPECT_TRUE(fs.contains(outlier));
  EXPECT_FALSE(fs.insert(outlier));
  // An outlier below the window demotes too.
  flat_set<node_id> low = spaced(1u << 30, 1, 300);
  ASSERT_TRUE(low.is_bitmap());
  EXPECT_TRUE(low.insert(0));
  EXPECT_FALSE(low.is_bitmap());
  EXPECT_EQ(*low.begin(), 0u);
  EXPECT_EQ(low.size(), 301u);
  // Without the outlier the set is dense again and promotes on insert.
  EXPECT_EQ(fs.erase(outlier), 1u);
  EXPECT_TRUE(fs.insert(400));
  EXPECT_TRUE(fs.is_bitmap());
  want.back() = 400;
  EXPECT_EQ(contents(fs), want);
}

TEST(FlatSet, InsertDemotesOnlyPastOneWordPerId) {
  // 256 ids one word apart, 64..8224: the window is exactly full.
  const flat_set<node_id> full = spaced(64, 32, 256);
  ASSERT_TRUE(full.is_bitmap());
  // 257 ids may span 257 words, above or below the window...
  for (const node_id v : {8256u, 32u}) {
    flat_set<node_id> fs = full;
    EXPECT_TRUE(fs.insert(v));
    EXPECT_TRUE(fs.is_bitmap()) << v;
    EXPECT_TRUE(fs.contains(v)) << v;
  }
  // ...but not 258.
  for (const node_id v : {8288u, 0u}) {
    flat_set<node_id> fs = full;
    EXPECT_TRUE(fs.insert(v));
    EXPECT_FALSE(fs.is_bitmap()) << v;
    EXPECT_TRUE(fs.contains(v)) << v;
    EXPECT_EQ(fs.size(), 257u);
  }
}

TEST(FlatSet, WindowGrowsBelowItsBaseAndAboveItsTop) {
  flat_set<node_id> fs = spaced(10000, 1, 300);
  ASSERT_TRUE(fs.is_bitmap());
  std::set<node_id> ref(fs.begin(), fs.end());
  // Downward, a word at a time and then by a jump, and upward likewise.
  for (const node_id v : {9999u, 9968u, 9000u, 9500u, 10300u, 10331u, 10800u}) {
    EXPECT_TRUE(fs.insert(v));
    ref.insert(v);
    EXPECT_TRUE(fs.is_bitmap()) << v;
    EXPECT_TRUE(fs == ref) << v;
  }
  EXPECT_EQ(*fs.begin(), 9000u);
  // The window can reach down to id 0.
  for (node_id v = 8999; v > 8000; --v) {
    fs.insert(v);
    ref.insert(v);
  }
  for (node_id v = 0; v < 40; ++v) {
    fs.insert(v);
    ref.insert(v);
  }
  EXPECT_TRUE(fs.is_bitmap());
  EXPECT_TRUE(fs == ref);
  EXPECT_EQ(*fs.begin(), 0u);
  EXPECT_TRUE(fs.contains(0));
  EXPECT_FALSE(fs.contains(40));
}

TEST(FlatSet, ErasedToEmptyAndReused) {
  flat_set<node_id> fs = spaced(500, 2, 400);
  ASSERT_TRUE(fs.is_bitmap());
  node_id expect = 500;
  while (!fs.empty()) {  // more_'s pattern: erase the smallest
    ASSERT_EQ(*fs.begin(), expect);
    fs.erase(*fs.begin());
    expect += 2;
  }
  EXPECT_FALSE(fs.is_bitmap());
  EXPECT_TRUE(fs.begin() == fs.end());
  EXPECT_FALSE(fs.contains(500));
  EXPECT_TRUE(fs.insert(3));
  EXPECT_TRUE(fs == std::set<node_id>({3}));
  for (node_id v = 4; v < 300; ++v) fs.insert(v);
  EXPECT_TRUE(fs.is_bitmap());
  EXPECT_EQ(fs.size(), 297u);
  // clear() empties the bitmap and returns to the sorted form.
  fs.clear();
  EXPECT_TRUE(fs.empty());
  EXPECT_FALSE(fs.is_bitmap());
  EXPECT_TRUE(fs.begin() == fs.end());
  EXPECT_TRUE(fs.insert(9));
  EXPECT_TRUE(fs == std::set<node_id>({9}));
}

TEST(FlatSet, BitmapFindAndIteratorErase) {
  flat_set<node_id> fs = spaced(64, 3, 300);  // 64, 67, ..., 961
  ASSERT_TRUE(fs.is_bitmap());
  EXPECT_EQ(fs.find(65), fs.end());
  EXPECT_EQ(fs.find(2000), fs.end());
  auto it = fs.find(67);
  ASSERT_NE(it, fs.end());
  EXPECT_EQ(*it, 67u);
  EXPECT_EQ(*std::next(it), 70u);
  // erase(iterator) returns the next element.
  it = fs.erase(it);
  EXPECT_EQ(*it, 70u);
  EXPECT_FALSE(fs.contains(67));
  EXPECT_EQ(fs.size(), 299u);
  // Erasing the last element returns end().
  EXPECT_EQ(fs.erase(fs.find(961)), fs.end());
  // A positional range in the middle: 64 and 70 stay, 73..370 go.
  const auto first = std::next(fs.begin(), 2);
  const auto last = std::next(first, 100);
  EXPECT_EQ(*first, 73u);
  EXPECT_EQ(*last, 373u);
  EXPECT_EQ(*fs.erase(first, last), 373u);
  EXPECT_EQ(fs.size(), 198u);
  EXPECT_TRUE(fs.contains(70));
  EXPECT_FALSE(fs.contains(73));
  EXPECT_FALSE(fs.contains(370));
  EXPECT_TRUE(fs.contains(373));
  // A prefix, as self_query takes it.
  fs.erase(fs.begin(), std::next(fs.begin(), 2));
  EXPECT_EQ(*fs.begin(), 373u);
  EXPECT_EQ(fs.size(), 196u);
  // Every element, positionally.
  const auto after = fs.erase(fs.begin(), fs.end());
  EXPECT_TRUE(after == fs.end());
  EXPECT_TRUE(fs.empty());
  EXPECT_FALSE(fs.is_bitmap());
}

TEST(FlatSet, BitmapBulkInsert) {
  flat_set<node_id> fs = spaced(1000, 1, 300);
  ASSERT_TRUE(fs.is_bitmap());
  std::set<node_id> ref(fs.begin(), fs.end());
  // Unsorted, duplicated, inside, below and above the window.
  const std::vector<node_id> incoming = {1500, 900, 1001, 1299, 1300, 900,
                                         1200, 960, 1500, 1400};
  fs.insert(incoming.begin(), incoming.end());
  ref.insert(incoming.begin(), incoming.end());
  EXPECT_TRUE(fs.is_bitmap());
  EXPECT_TRUE(fs == ref);
  EXPECT_EQ(fs.size(), ref.size());
  // A bulk insert with an outlier demotes partway and keeps every value.
  const std::vector<node_id> tail = {4294967294u, 5, 1600, 6};
  fs.insert(tail.begin(), tail.end());
  ref.insert(tail.begin(), tail.end());
  EXPECT_FALSE(fs.is_bitmap());
  EXPECT_TRUE(fs == ref);
  // A bitmap copy is equal to the original, and independent of it.
  flat_set<node_id> a = spaced(0, 1, 400);
  flat_set<node_id> b = a;
  EXPECT_TRUE(b.is_bitmap());
  EXPECT_TRUE(a == b);
  b.erase(0);
  EXPECT_TRUE(a.contains(0));
  EXPECT_FALSE(a == b);
}

TEST(FlatSet, EraseSortedInBothForms) {
  // Sorted form: erase a few ascending values, some absent.
  flat_set<node_id> small = {2, 4, 6, 8, 10};
  const std::vector<node_id> drop = {1, 4, 5, 10, 12};
  small.erase_sorted(drop.begin(), drop.end());
  EXPECT_TRUE(small == std::set<node_id>({2, 6, 8}));
  // Bitmap form, with another set as the range, down to empty.
  flat_set<node_id> big = spaced(0, 1, 1000);
  ASSERT_TRUE(big.is_bitmap());
  const flat_set<node_id> evens = spaced(0, 2, 500);
  big.erase_sorted(evens.begin(), evens.end());
  EXPECT_TRUE(big.is_bitmap());
  EXPECT_EQ(big.size(), 500u);
  EXPECT_EQ(*big.begin(), 1u);
  const flat_set<node_id> odds = spaced(1, 2, 600);  // reaches past the set
  big.erase_sorted(odds.begin(), odds.end());
  EXPECT_TRUE(big.empty());
  EXPECT_FALSE(big.is_bitmap());
}

// Randomized parity with std::set over dense ids 0..20k in more_'s pattern:
// erase the smallest, insert anywhere, now and then absorb a batch.
TEST(FlatSet, RandomizedParityDenseSmallestFirst) {
  flat_set<node_id> fs;
  std::set<node_id> ss;
  rng r(2024);
  std::vector<node_id> batch;
  bool promoted = false;
  for (int step = 0; step < 60000; ++step) {
    const auto v = static_cast<node_id>(r.below(20000));
    switch (r.below(8)) {
      case 0:
      case 1:
        if (!ss.empty()) {
          ASSERT_EQ(*fs.begin(), *ss.begin());
          fs.erase(*fs.begin());
          ss.erase(ss.begin());
        }
        break;
      case 2:
        EXPECT_EQ(fs.erase(v), ss.erase(v));
        break;
      case 3:
        batch.clear();
        for (std::uint64_t i = 0, k = r.below(40); i < k; ++i)
          batch.push_back(static_cast<node_id>(r.below(20000)));
        fs.insert(batch.begin(), batch.end());
        ss.insert(batch.begin(), batch.end());
        break;
      case 4:
        EXPECT_EQ(fs.contains(v), ss.count(v) == 1);
        break;
      default:
        EXPECT_EQ(fs.insert(v), ss.insert(v).second);
    }
    promoted = promoted || fs.is_bitmap();
    ASSERT_EQ(fs.size(), ss.size());
    if (step % 1000 == 0) {
      ASSERT_TRUE(fs == ss) << "step " << step;
    }
  }
  EXPECT_TRUE(promoted);
  EXPECT_TRUE(fs == ss);
}

// Randomized parity over ids spread up to 2^32 - 2, with dense clusters
// that promote and far ids that demote.
TEST(FlatSet, RandomizedParitySparseFullRange) {
  flat_set<node_id> fs;
  std::set<node_id> ss;
  rng r(77);
  bool promoted = false;
  bool demoted = false;
  for (int step = 0; step < 40000; ++step) {
    const bool far = r.below(200) == 0;
    const node_id v =
        far ? static_cast<node_id>(r.below(4294967295u))
            : static_cast<node_id>(3000000000u + r.below(3000));
    const bool was_bitmap = fs.is_bitmap();
    switch (r.below(6)) {
      case 0:
        if (!ss.empty()) {
          ASSERT_EQ(*fs.begin(), *ss.begin());
          fs.erase(fs.begin());
          ss.erase(ss.begin());
        }
        break;
      case 1:
        EXPECT_EQ(fs.erase(v), ss.erase(v));
        break;
      case 2:
        EXPECT_EQ(fs.contains(v), ss.count(v) == 1);
        break;
      default:
        EXPECT_EQ(fs.insert(v), ss.insert(v).second);
    }
    promoted = promoted || (!was_bitmap && fs.is_bitmap());
    demoted = demoted || (was_bitmap && !fs.is_bitmap() && !fs.empty());
    ASSERT_EQ(fs.size(), ss.size());
    if (step % 500 == 0) {
      ASSERT_TRUE(fs == ss) << "step " << step;
    }
    // Far ids pile up; drop them now and then so the cluster can promote.
    if (step % 5000 == 4999) {
      for (auto it = ss.begin(); it != ss.end();) {
        if (*it < 3000000000u || *it >= 3000003000u) {
          EXPECT_EQ(fs.erase(*it), 1u);
          it = ss.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  EXPECT_TRUE(promoted);
  EXPECT_TRUE(demoted);
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

TEST(FlatU64Map, EraseReportsPresenceAndAllowsReinsert) {
  flat_u64_map m;
  EXPECT_FALSE(m.erase(5));  // empty table
  m.insert(5, 1);
  m.insert(6, 2);
  EXPECT_FALSE(m.erase(7));  // absent key
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.erase(5));
  EXPECT_FALSE(m.erase(5));  // already gone
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.find(5), flat_u64_map::npos);
  EXPECT_EQ(m.find(6), 2u);
  EXPECT_TRUE(m.try_insert(5, 3));  // the freed slot takes a new entry
  EXPECT_FALSE(m.try_insert(5, 4));
  EXPECT_EQ(m.find(5), 3u);
  EXPECT_EQ(m.size(), 2u);
}

// Home slot of `key` in a 16-slot table, by the map's Fibonacci hash.  Used
// only to build colliding keys; the assertions below hold for any hash.
std::size_t home16(std::uint64_t key) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 60);
}

// One probe cluster that wraps past the table's end: keys homed at 14, 15,
// 0 and 1 fill slots 14..7, and a key homed at 8 sits in its own slot right
// behind them.  Erasing from the front shifts the wrapped entries back
// across the end; the key at its home slot must stay put.
TEST(FlatU64Map, EraseShiftsWrappedClusterBack) {
  std::vector<std::uint64_t> keys;
  std::set<std::uint64_t> used;
  const auto take = [&](std::size_t home, int count) {
    for (std::uint64_t k = 1; count > 0; ++k)
      if (home16(k) == home && used.insert(k).second) {
        keys.push_back(k);
        --count;
      }
  };
  take(14, 4);
  take(15, 3);
  take(0, 2);
  take(1, 1);
  take(8, 1);
  ASSERT_EQ(keys.size(), 11u);  // 11 of 16 slots: no rehash below 14
  for (const int erase_first : {0, 3, 6, 9}) {
    SCOPED_TRACE(erase_first);
    flat_u64_map m;
    std::unordered_map<std::uint64_t, std::uint32_t> ref;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      m.insert(keys[i], static_cast<std::uint32_t>(i));
      ref.emplace(keys[i], static_cast<std::uint32_t>(i));
    }
    // Erase every key, starting at a different point of the cluster each
    // time, checking every key after each erase.
    for (std::size_t step = 0; step < keys.size(); ++step) {
      const std::uint64_t k =
          keys[(static_cast<std::size_t>(erase_first) + step) % keys.size()];
      EXPECT_TRUE(m.erase(k));
      ref.erase(k);
      ASSERT_EQ(m.size(), ref.size());
      for (const std::uint64_t q : keys) {
        const auto it = ref.find(q);
        ASSERT_EQ(m.find(q), it == ref.end() ? flat_u64_map::npos : it->second)
            << "key " << q << " (home " << home16(q) << ") after erasing " << k;
      }
    }
    EXPECT_TRUE(m.empty());
  }
}

// Randomized insert/erase churn against std::unordered_map, on a small key
// range (long clusters in a table that stays small) and a wide one (growth).
TEST(FlatU64Map, EraseMatchesUnorderedMapUnderChurn) {
  for (const std::uint64_t range : {24ull, 5000ull}) {
    SCOPED_TRACE(range);
    flat_u64_map m;
    std::unordered_map<std::uint64_t, std::uint32_t> ref;
    rng r(range);
    for (std::uint32_t op = 0; op < 40000; ++op) {
      const std::uint64_t k = r.below(range) * 7 + 3;
      if (r.below(2) == 0) {
        const bool inserted = m.try_insert(k, op);
        EXPECT_EQ(inserted, ref.emplace(k, op).second);
      } else {
        EXPECT_EQ(m.erase(k), ref.erase(k) == 1);
      }
      ASSERT_EQ(m.size(), ref.size());
      if (op % 997 == 0)
        for (std::uint64_t q = 0; q < range; ++q) {
          const auto it = ref.find(q * 7 + 3);
          ASSERT_EQ(m.find(q * 7 + 3),
                    it == ref.end() ? flat_u64_map::npos : it->second);
        }
    }
    std::unordered_map<std::uint64_t, std::uint32_t> seen;
    m.for_each([&](std::uint64_t k, std::uint32_t v) { seen.emplace(k, v); });
    EXPECT_EQ(seen, ref);
  }
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
