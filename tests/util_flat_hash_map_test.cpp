#include "util/flat_hash_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>

#include "util/random.hpp"

namespace hhh {
namespace {

TEST(FlatHashMap, EmptyBasics) {
  FlatHashMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(42), nullptr);
  EXPECT_FALSE(m.contains(42));
  EXPECT_FALSE(m.erase(42));
}

TEST(FlatHashMap, InsertFindUpdate) {
  FlatHashMap<std::uint64_t, int> m;
  m[1] = 10;
  m[2] = 20;
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), 10);
  m[1] += 5;
  EXPECT_EQ(*m.find(1), 15);
  EXPECT_EQ(m.find(3), nullptr);
}

TEST(FlatHashMap, TryEmplaceReportsInsertion) {
  FlatHashMap<std::uint64_t, int> m;
  auto [v1, inserted1] = m.try_emplace(7);
  EXPECT_TRUE(inserted1);
  *v1 = 99;
  auto [v2, inserted2] = m.try_emplace(7);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, 99);
}

TEST(FlatHashMap, EraseWithBackwardShift) {
  FlatHashMap<std::uint64_t, int> m(8);
  // Force long probe chains by inserting many keys into a small table.
  for (std::uint64_t k = 0; k < 100; ++k) m[k] = static_cast<int>(k);
  for (std::uint64_t k = 0; k < 100; k += 2) EXPECT_TRUE(m.erase(k));
  EXPECT_EQ(m.size(), 50u);
  for (std::uint64_t k = 0; k < 100; ++k) {
    if (k % 2 == 0) {
      EXPECT_EQ(m.find(k), nullptr) << k;
    } else {
      ASSERT_NE(m.find(k), nullptr) << k;
      EXPECT_EQ(*m.find(k), static_cast<int>(k));
    }
  }
}

TEST(FlatHashMap, GrowthPreservesEntries) {
  FlatHashMap<std::uint64_t, std::uint64_t> m(8);
  for (std::uint64_t k = 0; k < 10000; ++k) m[k * 3 + 1] = k;
  EXPECT_EQ(m.size(), 10000u);
  for (std::uint64_t k = 0; k < 10000; ++k) {
    ASSERT_NE(m.find(k * 3 + 1), nullptr);
    EXPECT_EQ(*m.find(k * 3 + 1), k);
  }
}

TEST(FlatHashMap, ClearResets) {
  FlatHashMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 64; ++k) m[k] = 1;
  m.clear();
  EXPECT_TRUE(m.empty());
  for (std::uint64_t k = 0; k < 64; ++k) EXPECT_EQ(m.find(k), nullptr);
  m[5] = 50;
  EXPECT_EQ(*m.find(5), 50);
}

TEST(FlatHashMap, ForEachVisitsEverything) {
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  std::uint64_t expected_sum = 0;
  for (std::uint64_t k = 1; k <= 500; ++k) {
    m[k] = k * k;
    expected_sum += k * k;
  }
  std::uint64_t sum = 0;
  std::size_t visits = 0;
  m.for_each([&](std::uint64_t, std::uint64_t& v) {
    sum += v;
    ++visits;
  });
  EXPECT_EQ(visits, 500u);
  EXPECT_EQ(sum, expected_sum);
}

TEST(FlatHashMap, EraseIfRemovesSelectively) {
  FlatHashMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 1000; ++k) m[k] = static_cast<int>(k);
  const std::size_t removed = m.erase_if([](std::uint64_t k, int&) { return k % 3 == 0; });
  EXPECT_EQ(removed, 334u);  // 0, 3, ..., 999
  EXPECT_EQ(m.size(), 666u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(m.contains(k), k % 3 != 0) << k;
  }
}

TEST(FlatHashMap, EraseIfCanMutateSurvivors) {
  FlatHashMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 10; ++k) m[k] = 10;
  m.erase_if([](std::uint64_t, int& v) {
    v -= 4;
    return v <= 0;
  });
  EXPECT_EQ(m.size(), 10u);
  m.for_each([](std::uint64_t, int& v) { EXPECT_EQ(v, 6); });
}

TEST(FlatHashMap, MemoryAccountingGrows) {
  FlatHashMap<std::uint64_t, std::uint64_t> m(8);
  const std::size_t before = m.memory_bytes();
  for (std::uint64_t k = 0; k < 1000; ++k) m[k] = k;
  EXPECT_GT(m.memory_bytes(), before);
}

TEST(FlatHashMap, ReserveHoldsNKeysWithoutGrowing) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{14},
                              std::size_t{1000}, std::size_t{4096}, std::size_t{30000}}) {
    FlatHashMap<std::uint64_t, std::uint64_t> m;
    m.reserve(n);
    const std::size_t capacity = m.capacity();
    for (std::uint64_t k = 0; k < n; ++k) m[k * 7 + 3] = k;
    EXPECT_EQ(m.capacity(), capacity) << "n=" << n;
    // The smallest such capacity: where insert-driven growth lands too.
    FlatHashMap<std::uint64_t, std::uint64_t> grown;
    for (std::uint64_t k = 0; k < n; ++k) grown[k * 7 + 3] = k;
    EXPECT_EQ(m.capacity(), grown.capacity()) << "n=" << n;
  }
}

TEST(FlatHashMap, ReserveBelowSizeIsANoOp) {
  FlatHashMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 1000; ++k) m[k] = 1;
  const std::size_t capacity = m.capacity();
  for (const std::size_t n : {std::size_t{0}, std::size_t{10}, std::size_t{999},
                              std::size_t{1000}}) {
    m.reserve(n);
    EXPECT_EQ(m.capacity(), capacity) << "n=" << n;
  }
  EXPECT_EQ(m.size(), 1000u);
}

TEST(FlatHashMap, ReservePreservesEntries) {
  FlatHashMap<std::uint64_t, std::uint64_t> m(8);
  for (std::uint64_t k = 0; k < 5000; ++k) m[k * 3 + 1] = k;
  m.reserve(100000);
  EXPECT_GT(m.capacity() * 7, std::size_t{100000} * 8);
  EXPECT_EQ(m.size(), 5000u);
  for (std::uint64_t k = 0; k < 5000; ++k) {
    ASSERT_NE(m.find(k * 3 + 1), nullptr) << k;
    EXPECT_EQ(*m.find(k * 3 + 1), k);
  }
  EXPECT_EQ(m.find(2), nullptr);
}

// Model-based randomized test: the map must agree with std::unordered_map
// under a random workload of inserts, updates, deletes and reserves.
TEST(FlatHashMap, AgreesWithStdUnorderedMapModel) {
  Rng rng(0xFEED);
  FlatHashMap<std::uint64_t, std::uint64_t> m(16);
  std::unordered_map<std::uint64_t, std::uint64_t> model;

  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t key = rng.below(512);  // small key space -> collisions
    const double action = rng.uniform();
    if (action < 0.5) {
      m[key] += key;
      model[key] += key;
    } else if (action < 0.74) {
      EXPECT_EQ(m.erase(key), model.erase(key) > 0);
    } else if (action < 0.75) {
      m.reserve(m.size() + rng.below(1024));
    } else {
      const auto* v = m.find(key);
      const auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_EQ(v, nullptr);
      } else {
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, it->second);
      }
    }
  }
  EXPECT_EQ(m.size(), model.size());
  std::uint64_t sum_m = 0;
  m.for_each([&](std::uint64_t k, std::uint64_t& v) { sum_m += k ^ v; });
  std::uint64_t sum_model = 0;
  for (const auto& [k, v] : model) sum_model += k ^ v;
  EXPECT_EQ(sum_m, sum_model);
}

}  // namespace
}  // namespace hhh
