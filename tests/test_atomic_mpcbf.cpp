// AtomicMpcbf: sequential contract parity with the word-level HCBF,
// overflow rollback, and real multi-threaded stress (concurrent inserts of
// disjoint key ranges, concurrent reader/writer churn).
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/atomic_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "workload/string_sets.hpp"

namespace {

using mpcbf::core::AtomicMpcbf;
using mpcbf::workload::generate_unique_strings;

TEST(AtomicMpcbf, ConstructionValidation) {
  EXPECT_THROW(AtomicMpcbf(1 << 16, 0, 1, 100), std::invalid_argument);
  EXPECT_THROW(AtomicMpcbf(1 << 16, 3, 4, 100), std::invalid_argument);
  EXPECT_THROW(AtomicMpcbf(32, 3, 1, 100), std::invalid_argument);
  EXPECT_THROW(AtomicMpcbf(1 << 16, 3, 1, 0), std::invalid_argument);
  AtomicMpcbf ok(1 << 16, 3, 1, 1000);
  EXPECT_GT(ok.b1(), 0u);
}

TEST(AtomicMpcbf, SequentialRoundTrip) {
  const auto keys = generate_unique_strings(3000, 5, 17);
  AtomicMpcbf f(1 << 18, 3, 1, keys.size());
  for (const auto& k : keys) {
    ASSERT_TRUE(f.insert(k));
  }
  for (const auto& k : keys) {
    ASSERT_TRUE(f.contains(k)) << k;
  }
  EXPECT_TRUE(f.validate());
  for (const auto& k : keys) {
    ASSERT_TRUE(f.erase(k));
  }
  EXPECT_TRUE(f.validate());
  for (const auto& k : keys) {
    ASSERT_EQ(f.count(k), 0u);
  }
}

TEST(AtomicMpcbf, CountSequential) {
  AtomicMpcbf f(1 << 16, 3, 1, 100);
  ASSERT_TRUE(f.insert("x"));
  ASSERT_TRUE(f.insert("x"));
  EXPECT_GE(f.count("x"), 2u);
  ASSERT_TRUE(f.erase("x"));
  ASSERT_TRUE(f.erase("x"));
  EXPECT_EQ(f.count("x"), 0u);
}

TEST(AtomicMpcbf, GreaterG) {
  const auto keys = generate_unique_strings(2000, 5, 23);
  AtomicMpcbf f(1 << 18, 4, 2, keys.size());
  for (const auto& k : keys) {
    ASSERT_TRUE(f.insert(k));
  }
  for (const auto& k : keys) {
    ASSERT_TRUE(f.contains(k));
  }
  EXPECT_TRUE(f.validate());
}

TEST(AtomicMpcbf, OverflowRejectedWithRollback) {
  // One 64-bit word, n_max pinned small via tiny expected_n won't work
  // (heuristic), so overflow by inserting beyond physical capacity:
  // hierarchy region = 64 - b1 bits; keep inserting until reject.
  AtomicMpcbf f(64, 3, 1, 4);
  int accepted = 0;
  for (int i = 0; i < 100; ++i) {
    if (f.insert("k" + std::to_string(i))) {
      ++accepted;
    } else {
      break;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(f.overflow_events(), 0u);
  EXPECT_TRUE(f.validate());
  // Everything accepted must still be queryable.
  for (int i = 0; i < accepted; ++i) {
    EXPECT_TRUE(f.contains("k" + std::to_string(i)));
  }
}

TEST(AtomicMpcbf, ConcurrentDisjointInserts) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  // Explicit n_max with headroom over the eq.-(11) heuristic: this test
  // requires zero rejected inserts, and the heuristic tolerates ~one
  // overflowing word per filter.
  AtomicMpcbf f(1 << 20, 3, 1, kThreads * kPerThread, mpcbf::hash::kDefaultSeed,
                /*n_max=*/10);

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string key =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        if (!f.insert(key)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(f.validate());
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const std::string key =
          "t" + std::to_string(t) + "-" + std::to_string(i);
      ASSERT_TRUE(f.contains(key)) << key;
    }
  }
}

TEST(AtomicMpcbf, ConcurrentInsertEraseChurn) {
  // Each thread owns a disjoint key set and repeatedly inserts then
  // erases it; the filter must end exactly empty and structurally valid.
  constexpr int kThreads = 4;
  constexpr int kKeys = 500;
  constexpr int kRounds = 30;
  AtomicMpcbf f(1 << 19, 3, 1, kThreads * kKeys, mpcbf::hash::kDefaultSeed,
                /*n_max=*/8);

  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::string> keys;
      keys.reserve(kKeys);
      for (int i = 0; i < kKeys; ++i) {
        keys.push_back("c" + std::to_string(t) + "-" + std::to_string(i));
      }
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& k : keys) {
          if (!f.insert(k)) errors.fetch_add(1);
        }
        for (const auto& k : keys) {
          if (!f.contains(k)) errors.fetch_add(1);  // no false negatives
        }
        for (const auto& k : keys) {
          if (!f.erase(k)) errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_TRUE(f.validate());
  // Filter must be exactly empty again: every owned key counts to zero.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_EQ(f.count("c" + std::to_string(t) + "-" + std::to_string(i)),
                0u);
    }
  }
}

TEST(AtomicMpcbf, ReadersDuringWrites) {
  constexpr int kKeys = 3000;
  const auto keys = generate_unique_strings(kKeys, 6, 91);
  AtomicMpcbf f(1 << 20, 3, 1, kKeys, mpcbf::hash::kDefaultSeed, /*n_max=*/8);

  // Pre-insert the first half; readers continuously verify it stays
  // visible while a writer adds the second half.
  for (int i = 0; i < kKeys / 2; ++i) {
    ASSERT_TRUE(f.insert(keys[static_cast<std::size_t>(i)]));
  }
  std::atomic<bool> stop{false};
  std::atomic<int> misses{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < kKeys / 2; ++i) {
        if (!f.contains(keys[static_cast<std::size_t>(i)])) {
          misses.fetch_add(1);
        }
      }
    }
  });
  for (int i = kKeys / 2; i < kKeys; ++i) {
    ASSERT_TRUE(f.insert(keys[static_cast<std::size_t>(i)]));
  }
  stop.store(true);
  reader.join();

  EXPECT_EQ(misses.load(), 0);  // established members never flicker
  EXPECT_TRUE(f.validate());
}

TEST(AtomicMpcbf, SaveLoadRoundTrip) {
  constexpr int kKeys = 2000;
  const auto keys = generate_unique_strings(kKeys, 5, 92);
  const auto probes = generate_unique_strings(kKeys, 7, 93);
  AtomicMpcbf f(1 << 19, 3, 1, kKeys, mpcbf::hash::kDefaultSeed, /*n_max=*/8);
  for (const auto& k : keys) {
    ASSERT_TRUE(f.insert(k));
  }
  std::stringstream ss;
  f.save(ss);
  AtomicMpcbf loaded = AtomicMpcbf::load(ss);
  EXPECT_EQ(loaded.num_words(), f.num_words());
  EXPECT_EQ(loaded.b1(), f.b1());
  EXPECT_TRUE(loaded.validate());
  for (const auto& k : keys) {
    ASSERT_TRUE(loaded.contains(k));
  }
  for (const auto& p : probes) {
    ASSERT_EQ(loaded.contains(p), f.contains(p)) << p;
  }
  // Erase through the loaded instance drains it to exactly empty.
  for (const auto& k : keys) {
    ASSERT_TRUE(loaded.erase(k)) << k;
  }
  for (const auto& k : keys) {
    ASSERT_EQ(loaded.count(k), 0u) << k;
  }
}

TEST(AtomicMpcbf, HugePageAdvisedWordsStartZeroedWithUnchangedVerdicts) {
  // 8 MiB of words spans 2 MiB-aligned blocks, so the word array is
  // advised for huge pages before its first touch. The advice must leave
  // every word zero and every verdict what the plain filter says.
  constexpr std::size_t kBits = std::size_t{1} << 26;
  mpcbf::core::engine::AtomicWords64 store;
  store.init(kBits / 64);
  ASSERT_EQ(store.size(), kBits / 64);
  for (std::size_t i = 0; i < store.size(); ++i) {
    ASSERT_EQ(store.load_relaxed(i), 0u) << "word " << i;
  }

  constexpr std::size_t kKeys = 20000;
  const auto keys = generate_unique_strings(kKeys, 6, 101);
  const auto probes = generate_unique_strings(kKeys, 8, 102);
  AtomicMpcbf atomic(kBits, 3, 1, kKeys);
  mpcbf::core::MpcbfConfig cfg;
  cfg.memory_bits = kBits;
  cfg.k = 3;
  cfg.g = 1;
  cfg.expected_n = kKeys;
  mpcbf::core::Mpcbf<64> plain(cfg);
  ASSERT_EQ(atomic.b1(), plain.b1());
  for (const auto& k : keys) {
    ASSERT_TRUE(atomic.insert(k));
    ASSERT_TRUE(plain.insert(k));
  }
  EXPECT_TRUE(atomic.validate());
  for (const auto& k : keys) ASSERT_TRUE(atomic.contains(k)) << k;
  for (const auto& p : probes) {
    ASSERT_EQ(atomic.contains(p), plain.contains(p)) << p;
  }
}

TEST(AtomicMpcbf, LoadRejectsCorruptStream) {
  AtomicMpcbf f(1 << 12, 3, 1, 50, mpcbf::hash::kDefaultSeed, /*n_max=*/8);
  ASSERT_TRUE(f.insert("x"));
  std::stringstream ss;
  f.save(ss);
  std::string data = ss.str();
  for (const std::size_t offset : {std::size_t{0}, std::size_t{16},
                                   data.size() / 2, data.size() - 1}) {
    std::string mutated = data;
    mutated[offset] ^= 0x04;
    std::stringstream is(mutated);
    EXPECT_THROW((void)AtomicMpcbf::load(is), std::runtime_error)
        << "flip at " << offset;
  }
}

}  // namespace
