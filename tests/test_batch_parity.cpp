// Batch/scalar parity: a contains_batch/insert_batch/erase_batch call on
// Mpcbf (every word width and g) must return bit-identical verdicts,
// leave byte-identical filter state AND record identical per-op-class
// AccessStats to the equivalent scalar loop — with several keys of one
// pipeline chunk sharing a word, stash diversions and underflowing
// erases in the mix. Also exercises the DurableMpcbf batch journaling
// path.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/durable_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "metrics/access_stats.hpp"
#include "workload/string_sets.hpp"

namespace {

using mpcbf::core::DurableMpcbf;
using mpcbf::core::Mpcbf;
using mpcbf::core::MpcbfConfig;
using mpcbf::core::OverflowPolicy;
using mpcbf::metrics::AccessStats;
using mpcbf::metrics::OpClass;
using mpcbf::workload::generate_unique_strings;

// Asserts the per-class op/word/bit tallies of two stats objects agree.
void expect_same_accounting(const AccessStats& scalar,
                            const AccessStats& batch) {
  for (unsigned i = 0; i < mpcbf::metrics::kNumOpClasses; ++i) {
    const auto c = static_cast<OpClass>(i);
    EXPECT_EQ(scalar.ops(c), batch.ops(c)) << "ops class " << i;
    EXPECT_EQ(scalar.words(c), batch.words(c)) << "words class " << i;
    EXPECT_EQ(scalar.bits(c), batch.bits(c)) << "bits class " << i;
  }
}

// Interleaves inserted keys with never-inserted probes so both query
// verdicts appear, including mid-chunk verdict flips.
std::vector<std::string> mixed_workload(const std::vector<std::string>& keys,
                                        const std::vector<std::string>& probes) {
  std::vector<std::string> mixed;
  mixed.reserve(keys.size() + probes.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    mixed.push_back(keys[i]);
    mixed.push_back(probes[i]);
  }
  return mixed;
}

// --- Mpcbf: insert / contains / erase at W = 64, 128, 256 ----------------

// The full persisted state: words, size, overflow/underflow counts and
// the stash, in save()'s byte-stable encoding.
template <class Filter>
std::string saved_bytes(const Filter& f) {
  std::ostringstream os;
  f.save(os);
  return os.str();
}

template <unsigned W>
void expect_same_state(const Mpcbf<W>& scalar, const Mpcbf<W>& batch) {
  ASSERT_EQ(scalar.num_words(), batch.num_words());
  for (std::size_t w = 0; w < scalar.num_words(); ++w) {
    ASSERT_EQ(scalar.word(w), batch.word(w)) << "word " << w;
  }
  EXPECT_EQ(scalar.size(), batch.size());
  EXPECT_EQ(scalar.overflow_events(), batch.overflow_events());
  EXPECT_EQ(scalar.underflow_events(), batch.underflow_events());
  EXPECT_EQ(scalar.stash_size(), batch.stash_size());
  EXPECT_EQ(saved_bytes(scalar), saved_bytes(batch));
  expect_same_accounting(scalar.stats(), batch.stats());
}

// Drives the same insert → query → erase sequence through scalar loops on
// one filter and the batch calls on an identically-built twin, comparing
// verdicts and full state after every phase. The key lists repeat keys
// back to back (same chunk, same words) and the erase list adds keys that
// were never inserted or are erased once too often, so underflows occur.
template <unsigned W>
void run_mpcbf_parity(MpcbfConfig cfg, std::size_t n_keys,
                      std::uint64_t seed, std::size_t key_len = 6,
                      std::size_t probe_len = 8) {
  const auto keys = generate_unique_strings(n_keys, key_len, seed);
  const auto probes = generate_unique_strings(n_keys, probe_len, seed + 1);
  Mpcbf<W> scalar_f(cfg);
  Mpcbf<W> batch_f(cfg);

  const auto scalar_loop = [](auto&& op, const std::vector<std::string>& ks) {
    std::vector<std::uint8_t> out(ks.size());
    for (std::size_t i = 0; i < ks.size(); ++i) out[i] = op(ks[i]) ? 1 : 0;
    return out;
  };

  std::vector<std::string> inserts;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    inserts.push_back(keys[i]);
    if (i % 5 == 0) inserts.push_back(keys[i]);  // a second copy
  }
  const auto scalar_ok = scalar_loop(
      [&](const std::string& k) { return scalar_f.insert(k); }, inserts);
  std::vector<std::uint8_t> batch_ok(inserts.size(), 0xFF);
  batch_f.insert_batch(inserts, batch_ok);
  ASSERT_EQ(scalar_ok, batch_ok);
  expect_same_state(scalar_f, batch_f);

  const auto mixed = mixed_workload(keys, probes);
  const auto scalar_out = scalar_loop(
      [&](const std::string& k) { return scalar_f.contains(k); }, mixed);
  std::vector<std::uint8_t> batch_out(mixed.size(), 0xFF);
  batch_f.contains_batch(mixed, batch_out);
  ASSERT_EQ(scalar_out, batch_out);
  expect_same_state(scalar_f, batch_f);

  std::vector<std::string> erases;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    erases.push_back(keys[i]);
    if (i % 5 == 0 || i % 7 == 0) erases.push_back(keys[i]);
    if (i % 3 == 0) erases.push_back(probes[i]);  // never inserted
  }
  const auto scalar_erased = scalar_loop(
      [&](const std::string& k) { return scalar_f.erase(k); }, erases);
  std::vector<std::uint8_t> batch_erased(erases.size(), 0xFF);
  batch_f.erase_batch(erases, batch_erased);
  ASSERT_EQ(scalar_erased, batch_erased);
  EXPECT_GT(scalar_f.underflow_events(), 0u);
  expect_same_state(scalar_f, batch_f);
  EXPECT_TRUE(batch_f.validate());
}

MpcbfConfig parity_config(std::size_t words, unsigned w_bits, unsigned k,
                          unsigned g, unsigned n_max, OverflowPolicy policy) {
  MpcbfConfig cfg;
  cfg.memory_bits = words * w_bits;
  cfg.k = k;
  cfg.g = g;
  cfg.n_max = n_max;
  cfg.policy = policy;
  return cfg;
}

// 16 words: every 32-key chunk lands several keys on one word, and the
// words fill up, so inserts overflow into the stash (or are rejected).
TEST(MpcbfBatchParity, W64G1CollidingChunkWithStash) {
  run_mpcbf_parity<64>(parity_config(16, 64, 3, 1, 4, OverflowPolicy::kStash),
                       300, 601);
}
TEST(MpcbfBatchParity, W64G1CollidingChunkWithReject) {
  run_mpcbf_parity<64>(
      parity_config(16, 64, 3, 1, 4, OverflowPolicy::kReject), 300, 603);
}
TEST(MpcbfBatchParity, W64G1Roomy) {
  run_mpcbf_parity<64>(
      parity_config(4096, 64, 3, 1, 4, OverflowPolicy::kStash), 2000, 605);
}
TEST(MpcbfBatchParity, W128G2CollidingChunkWithStash) {
  run_mpcbf_parity<128>(
      parity_config(16, 128, 4, 2, 6, OverflowPolicy::kStash), 300, 607);
}
TEST(MpcbfBatchParity, W128G2Roomy) {
  run_mpcbf_parity<128>(
      parity_config(2048, 128, 4, 2, 6, OverflowPolicy::kReject), 2000, 609);
}
TEST(MpcbfBatchParity, W256G3UnevenKCollidingChunkWithStash) {
  // k = 7, g = 3 splits 3 + 3 + 1.
  run_mpcbf_parity<256>(
      parity_config(16, 256, 7, 3, 8, OverflowPolicy::kStash), 300, 611);
}
TEST(MpcbfBatchParity, W256G3UnevenKRoomy) {
  run_mpcbf_parity<256>(
      parity_config(1024, 256, 7, 3, 8, OverflowPolicy::kStash), 2000, 613);
}

// Every width with g = 1, 2, 3 (k = 3, 3 + 2, and 2 + 2 + 0, whose last
// group draws a word but no position), short circuit on and off. Each
// shape runs twice on 16 words: with a small n_max, so inserts overflow
// into the stash, and with about 12 level-1 bits per word, so a key's
// positions repeat and its group words collide.
template <unsigned W>
void sweep_mpcbf_parity() {
  std::uint64_t seed = 650 + W;
  for (const unsigned g : {1u, 2u, 3u}) {
    const unsigned k = g == 1 ? 3 : g == 2 ? 5 : 4;
    const unsigned per_word = (k + g - 1) / g;
    for (const bool sc : {true, false}) {
      for (const unsigned n_max : {4u, (W - 12) / per_word}) {
        MpcbfConfig cfg =
            parity_config(16, W, k, g, n_max, OverflowPolicy::kStash);
        cfg.short_circuit = sc;
        SCOPED_TRACE("W=" + std::to_string(W) + " g=" + std::to_string(g) +
                     " sc=" + std::to_string(sc) +
                     " n_max=" + std::to_string(n_max));
        run_mpcbf_parity<W>(cfg, 200, seed);
        seed += 2;
      }
    }
  }
}

TEST(MpcbfBatchParity, SweepW64GroupsAndShortCircuit) {
  sweep_mpcbf_parity<64>();
}
TEST(MpcbfBatchParity, SweepW128GroupsAndShortCircuit) {
  sweep_mpcbf_parity<128>();
}
TEST(MpcbfBatchParity, SweepW256GroupsAndShortCircuit) {
  sweep_mpcbf_parity<256>();
}

// The batch derive hashes eight keys of one length at a time where the
// shape has a draw schedule (and the CPU AVX-512), and falls back to the
// scalar derive elsewhere. Both must leave the words byte-identical to
// scalar loops: all-equal 17-byte keys (every group of eight eligible,
// the insert and erase lists' counts not multiples of eight), mixed
// 16/17/18-byte keys (no group eligible), and a shape whose draws need a
// second hash block.
TEST(MpcbfBatchParity, EqualLengthGroupsOfEight) {
  for (const auto& [k, g] : {std::pair{3u, 1u}, std::pair{4u, 2u}}) {
    for (const bool sc : {true, false}) {
      MpcbfConfig cfg =
          parity_config(4096, 64, k, g, 4, OverflowPolicy::kStash);
      cfg.short_circuit = sc;
      ASSERT_TRUE(mpcbf::core::engine::TargetDeriver(
                      4096, k, g, Mpcbf<64>::layout_for(cfg).b1)
                      .has_schedule());
      run_mpcbf_parity<64>(cfg, 8 * 125 + 5, 617 + k, 17, 17);
    }
  }
  run_mpcbf_parity<64>(parity_config(16, 64, 3, 1, 4, OverflowPolicy::kStash),
                       301, 619, 17, 17);
}
TEST(MpcbfBatchParity, MixedLengthGroups) {
  const auto keys = generate_unique_strings(900, 16, 621);
  std::vector<std::string> mixed;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    mixed.push_back(keys[i] + std::string(i % 3, 'x'));
  }
  const auto cfg = parity_config(256, 64, 3, 1, 4, OverflowPolicy::kStash);
  Mpcbf<64> scalar_f(cfg);
  Mpcbf<64> batch_f(cfg);
  std::vector<std::uint8_t> ok(mixed.size());
  for (const auto& key : mixed) (void)scalar_f.insert(key);
  batch_f.insert_batch(mixed, ok);
  expect_same_state(scalar_f, batch_f);
  std::vector<std::uint8_t> out(mixed.size());
  batch_f.contains_batch(mixed, out);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    ASSERT_EQ(out[i], scalar_f.contains(mixed[i]) ? 1 : 0) << i;
  }
  for (std::size_t i = 0; i < mixed.size(); i += 2) (void)scalar_f.erase(mixed[i]);
  std::vector<std::string> halves;
  for (std::size_t i = 0; i < mixed.size(); i += 2) halves.push_back(mixed[i]);
  std::vector<std::uint8_t> erased(halves.size());
  batch_f.erase_batch(halves, erased);
  expect_same_state(scalar_f, batch_f);
}
TEST(MpcbfBatchParity, ShapeWithoutSchedule) {
  // 24 positions of 20 bits each: far past one 128-bit block.
  const auto cfg = parity_config(64, 256, 24, 3, 4, OverflowPolicy::kStash);
  ASSERT_FALSE(mpcbf::core::engine::TargetDeriver(
                   64, 24, 3, Mpcbf<256>::layout_for(cfg).b1)
                   .has_schedule());
  run_mpcbf_parity<256>(cfg, 403, 623, 17, 17);
}

// --- eight keys per step, every shape and batch size ----------------------

// Batch sizes of the sliced runs below: every tail length of an
// eight-key step (2-17) and one short of, past and well past a 64-key
// query chunk.
const std::vector<std::size_t> kSliceSizes = {2,  3,  4,  5,  6,  7,  8,
                                              9,  10, 11, 12, 13, 14, 15,
                                              16, 17, 63, 65, 129};

// Calls op(first, count) over [0, n) in consecutive slices whose sizes
// cycle through kSliceSizes.
template <class Op>
void for_each_slice(std::size_t n, Op&& op) {
  std::size_t next = 0;
  for (std::size_t at = 0; at < n;) {
    const std::size_t count = std::min(kSliceSizes[next], n - at);
    op(at, count);
    at += count;
    next = (next + 1) % kSliceSizes.size();
  }
}

// The smallest n_max that leaves the shape a draw schedule (so a CPU
// with AVX-512 hashes, draws and resolves eight keys per step); 0 if
// none does.
template <unsigned W>
unsigned scheduled_n_max(std::size_t words, unsigned k, unsigned g) {
  for (const unsigned n_max : {4u, 6u, 8u, 12u, 16u, 24u, 32u, 48u, 64u}) {
    MpcbfConfig cfg = parity_config(words, W, k, g, n_max,
                                    OverflowPolicy::kStash);
    const unsigned per_word = (k + g - 1) / g;
    if (per_word * n_max + 2 > W) break;
    if (mpcbf::core::engine::TargetDeriver(
            words, k, g, Mpcbf<W>::layout_for(cfg).b1)
            .has_schedule()) {
      return n_max;
    }
  }
  return 0;
}

// run_mpcbf_parity, with every batch call cut into kSliceSizes slices,
// through the `Key` overloads (std::string or std::string_view), on
// keys of one length (`mixed` false: 17 bytes, so every group of eight
// takes the eight-key derive) or of 16-18 bytes in turn.
template <unsigned W, class Key>
void run_sliced_parity(const MpcbfConfig& cfg, std::size_t n_keys,
                       std::uint64_t seed, bool mixed) {
  const auto lengthen = [&](std::vector<std::string> v) {
    if (mixed) {
      for (std::size_t i = 0; i < v.size(); ++i) v[i].append(i % 3, 'x');
    }
    return v;
  };
  const auto keys =
      lengthen(generate_unique_strings(n_keys, mixed ? 16 : 17, seed));
  const auto probes =
      lengthen(generate_unique_strings(n_keys, mixed ? 16 : 17, seed + 1));
  Mpcbf<W> scalar_f(cfg);
  Mpcbf<W> batch_f(cfg);

  // Runs one phase: a scalar loop on scalar_f, sliced batch calls on
  // batch_f, then compares results and full state.
  const auto phase = [&](const std::vector<std::string>& list, auto scalar_op,
                         auto batch_op) {
    const std::vector<Key> typed(list.begin(), list.end());
    std::vector<std::uint8_t> want(list.size());
    for (std::size_t i = 0; i < list.size(); ++i) {
      want[i] = scalar_op(list[i]) ? 1 : 0;
    }
    std::vector<std::uint8_t> got(list.size(), 0xFF);
    for_each_slice(list.size(), [&](std::size_t at, std::size_t count) {
      batch_op(std::span<const Key>(typed.data() + at, count),
               std::span<std::uint8_t>(got.data() + at, count));
    });
    ASSERT_EQ(want, got);
    expect_same_state(scalar_f, batch_f);
  };

  std::vector<std::string> inserts;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    inserts.push_back(keys[i]);
    if (i % 5 == 0) inserts.push_back(keys[i]);
  }
  phase(
      inserts, [&](const std::string& k) { return scalar_f.insert(k); },
      [&](auto ks, auto ok) { batch_f.insert_batch(ks, ok); });
  if (::testing::Test::HasFatalFailure()) return;
  phase(
      mixed_workload(keys, probes),
      [&](const std::string& k) { return scalar_f.contains(k); },
      [&](auto ks, auto out) { batch_f.contains_batch(ks, out); });
  if (::testing::Test::HasFatalFailure()) return;
  std::vector<std::string> erases;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    erases.push_back(keys[i]);
    if (i % 7 == 0) erases.push_back(keys[i]);
    if (i % 3 == 0) erases.push_back(probes[i]);
  }
  phase(
      erases, [&](const std::string& k) { return scalar_f.erase(k); },
      [&](auto ks, auto ok) { batch_f.erase_batch(ks, ok); });
  EXPECT_TRUE(batch_f.validate());
}

// One width: g = 1..4 (k = 3; 5 = 3 + 2; 7 = 3 + 3 + 1; 6 = 2 + 2 + 2 +
// 0, whose last group draws a word and no position), short circuit on
// and off, the stash-heavy 16-word filter and a roomy 1024-word one,
// keys of one length and of mixed lengths, both key types. Every shape
// has a draw schedule, so on an AVX-512 CPU each batch runs the
// eight-key derive and resolve; elsewhere the same calls check the
// scalar fallback.
template <unsigned W>
void sweep_eight_lane_parity() {
  std::uint64_t seed = 900 + W;
  std::size_t stashed = 0;
  for (const auto& [g, k] : {std::pair{1u, 3u}, std::pair{2u, 5u},
                             std::pair{3u, 7u}, std::pair{4u, 6u}}) {
    for (const std::size_t words : {std::size_t{16}, std::size_t{1024}}) {
      const unsigned n_max = scheduled_n_max<W>(words, k, g);
      ASSERT_NE(n_max, 0u) << "W=" << W << " g=" << g;
      for (const bool sc : {true, false}) {
        for (const bool mixed : {false, true}) {
          MpcbfConfig cfg =
              parity_config(words, W, k, g, n_max, OverflowPolicy::kStash);
          cfg.short_circuit = sc;
          SCOPED_TRACE("W=" + std::to_string(W) + " g=" + std::to_string(g) +
                       " words=" + std::to_string(words) +
                       " n_max=" + std::to_string(n_max) +
                       " sc=" + std::to_string(sc) +
                       " mixed=" + std::to_string(mixed));
          const std::size_t n_keys = words == 16 ? 300 : 600;
          run_sliced_parity<W, std::string>(cfg, n_keys, seed, mixed);
          run_sliced_parity<W, std::string_view>(cfg, n_keys, seed + 1,
                                                 mixed);
          if (::testing::Test::HasFatalFailure()) return;
          Mpcbf<W> probe(cfg);
          for (const auto& key : generate_unique_strings(n_keys, 17, seed)) {
            (void)probe.insert(key);
          }
          stashed += probe.stash_size();
          seed += 2;
        }
      }
    }
  }
  EXPECT_GT(stashed, 0u) << "the 16-word filters must overflow into the stash";
}

TEST(MpcbfBatchParity, EightLaneSweepW64) { sweep_eight_lane_parity<64>(); }
TEST(MpcbfBatchParity, EightLaneSweepW128) { sweep_eight_lane_parity<128>(); }
TEST(MpcbfBatchParity, EightLaneSweepW256) { sweep_eight_lane_parity<256>(); }

TEST(MpcbfBatchParity, StringViewOverloadsMatchStringOverloads) {
  const auto keys = generate_unique_strings(200, 6, 615);
  const std::vector<std::string_view> views(keys.begin(), keys.end());
  const auto cfg = parity_config(64, 64, 3, 1, 4, OverflowPolicy::kStash);
  Mpcbf<64> a(cfg);
  Mpcbf<64> b(cfg);
  std::vector<std::uint8_t> ok_a(keys.size()), ok_b(keys.size());
  a.insert_batch(keys, ok_a);
  b.insert_batch(std::span<const std::string_view>(views),
                 std::span<std::uint8_t>(ok_b));
  EXPECT_EQ(ok_a, ok_b);
  a.erase_batch(keys, ok_a);
  b.erase_batch(std::span<const std::string_view>(views),
                std::span<std::uint8_t>(ok_b));
  EXPECT_EQ(ok_a, ok_b);
  expect_same_state(a, b);
  EXPECT_EQ(b.size(), 0u);
}

TEST(MpcbfBatchParity, EraseBatchRejectsSizeMismatch) {
  auto f = Mpcbf<64>::with_memory(1 << 12, 3, 1, 100);
  const std::vector<std::string> keys = {"a", "b"};
  std::vector<std::uint8_t> ok(1);
  EXPECT_THROW(f.erase_batch(keys, ok), std::invalid_argument);
}

// --- DurableMpcbf -------------------------------------------------------

TEST(DurableBatchParity, InsertBatchJournalsEveryKeyBeforeApplying) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "mpcbf_batch_parity_durable";
  fs::remove_all(dir);
  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 16;
  cfg.k = 3;
  cfg.g = 1;
  cfg.expected_n = 1000;
  const auto keys = generate_unique_strings(500, 6, 310);
  std::vector<std::uint8_t> ok(keys.size(), 0xFF);
  {
    DurableMpcbf<64>::Options opt;
    opt.fsync = false;
    DurableMpcbf<64> d(dir, cfg, opt);
    d.insert_batch(keys, ok);
    std::vector<std::uint8_t> out(keys.size());
    d.contains_batch(keys, out);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(ok[i], 1u);
      ASSERT_EQ(out[i], 1u);
    }
  }
  // Recovery replays the journaled batch: every acknowledged key is back.
  const Mpcbf<64> recovered = DurableMpcbf<64>::recover(dir, &cfg);
  EXPECT_EQ(recovered.size(), keys.size());
  for (const auto& key : keys) {
    EXPECT_TRUE(recovered.contains(key));
  }
  fs::remove_all(dir);
}

}  // namespace
