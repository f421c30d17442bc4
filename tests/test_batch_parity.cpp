// Batch/scalar parity: a contains_batch/insert_batch/erase_batch call on
// Mpcbf (every word width and g), AtomicMpcbf or ShardedMpcbf must return
// bit-identical verdicts, leave byte-identical filter state AND record
// identical per-op-class AccessStats to the equivalent scalar loop — with
// several keys of one pipeline chunk sharing a word, stash diversions and
// underflowing erases in the mix. Also exercises contains_batch under
// concurrent inserts (run under TSan in CI) and the DurableMpcbf batch
// journaling path.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/atomic_mpcbf.hpp"
#include "core/durable_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "core/sharded_mpcbf.hpp"
#include "metrics/access_stats.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "workload/string_sets.hpp"

namespace {

using mpcbf::core::AtomicMpcbf;
using mpcbf::core::DurableMpcbf;
using mpcbf::core::Mpcbf;
using mpcbf::core::MpcbfConfig;
using mpcbf::core::OverflowPolicy;
using mpcbf::core::ShardedMpcbf;
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
                      std::uint64_t seed) {
  const auto keys = generate_unique_strings(n_keys, 6, seed);
  const auto probes = generate_unique_strings(n_keys, 8, seed + 1);
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

// --- AtomicMpcbf --------------------------------------------------------

// Runs the same mixed workload through scalar contains() on one filter
// and contains_batch() on an identically-built twin, then compares both
// verdicts and accounting.
void run_atomic_query_parity(unsigned k, unsigned g, std::size_t n_keys) {
  const auto keys = generate_unique_strings(n_keys, 6, 301 + k);
  const auto probes = generate_unique_strings(n_keys, 8, 302 + g);
  AtomicMpcbf scalar_f(1 << 18, k, g, n_keys);
  AtomicMpcbf batch_f(1 << 18, k, g, n_keys);
  for (const auto& key : keys) {
    ASSERT_EQ(scalar_f.insert(key), batch_f.insert(key));
  }
  const auto mixed = mixed_workload(keys, probes);
  scalar_f.reset_stats();
  batch_f.reset_stats();

  std::vector<std::uint8_t> scalar_out(mixed.size());
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    scalar_out[i] = scalar_f.contains(mixed[i]) ? 1 : 0;
  }
  std::vector<std::uint8_t> batch_out(mixed.size(), 0xFF);
  batch_f.contains_batch(mixed, batch_out);

  ASSERT_EQ(scalar_out, batch_out);
  expect_same_accounting(scalar_f.stats(), batch_f.stats());
}

TEST(AtomicBatchParity, QueryG1) { run_atomic_query_parity(3, 1, 1500); }
TEST(AtomicBatchParity, QueryG2) { run_atomic_query_parity(4, 2, 2000); }
TEST(AtomicBatchParity, QueryG4UnevenK) {
  // k=6, g=4 exercises uneven hashes_per_word splits.
  run_atomic_query_parity(6, 4, 2000);
}

TEST(AtomicBatchParity, InsertBatchMatchesScalarLoopIncludingOverflow) {
  // Tight capacity (n_max=1) forces overflow rejects, so the rollback
  // path and its words-touched accounting (2*done+1) are exercised too.
  const auto keys = generate_unique_strings(400, 6, 303);
  AtomicMpcbf scalar_f(1 << 10, 4, 2, 0, 0xAB, /*n_max=*/1);
  AtomicMpcbf batch_f(1 << 10, 4, 2, 0, 0xAB, /*n_max=*/1);

  std::vector<std::uint8_t> scalar_ok(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    scalar_ok[i] = scalar_f.insert(keys[i]) ? 1 : 0;
  }
  std::vector<std::uint8_t> batch_ok(keys.size(), 0xFF);
  batch_f.insert_batch(keys, batch_ok);

  ASSERT_EQ(scalar_ok, batch_ok);
  EXPECT_GT(scalar_f.overflow_events(), 0u);
  EXPECT_EQ(scalar_f.overflow_events(), batch_f.overflow_events());
  expect_same_accounting(scalar_f.stats(), batch_f.stats());
  // Word state is identical, so every later query must agree.
  for (const auto& key : keys) {
    EXPECT_EQ(scalar_f.contains(key), batch_f.contains(key));
  }
}

TEST(AtomicBatchParity, CollidingChunkLeavesIdenticalWords) {
  // 8 words: each 32-key chunk puts several keys (and repeated keys) on
  // one word, so every CAS of the resolve phase must see the writes of
  // the chunk's earlier keys. Scalar erases afterwards must agree too.
  const auto unique = generate_unique_strings(120, 6, 312);
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < unique.size(); ++i) {
    keys.push_back(unique[i]);
    if (i % 4 == 0) keys.push_back(unique[i]);
  }
  AtomicMpcbf scalar_f(8 * 64, 3, 1, 0, 0xCD, /*n_max=*/4);
  AtomicMpcbf batch_f(8 * 64, 3, 1, 0, 0xCD, /*n_max=*/4);
  std::vector<std::uint8_t> scalar_ok(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    scalar_ok[i] = scalar_f.insert(keys[i]) ? 1 : 0;
  }
  std::vector<std::uint8_t> batch_ok(keys.size(), 0xFF);
  batch_f.insert_batch(keys, batch_ok);
  ASSERT_EQ(scalar_ok, batch_ok);
  EXPECT_GT(scalar_f.overflow_events(), 0u);
  EXPECT_EQ(saved_bytes(scalar_f), saved_bytes(batch_f));
  expect_same_accounting(scalar_f.stats(), batch_f.stats());

  std::vector<std::uint8_t> scalar_out(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    scalar_out[i] = scalar_f.contains(keys[i]) ? 1 : 0;
  }
  std::vector<std::uint8_t> batch_out(keys.size(), 0xFF);
  batch_f.contains_batch(keys, batch_out);
  ASSERT_EQ(scalar_out, batch_out);
  expect_same_accounting(scalar_f.stats(), batch_f.stats());

  for (const auto& key : keys) {
    EXPECT_EQ(scalar_f.erase(key), batch_f.erase(key));
  }
  EXPECT_EQ(saved_bytes(scalar_f), saved_bytes(batch_f));
  EXPECT_EQ(scalar_f.underflow_events(), batch_f.underflow_events());
}

TEST(AtomicBatchParity, StringViewOverloadMatchesStringOverload) {
  const auto keys = generate_unique_strings(300, 6, 304);
  AtomicMpcbf f(1 << 16, 4, 2, keys.size());
  std::vector<std::uint8_t> ok(keys.size());
  std::vector<std::string_view> views(keys.begin(), keys.end());
  f.insert_batch(std::span<const std::string_view>(views),
                 std::span<std::uint8_t>(ok));
  std::vector<std::uint8_t> out_str(keys.size());
  std::vector<std::uint8_t> out_view(keys.size());
  f.contains_batch(keys, out_str);
  f.contains_batch(std::span<const std::string_view>(views),
                   std::span<std::uint8_t>(out_view));
  EXPECT_EQ(out_str, out_view);
  // Every accepted key must query positive (rejected keys may not).
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (ok[i]) {
      EXPECT_EQ(out_str[i], 1);
    }
  }
}

TEST(AtomicBatchParity, ContainsBatchUnderConcurrentInserts) {
  // Pre-inserted keys must stay positive while other threads insert:
  // counters only grow, so a batch query racing lock-free inserts can
  // never lose an established key. This is the TSan workout for the
  // gather + snapshot-resolve pipeline against the CAS write path.
  const std::size_t n_established = 512;
  const std::size_t n_per_writer = 2000;
  const unsigned n_writers = 4;
  const auto established = generate_unique_strings(n_established, 6, 305);
  AtomicMpcbf f(1 << 21, 4, 2,
                n_established + n_writers * n_per_writer);
  for (const auto& key : established) ASSERT_TRUE(f.insert(key));

  std::vector<std::thread> writers;
  writers.reserve(n_writers);
  for (unsigned w = 0; w < n_writers; ++w) {
    writers.emplace_back([&f, w] {
      const auto keys =
          generate_unique_strings(n_per_writer, 10, 400 + w);
      for (const auto& key : keys) (void)f.insert(key);
    });
  }

  std::vector<std::uint8_t> out(established.size());
  for (int round = 0; round < 50; ++round) {
    f.contains_batch(established, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], 1) << "established key lost in round " << round;
    }
  }
  for (auto& t : writers) t.join();
  EXPECT_TRUE(f.validate());
}

// --- ShardedMpcbf -------------------------------------------------------

MpcbfConfig sharded_config() {
  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 18;
  cfg.k = 4;
  cfg.g = 2;
  cfg.expected_n = 2000;
  return cfg;
}

TEST(ShardedBatchParity, QueryVerdictsAndStatsMatchScalarLoop) {
  const auto cfg = sharded_config();
  const auto keys = generate_unique_strings(2000, 6, 306);
  const auto probes = generate_unique_strings(2000, 8, 307);
  ShardedMpcbf<64> scalar_f(cfg, 8);
  ShardedMpcbf<64> batch_f(cfg, 8);
  for (const auto& key : keys) {
    ASSERT_EQ(scalar_f.insert(key), batch_f.insert(key));
  }
  const auto mixed = mixed_workload(keys, probes);
  scalar_f.reset_stats();
  batch_f.reset_stats();

  std::vector<std::uint8_t> scalar_out(mixed.size());
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    scalar_out[i] = scalar_f.contains(mixed[i]) ? 1 : 0;
  }
  std::vector<std::uint8_t> batch_out(mixed.size(), 0xFF);
  batch_f.contains_batch(mixed, batch_out);

  ASSERT_EQ(scalar_out, batch_out);
  expect_same_accounting(scalar_f.stats_snapshot(),
                         batch_f.stats_snapshot());
}

TEST(ShardedBatchParity, InsertBatchMatchesScalarLoopIncludingOverflow) {
  MpcbfConfig cfg = sharded_config();
  cfg.memory_bits = 1 << 12;  // tight: some shards overflow
  cfg.expected_n = 0;
  cfg.n_max = 1;
  cfg.policy = OverflowPolicy::kReject;
  const auto keys = generate_unique_strings(600, 6, 308);
  ShardedMpcbf<64> scalar_f(cfg, 4);
  ShardedMpcbf<64> batch_f(cfg, 4);

  std::vector<std::uint8_t> scalar_ok(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    scalar_ok[i] = scalar_f.insert(keys[i]) ? 1 : 0;
  }
  std::vector<std::uint8_t> batch_ok(keys.size(), 0xFF);
  batch_f.insert_batch(keys, batch_ok);

  ASSERT_EQ(scalar_ok, batch_ok);
  EXPECT_GT(scalar_f.overflow_events(), 0u);
  EXPECT_EQ(scalar_f.overflow_events(), batch_f.overflow_events());
  EXPECT_EQ(scalar_f.size(), batch_f.size());
  expect_same_accounting(scalar_f.stats_snapshot(),
                         batch_f.stats_snapshot());
  for (const auto& key : keys) {
    EXPECT_EQ(scalar_f.contains(key), batch_f.contains(key));
  }
}

TEST(ShardedBatchParity, BatchUnderConcurrentMutators) {
  // Striped locks serialize per shard; a batch query concurrent with
  // scalar inserts of other keys must keep established keys positive.
  const auto cfg = sharded_config();
  const auto established = generate_unique_strings(400, 6, 309);
  ShardedMpcbf<64> f(cfg, 8);
  for (const auto& key : established) ASSERT_TRUE(f.insert(key));

  std::vector<std::thread> writers;
  for (unsigned w = 0; w < 4; ++w) {
    writers.emplace_back([&f, w] {
      const auto keys = generate_unique_strings(800, 10, 500 + w);
      for (const auto& key : keys) (void)f.insert(key);
    });
  }
  std::vector<std::uint8_t> out(established.size());
  for (int round = 0; round < 30; ++round) {
    f.contains_batch(established, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], 1) << "established key lost in round " << round;
    }
  }
  for (auto& t : writers) t.join();
  EXPECT_TRUE(f.validate());
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

// --- loopback server parity: flat (--cores 1) vs shared-nothing ---------
//
// The wire-level sibling of the in-process parity above: a batch that
// spans every shard of the shared-nothing server must produce verdicts
// identical to the flat single-mutex server, for every batch shape the
// router handles differently (1 = inline fast path, 8/64 = partial
// scatter, 1000 = all shards active).

std::unique_ptr<mpcbf::net::Server> make_flat_server() {
  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 16;
  cfg.expected_n = 1024;
  cfg.policy = OverflowPolicy::kStash;
  return std::make_unique<mpcbf::net::Server>(
      mpcbf::net::make_backend(std::make_shared<Mpcbf<64>>(cfg)),
      mpcbf::net::Server::Options{});
}

std::unique_ptr<mpcbf::net::Server> make_sharded_server(
    std::size_t shards) {
  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 16;
  cfg.expected_n = 1024;
  cfg.policy = OverflowPolicy::kStash;
  mpcbf::net::ShardSet set;
  for (std::size_t i = 0; i < shards; ++i) {
    set.shards.push_back(mpcbf::net::make_shard_backend(
        std::make_shared<Mpcbf<64>>(cfg), i));
  }
  return std::make_unique<mpcbf::net::Server>(
      std::move(set), mpcbf::net::Server::Options{});
}

mpcbf::net::Client loop_client(const mpcbf::net::Server& server) {
  mpcbf::net::Client::Options copts;
  copts.port = server.port();
  return mpcbf::net::Client(copts);
}

TEST(ServerBatchParity, LoopbackSweepShardedMatchesFlat) {
  auto flat_ptr = make_flat_server();
  auto sharded_ptr = make_sharded_server(4);
  mpcbf::net::Server& flat = *flat_ptr;
  mpcbf::net::Server& sharded = *sharded_ptr;
  flat.start();
  sharded.start();
  ASSERT_EQ(sharded.shard_count(), 4u);
  mpcbf::net::Client cf = loop_client(flat);
  mpcbf::net::Client cs = loop_client(sharded);

  std::uint64_t salt = 400;
  for (const std::size_t batch : {1u, 8u, 64u, 1000u}) {
    const auto keys = generate_unique_strings(batch, 8, salt++);
    const auto insert_flat = cf.insert(keys);
    const auto insert_sharded = cs.insert(keys);
    ASSERT_EQ(insert_flat.size(), batch);
    ASSERT_EQ(insert_sharded.size(), batch);
    for (std::size_t i = 0; i < batch; ++i) {
      EXPECT_EQ(insert_flat[i], insert_sharded[i])
          << "insert parity, batch " << batch << " key " << i;
      EXPECT_EQ(insert_sharded[i], 1u);
    }
    const auto query_flat = cf.query(keys);
    const auto query_sharded = cs.query(keys);
    for (std::size_t i = 0; i < batch; ++i) {
      EXPECT_EQ(query_flat[i], query_sharded[i])
          << "query parity, batch " << batch << " key " << i;
      EXPECT_EQ(query_sharded[i], 1u);  // no false negatives
    }
    const auto erase_flat = cf.erase(keys);
    const auto erase_sharded = cs.erase(keys);
    for (std::size_t i = 0; i < batch; ++i) {
      EXPECT_EQ(erase_flat[i], erase_sharded[i])
          << "erase parity, batch " << batch << " key " << i;
    }
  }
  sharded.stop();
  flat.stop();
}

TEST(ServerBatchParity, ConcurrentClientsOnShardedServer) {
  // The TSan case: several clients scatter mutation and query batches
  // across every shard at once. Verdict vectors must stay well-formed
  // (right length, inserts of fresh keys positive) while the rings,
  // reply pipelines and per-shard metrics race — any missing
  // synchronization in the scatter/gather path shows up here.
  auto sharded_ptr = make_sharded_server(4);
  mpcbf::net::Server& sharded = *sharded_ptr;
  sharded.start();
  const std::uint16_t port = sharded.port();
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([port, t, &bad] {
      mpcbf::net::Client::Options copts;
      copts.port = port;
      mpcbf::net::Client c(copts);
      for (int r = 0; r < kRounds; ++r) {
        const auto keys = generate_unique_strings(
            64, 8, 900 + static_cast<std::uint64_t>(t) * 1000 + r);
        const auto ins = c.insert(keys);
        if (ins.size() != keys.size()) bad.fetch_add(1);
        for (const auto v : ins) {
          if (v != 1) bad.fetch_add(1);
        }
        const auto q = c.query(keys);
        if (q.size() != keys.size()) bad.fetch_add(1);
        for (const auto v : q) {
          if (v != 1) bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0u);
  sharded.stop();
}

}  // namespace
