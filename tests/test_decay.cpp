// DecayingMpcbf tests: sliding-window retirement semantics, the
// headline FPR property (an infinite insert stream keeps the decayed
// filter's measured FPR flat and within model bounds while a no-decay
// control of the same shape saturates), and crash-safe durability —
// decay ticks journal as first-class WAL records, so a recovered window
// is byte-identical to the one that went down, rotation positions
// included.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/decaying_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "metrics/registry.hpp"

namespace {

namespace fs = std::filesystem;
using namespace mpcbf;
using namespace mpcbf::core;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / "mpcbf_decay_tests" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

DecayConfig small_window(unsigned generations = 4) {
  DecayConfig cfg;
  cfg.generation.memory_bits = 1 << 14;
  cfg.generation.expected_n = 400;
  cfg.generation.policy = OverflowPolicy::kStash;
  cfg.generations = generations;
  return cfg;
}

std::vector<std::string> make_keys(std::size_t n, const std::string& tag) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(tag + "-" + std::to_string(i));
  }
  return keys;
}

DurableDecayingMpcbf<64>::Options fast_durable() {
  DurableDecayingMpcbf<64>::Options o;
  o.fsync = false;
  return o;
}

TEST(Decay, ConfigValidatesWindowDepth) {
  EXPECT_THROW(DecayingMpcbf<64>(small_window(0)), std::invalid_argument);
  EXPECT_THROW(DecayingMpcbf<64>(small_window(1)), std::invalid_argument);
  EXPECT_THROW(
      DecayingMpcbf<64>(
          small_window(DecayingMpcbf<64>::kMaxGenerations + 1)),
      std::invalid_argument);
  DecayingMpcbf<64> f(small_window(2));
  EXPECT_EQ(f.generations(), 2u);
}

TEST(Decay, EntrySurvivesExactlyTheWindow) {
  // An entry inserted right after a tick lives through generations-1
  // further ticks and dies on the one after.
  DecayingMpcbf<64> f(small_window(3));
  ASSERT_TRUE(f.insert("tenant:alice"));
  EXPECT_TRUE(f.contains("tenant:alice"));

  EXPECT_EQ(f.decay_tick(), 1u);
  EXPECT_TRUE(f.contains("tenant:alice"));
  EXPECT_EQ(f.decay_tick(), 2u);
  EXPECT_TRUE(f.contains("tenant:alice"));
  EXPECT_EQ(f.decay_tick(), 3u);
  EXPECT_FALSE(f.contains("tenant:alice"));
  EXPECT_EQ(f.size(), 0u);
}

TEST(Decay, CountSumsAcrossGenerationsAndEraseFindsNewestFirst) {
  DecayingMpcbf<64> f(small_window(4));
  ASSERT_TRUE(f.insert("hot"));
  (void)f.decay_tick();
  ASSERT_TRUE(f.insert("hot"));
  ASSERT_TRUE(f.insert("hot"));

  EXPECT_EQ(f.count("hot"), 3u);
  EXPECT_EQ(f.count("cold"), 0u);
  EXPECT_EQ(f.size(), 3u);

  // Erase retires one occurrence at a time; the window total follows.
  EXPECT_TRUE(f.erase("hot"));
  EXPECT_EQ(f.count("hot"), 2u);
  EXPECT_TRUE(f.erase("hot"));
  EXPECT_TRUE(f.erase("hot"));
  EXPECT_FALSE(f.contains("hot"));
  EXPECT_FALSE(f.erase("hot"));
}

TEST(Decay, BatchPathsMatchScalarSemantics) {
  DecayingMpcbf<64> f(small_window(3));
  const auto keys = make_keys(256, "batch");
  std::vector<std::uint8_t> ok(keys.size(), 0);
  f.insert_batch(keys, ok);
  for (const auto v : ok) EXPECT_EQ(v, 1);

  (void)f.decay_tick();  // inserted keys now live in an older generation
  std::vector<std::uint8_t> verdicts(keys.size(), 0);
  f.contains_batch(keys, verdicts);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(verdicts[i], 1) << "key " << keys[i];
    EXPECT_TRUE(f.contains(keys[i]));
  }
}

TEST(Decay, FprStaysFlatUnderInsertSoakWhileControlSaturates) {
  // The reason the decay mode exists: stream inserts forever and the
  // sliding window caps live state at the last G tick windows, so the
  // measured FPR tracks the *rate*; a plain accumulate-only filter of
  // the identical per-generation shape saturates instead.
  const DecayConfig cfg = small_window(4);
  DecayingMpcbf<64> decayed(cfg);
  Mpcbf<64> control(cfg.generation);

  constexpr std::size_t kRounds = 50;
  constexpr std::size_t kRate = 100;     // inserts per tick window
  constexpr std::size_t kProbes = 5000;  // fresh negatives per round

  double decayed_max_fpr = 0.0;
  double model_bound_max = 0.0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const auto batch =
        make_keys(kRate, "stream-" + std::to_string(round));
    for (const auto& key : batch) {
      (void)decayed.insert(key);
      (void)control.insert(key);
    }
    (void)decayed.decay_tick();

    if (round < cfg.generations) continue;  // warm the window up first
    const auto probes =
        make_keys(kProbes, "probe-" + std::to_string(round));
    std::size_t positives = 0;
    for (const auto& p : probes) positives += decayed.contains(p) ? 1 : 0;
    const double fpr =
        static_cast<double>(positives) / static_cast<double>(kProbes);
    decayed_max_fpr = std::max(decayed_max_fpr, fpr);
    model_bound_max = std::max(model_bound_max, decayed.model_fpr());
  }

  // Flat: every post-warmup round stayed within model bounds (4x the
  // union bound, floored for sampling noise at this probe count).
  const double allowed = std::max(4.0 * model_bound_max, 0.01);
  EXPECT_LE(decayed_max_fpr, allowed)
      << "decayed filter drifted past its model FPR";
  // The window never holds more than G windows' worth of stream.
  EXPECT_LE(decayed.size(), kRate * cfg.generations);

  // The no-decay control absorbed the whole stream and saturated.
  const auto probes = make_keys(kProbes, "probe-final");
  std::size_t control_positives = 0;
  for (const auto& p : probes) {
    control_positives += control.contains(p) ? 1 : 0;
  }
  const double control_fpr = static_cast<double>(control_positives) /
                             static_cast<double>(kProbes);
  EXPECT_GE(control_fpr, 0.02)
      << "control did not saturate; soak parameters too gentle";
  EXPECT_GE(control_fpr, 5.0 * std::max(decayed_max_fpr, 1e-3))
      << "decayed FPR " << decayed_max_fpr << " vs control "
      << control_fpr;
}

TEST(Decay, PayloadRoundTripPreservesWindowState) {
  DecayingMpcbf<64> f(small_window(3));
  const auto old_keys = make_keys(64, "old");
  const auto new_keys = make_keys(64, "new");
  for (const auto& k : old_keys) ASSERT_TRUE(f.insert(k));
  (void)f.decay_tick();
  for (const auto& k : new_keys) ASSERT_TRUE(f.insert(k));

  std::ostringstream os;
  f.save_payload(os);
  std::istringstream is(os.str());
  DecayingMpcbf<64> g = DecayingMpcbf<64>::load_payload(is);

  EXPECT_EQ(g.ticks(), 1u);
  EXPECT_EQ(g.generations(), 3u);
  EXPECT_EQ(g.size(), f.size());
  for (const auto& k : old_keys) EXPECT_TRUE(g.contains(k));
  for (const auto& k : new_keys) EXPECT_TRUE(g.contains(k));

  // The loaded window rotates from the same position: old_keys are one
  // tick deep, so they die exactly two ticks from now, as in `f`.
  (void)g.decay_tick();
  (void)g.decay_tick();
  for (const auto& k : old_keys) EXPECT_FALSE(g.contains(k));
  for (const auto& k : new_keys) EXPECT_TRUE(g.contains(k));
}

TEST(DurableDecay, RecoveryIsByteIdenticalIncludingTickPositions) {
  const fs::path dir = fresh_dir("byte_identity");
  const DecayConfig cfg = small_window(3);

  std::string before;
  {
    DurableDecayingMpcbf<64> f(dir, cfg, fast_durable());
    for (const auto& k : make_keys(100, "epoch0")) (void)f.insert(k);
    EXPECT_EQ(f.decay_tick(), 1u);
    for (const auto& k : make_keys(100, "epoch1")) (void)f.insert(k);
    EXPECT_EQ(f.decay_tick(), 2u);
    for (const auto& k : make_keys(100, "epoch2")) (void)f.insert(k);
    std::ostringstream os;
    f.filter().save_payload(os);
    before = os.str();
  }

  // Replay from the WAL alone (no snapshot was ever published): the
  // rotations must land at their exact sequence positions, which makes
  // the recovered image byte-identical — same keys in same generations.
  DurableDecayingMpcbf<64> g(dir, cfg, fast_durable());
  EXPECT_EQ(g.ticks(), 2u);
  std::ostringstream os;
  g.filter().save_payload(os);
  EXPECT_EQ(os.str(), before);
}

TEST(DurableDecay, SnapshotCompactsJournalAndTailReplays) {
  const fs::path dir = fresh_dir("snapshot_tail");
  const DecayConfig cfg = small_window(3);
  const auto snapshotted = make_keys(80, "snapshotted");
  const auto tail = make_keys(40, "tail");

  std::string before;
  {
    DurableDecayingMpcbf<64> f(dir, cfg, fast_durable());
    for (const auto& k : snapshotted) (void)f.insert(k);
    EXPECT_EQ(f.decay_tick(), 1u);
    f.snapshot();
    for (const auto& k : tail) (void)f.insert(k);
    EXPECT_EQ(f.decay_tick(), 2u);  // a tick in the journal tail
    std::ostringstream os;
    f.filter().save_payload(os);
    before = os.str();
  }
  ASSERT_FALSE(DurableDecayingMpcbf<64>::snapshot_files(dir).empty());

  DurableDecayingMpcbf<64> g(dir, cfg, fast_durable());
  EXPECT_EQ(g.ticks(), 2u);
  for (const auto& k : snapshotted) EXPECT_TRUE(g.contains(k));
  for (const auto& k : tail) EXPECT_TRUE(g.contains(k));
  std::ostringstream os;
  g.filter().save_payload(os);
  EXPECT_EQ(os.str(), before);
}

TEST(DurableDecay, RecoverRejectsMismatchedWindowShape) {
  const fs::path dir = fresh_dir("shape_mismatch");
  {
    DurableDecayingMpcbf<64> f(dir, small_window(3), fast_durable());
    (void)f.insert("anchor");
    f.snapshot();  // a snapshot pins the window shape on disk
  }
  const DecayConfig wider = small_window(5);
  EXPECT_THROW(DurableDecayingMpcbf<64>(dir, wider, fast_durable()),
               std::runtime_error);
}

TEST(DurableDecay, RecoverRejectsMismatchedGenerationShape) {
  const fs::path dir = fresh_dir("generation_mismatch");
  {
    DurableDecayingMpcbf<64> f(dir, small_window(3), fast_durable());
    (void)f.insert("anchor");
    f.snapshot();
  }
  // Same generation count and seed, different generation shape: serving
  // the snapshot's k=3 window under a k=5, 4x-wider config would be
  // just as silent a mismatch as a different depth.
  DecayConfig reshaped = small_window(3);
  reshaped.generation.k = 5;
  reshaped.generation.memory_bits *= 4;
  EXPECT_THROW(DurableDecayingMpcbf<64>(dir, reshaped, fast_durable()),
               std::runtime_error);
  DecayConfig rekeyed = small_window(3);
  rekeyed.generation.k = 5;
  EXPECT_THROW(DurableDecayingMpcbf<64>(dir, rekeyed, fast_durable()),
               std::runtime_error);
  // The matching shape still reopens.
  DurableDecayingMpcbf<64> same(dir, small_window(3), fast_durable());
  EXPECT_TRUE(same.contains("anchor"));
}

TEST(DurableDecay, RecoveryRecordsDurableMetrics) {
  const fs::path dir = fresh_dir("metrics");
  const DecayConfig cfg = small_window(3);
  {
    DurableDecayingMpcbf<64> f(dir, cfg, fast_durable());
    for (const auto& k : make_keys(20, "snap")) (void)f.insert(k);
    f.snapshot();
    for (const auto& k : make_keys(30, "tail")) (void)f.insert(k);
    (void)f.decay_tick();
    f.flush();
  }
  auto& reg = metrics::Registry::global();
  auto& recoveries = reg.counter("mpcbf_durable_recoveries_total");
  auto& replayed = reg.counter("mpcbf_durable_replayed_records_total");
  const std::uint64_t recoveries_before = recoveries.value();
  const std::uint64_t replayed_before = replayed.value();
  DurableDecayingMpcbf<64> g(dir, cfg, fast_durable());
  EXPECT_EQ(g.ticks(), 1u);
  EXPECT_EQ(recoveries.value() - recoveries_before, 1u);
  // The journal tail above the snapshot: 30 inserts and one tick.
  EXPECT_EQ(replayed.value() - replayed_before, 31u);
}

}  // namespace
