// ElasticMpcbf: split-ordered routing (selector stability across grow,
// snapshot/recover, follower bootstrap — with byte-identity on the
// topology record), Warn-triggered growth, cold-segment draining,
// durable WAL topology replay, widened journal ops, and concurrent
// readers during growth (TSan).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/durable_mpcbf.hpp"
#include "core/elastic_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "io/journal.hpp"
#include "metrics/registry.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "workload/string_sets.hpp"

namespace {

using mpcbf::core::DurableElasticMpcbf;
using mpcbf::core::ElasticConfig;
using mpcbf::core::ElasticMpcbf;
using mpcbf::core::OverflowPolicy;

namespace fs = std::filesystem;

// Small segments so a few hundred inserts cross the grow score.
ElasticConfig small_cfg(unsigned route_bits = 4,
                        std::size_t probe_stride = 16) {
  ElasticConfig cfg;
  cfg.segment.memory_bits = 1 << 13;
  cfg.segment.k = 3;
  cfg.segment.g = 1;
  cfg.segment.expected_n = 400;
  cfg.segment.policy = OverflowPolicy::kStash;
  cfg.route_bits = route_bits;
  cfg.probe_stride = probe_stride;
  return cfg;
}

std::vector<std::string> keys(std::size_t n, std::uint64_t seed = 1) {
  return mpcbf::workload::generate_unique_strings(n, 12, seed);
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("mpcbf_elastic_" + tag + "_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return dir_; }

 private:
  static inline std::atomic<int> counter_{0};
  fs::path dir_;
};

TEST(ElasticMpcbf, BasicInsertQueryEraseSingleSegment) {
  ElasticMpcbf<64> f(small_cfg());
  const auto ks = keys(100);
  for (const auto& k : ks) EXPECT_TRUE(f.insert(k));
  EXPECT_EQ(f.size(), ks.size());
  EXPECT_EQ(f.num_segments(), 1u);
  for (const auto& k : ks) {
    EXPECT_TRUE(f.contains(k));
    EXPECT_GE(f.count(k), 1u);
  }
  for (const auto& k : ks) EXPECT_TRUE(f.erase(k));
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.underflow_events(), 0u);
  EXPECT_TRUE(f.validate());
}

TEST(ElasticMpcbf, StormGrowsChainWithoutLosingKeys) {
  ElasticMpcbf<64> f(small_cfg());
  const auto ks = keys(1600);  // 4x nominal per-segment capacity
  for (const auto& k : ks) f.insert(k);
  EXPECT_GT(f.grows(), 0u) << "storm to 4x nominal must split";
  EXPECT_GT(f.live_segments(), 1u);
  for (const auto& k : ks) EXPECT_TRUE(f.contains(k));
  EXPECT_TRUE(f.validate());
  // The chain bound must stay a real probability and the measured FPR
  // must stay within it (generous slack for a small filter).
  const double bound = f.model_fpr();
  EXPECT_GT(bound, 0.0);
  EXPECT_LT(bound, 1.0);
  const auto probes = keys(4096, 999);
  std::size_t fp = 0;
  for (const auto& k : probes) fp += f.contains(k) ? 1 : 0;
  const double measured = static_cast<double>(fp) / probes.size();
  EXPECT_LE(measured, 3.0 * bound + 0.01)
      << "measured " << measured << " vs bound " << bound;
}

TEST(ElasticMpcbf, SelectorStabilityAcrossGrow) {
  ElasticMpcbf<64> f(small_cfg());
  const auto before = keys(300);
  for (const auto& k : before) f.insert(k);
  std::vector<std::uint32_t> located;
  for (const auto& k : before) {
    const auto s = f.locate(k);
    ASSERT_TRUE(s.has_value());
    located.push_back(*s);
  }
  const auto after = keys(1500, 7);
  for (const auto& k : after) f.insert(k);
  ASSERT_GT(f.grows(), 0u);
  for (std::size_t i = 0; i < before.size(); ++i) {
    const auto s = f.locate(before[i]);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(*s, located[i])
        << "key " << before[i] << " changed segment after grow";
  }
}

TEST(ElasticMpcbf, ChainsOnlyAppendOnGrow) {
  ElasticMpcbf<64> f(small_cfg());
  for (const auto& k : keys(400)) f.insert(k);
  std::vector<std::vector<std::uint32_t>> chains_before;
  for (std::uint32_t b = 0; b < f.num_buckets(); ++b) {
    chains_before.push_back(f.chain(b));
  }
  for (const auto& k : keys(1200, 11)) f.insert(k);
  ASSERT_GT(f.grows(), 0u);
  for (std::uint32_t b = 0; b < f.num_buckets(); ++b) {
    const auto& now = f.chain(b);
    const auto& then = chains_before[b];
    ASSERT_GE(now.size(), then.size());
    for (std::size_t i = 0; i < then.size(); ++i) {
      EXPECT_EQ(now[i], then[i]) << "chain rewrote history at bucket " << b;
    }
  }
}

TEST(ElasticMpcbf, EraseFindsKeysInOlderSegments) {
  ElasticMpcbf<64> f(small_cfg());
  const auto old_keys = keys(300);
  for (const auto& k : old_keys) f.insert(k);
  for (const auto& k : keys(1500, 3)) f.insert(k);
  ASSERT_GT(f.grows(), 0u);
  for (const auto& k : old_keys) EXPECT_TRUE(f.erase(k));
  EXPECT_EQ(f.underflow_events(), 0u);
  EXPECT_TRUE(f.validate());
}

// The erase rule (decrement only the one chain segment that holds the
// key): over random insert / re-insert / erase streams that split the
// chain and drain it, no live key ever reads absent. Erasing from the
// oldest chain segment that holds the key, which may hold it only as a
// false positive, loses live keys on these streams.
TEST(ElasticMpcbf, RandomChurnNeverLosesALiveKey) {
  std::uint64_t retires = 0;
  std::uint64_t ambiguous = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ElasticConfig cfg = small_cfg(3);
    cfg.segment.memory_bits = 1 << 12;
    cfg.segment.expected_n = 200;
    ElasticMpcbf<64> f(cfg);
    std::mt19937_64 rng(seed);
    std::vector<std::string> live;  // a multiset: re-inserts repeat keys
    std::uint64_t fresh = 0;
    const auto check = [&] {
      for (const auto& k : live) ASSERT_TRUE(f.contains(k)) << k;
    };
    for (int op = 0; op < 1500; ++op) {
      const auto r = rng() % 100;
      if (r < 55 || live.empty()) {
        live.push_back("churn-" + std::to_string(seed) + "-" +
                       std::to_string(fresh++));
        f.insert(live.back());
      } else if (r < 65) {
        live.push_back(live[rng() % live.size()]);
        f.insert(live.back());
      } else if (r < 97) {
        const std::size_t i = rng() % live.size();
        EXPECT_TRUE(f.erase(live[i])) << live[i];
        live[i] = std::move(live.back());
        live.pop_back();
      } else {
        (void)f.compact_once();
      }
      if (op % 25 == 0) check();
      if (::testing::Test::HasFatalFailure()) return;
    }
    check();
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_TRUE(f.validate());
    retires += f.retires();
    ambiguous += f.ambiguous_erases();
  }
  EXPECT_GT(retires, 0u) << "the streams must drain segments too";
  EXPECT_GT(ambiguous, 0u) << "the streams must erase ambiguous keys";
}

TEST(ElasticMpcbf, DrainMergesOwnerlessSegment) {
  // Two buckets: the first split moves one bucket to the new segment,
  // the second split moves the last bucket away from segment 0, leaving
  // it cold and drainable.
  auto cfg = small_cfg(1);
  ElasticMpcbf<64> f(cfg);
  const auto ks = keys(500);
  for (const auto& k : ks) f.insert(k);
  ASSERT_EQ(f.grow_from(0), 1u);
  ASSERT_EQ(f.grow_from(0), 2u);
  const auto step = f.compaction_candidate();
  ASSERT_TRUE(step.has_value());
  EXPECT_EQ(step->segment, 0u);
  const std::size_t live_before = f.live_segments();
  const std::size_t size_before = f.size();
  const auto applied = f.compact_once();
  ASSERT_TRUE(applied.has_value());
  EXPECT_EQ(f.live_segments(), live_before - 1);
  EXPECT_EQ(f.size(), size_before);
  EXPECT_EQ(f.segment(0), nullptr);
  for (const auto& k : ks) EXPECT_TRUE(f.contains(k));
  for (const auto& k : ks) EXPECT_TRUE(f.erase(k));
  EXPECT_EQ(f.underflow_events(), 0u);
  EXPECT_TRUE(f.validate());
}

TEST(ElasticMpcbf, DrainReclaimsSegmentStorage) {
  // Same shape as DrainMergesOwnerlessSegment, now watching the memory
  // side: a drained husk's word storage goes back to the OS, the
  // lifetime counter records it, and the exported
  // mpcbf_elastic_reclaimed_bytes_total series stays monotonic across
  // republishes.
  auto cfg = small_cfg(1);
  ElasticMpcbf<64> f(cfg);
  for (const auto& k : keys(500)) f.insert(k);
  EXPECT_EQ(f.reclaimed_bytes(), 0u);
  ASSERT_EQ(f.grow_from(0), 1u);
  ASSERT_EQ(f.grow_from(0), 2u);
  ASSERT_TRUE(f.compact_once().has_value());

  // At least the retired segment's word array (memory_bits / 8).
  EXPECT_GE(f.reclaimed_bytes(), cfg.segment.memory_bits / 8);

  mpcbf::metrics::Registry reg;
  f.publish_metrics(reg, "t");
  std::ostringstream os;
  reg.write_prometheus(os);
  EXPECT_NE(os.str().find("mpcbf_elastic_reclaimed_bytes_total"),
            std::string::npos);
  const double exported =
      reg.counter("mpcbf_elastic_reclaimed_bytes_total", "",
                  {{"filter", "t"}})
          .value();
  EXPECT_EQ(exported, static_cast<double>(f.reclaimed_bytes()));
  // Republishing must not double-count (delta-inc publish discipline).
  f.publish_metrics(reg, "t");
  f.publish_metrics(reg, "t");
  EXPECT_EQ(reg.counter("mpcbf_elastic_reclaimed_bytes_total", "",
                        {{"filter", "t"}})
                .value(),
            exported);
}

TEST(ElasticMpcbf, SaveLoadRoundTrip) {
  ElasticMpcbf<64> f(small_cfg());
  for (const auto& k : keys(1400)) f.insert(k);
  ASSERT_GT(f.grows(), 0u);
  std::ostringstream first;
  f.save(first);
  std::istringstream in(first.str());
  auto loaded = ElasticMpcbf<64>::load(in);
  // The topology record is byte-identical (the golden-style guarantee);
  // the full stream is only semantically equivalent once segments have
  // stash entries, whose map order is not serialization-stable.
  EXPECT_EQ(loaded.topology_bytes(), f.topology_bytes());
  EXPECT_EQ(loaded.size(), f.size());
  EXPECT_EQ(loaded.grows(), f.grows());
  EXPECT_EQ(loaded.num_segments(), f.num_segments());
  for (const auto& k : keys(1400)) EXPECT_TRUE(loaded.contains(k));
  const auto probes = keys(2000, 555);
  for (const auto& k : probes) {
    EXPECT_EQ(loaded.contains(k), f.contains(k)) << k;
  }
}

TEST(ElasticMpcbf, StashFreeSaveLoadIsByteIdentical) {
  // With no stash entries anywhere in the chain, the whole stream must
  // round-trip byte for byte — any drift means a field is being
  // recomputed rather than restored.
  auto cfg = small_cfg();
  cfg.segment.memory_bits = 1 << 15;  // roomy: nothing lands in a stash
  ElasticMpcbf<64> f(cfg);
  const auto ks = keys(300);
  for (const auto& k : ks) f.insert(k);
  f.grow_from(f.owner(0));  // a real multi-segment chain, sans storm
  ASSERT_EQ(f.stash_size(), 0u);
  std::ostringstream first;
  f.save(first);
  std::istringstream in(first.str());
  auto loaded = ElasticMpcbf<64>::load(in);
  std::ostringstream second;
  loaded.save(second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_EQ(loaded.topology_bytes(), f.topology_bytes());
}

TEST(ElasticMpcbf, LoadRejectsCorruptTopology) {
  ElasticMpcbf<64> f(small_cfg());
  for (const auto& k : keys(200)) f.insert(k);
  std::ostringstream os;
  f.save(os);
  std::string bytes = os.str();
  // Flip a byte somewhere in the topology area (after frame header +
  // magic + fixed header fields).
  bytes[60] ^= 0x40;
  std::istringstream in(bytes);
  EXPECT_THROW((void)ElasticMpcbf<64>::load(in), std::runtime_error);
}

TEST(ElasticJournal, ScanAcceptsTopologyOps) {
  TempDir tmp("journal");
  const auto path = (tmp.path() / "journal.wal").string();
  {
    mpcbf::io::Journal j(path);
    j.append(mpcbf::io::JournalOp::kInsert, "k1");
    j.append(mpcbf::io::JournalOp::kSegmentAdd, std::string(4, '\0'));
    j.append(mpcbf::io::JournalOp::kSegmentRetire, std::string(8, '\0'));
    j.flush(true);
  }
  const auto scan = mpcbf::io::Journal::scan(path);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[1].op, mpcbf::io::JournalOp::kSegmentAdd);
  EXPECT_EQ(scan.records[2].op, mpcbf::io::JournalOp::kSegmentRetire);
  EXPECT_FALSE(scan.tail_torn);
}

TEST(ElasticJournal, FlatDurableRejectsTopologyOps) {
  TempDir tmp("flatreject");
  mpcbf::core::MpcbfConfig cfg;
  cfg.memory_bits = 1 << 13;
  cfg.expected_n = 400;
  cfg.policy = OverflowPolicy::kStash;
  mpcbf::core::DurableMpcbf<64> d(tmp.path(), cfg);
  EXPECT_TRUE(d.apply_replicated(1, mpcbf::io::JournalOp::kInsert, "a"));
  EXPECT_FALSE(d.apply_replicated(2, mpcbf::io::JournalOp::kSegmentAdd,
                                  std::string(4, '\0')));
  EXPECT_EQ(d.next_seq(), 2u);  // the rejected op was not journaled
}

TEST(DurableElasticMpcbf, RecoverReproducesTopologyByteForByte) {
  TempDir tmp("recover");
  std::string topo_before;
  std::size_t size_before = 0;
  const auto ks = keys(1500);
  {
    DurableElasticMpcbf<64> d(tmp.path(), small_cfg());
    for (const auto& k : ks) d.insert(k);
    ASSERT_GT(d.filter().grows(), 0u);
    topo_before = d.filter().topology_bytes();
    size_before = d.size();
    // No snapshot: recovery must rebuild the chain purely from WAL
    // replay (config + journaled inserts + topology records).
  }
  const auto recovered =
      [&] {
        const auto cfg = small_cfg();
        return DurableElasticMpcbf<64>::recover(tmp.path(), &cfg);
      }();
  EXPECT_EQ(recovered.topology_bytes(), topo_before);
  EXPECT_EQ(recovered.size(), size_before);
  for (const auto& k : ks) EXPECT_TRUE(recovered.contains(k));
}

TEST(DurableElasticMpcbf, SnapshotThenMoreWritesThenRecover) {
  TempDir tmp("snapmore");
  std::string topo_before;
  const auto first = keys(900);
  const auto second = keys(900, 21);
  {
    DurableElasticMpcbf<64> d(tmp.path(), small_cfg());
    for (const auto& k : first) d.insert(k);
    d.snapshot();
    for (const auto& k : second) d.insert(k);
    d.compact_once();  // journal a retire if one is due (often no-op)
    topo_before = d.filter().topology_bytes();
  }
  const auto recovered = DurableElasticMpcbf<64>::recover(tmp.path());
  EXPECT_EQ(recovered.topology_bytes(), topo_before);
  for (const auto& k : first) EXPECT_TRUE(recovered.contains(k));
  for (const auto& k : second) EXPECT_TRUE(recovered.contains(k));
}

TEST(DurableElasticMpcbf, DrainThatCannotMergeJournalsNothing) {
  // Two buckets and at most three segments: segment 0 saturates, gives
  // both buckets away and goes cold, then the two live segments fill up
  // too, so merging segment 0 into either would overflow a word. An idle
  // primary's drain passes must then append no record: next_seq and the
  // topology stay put, and the chain still recovers as it was.
  TempDir tmp("nodrain");
  auto cfg = small_cfg(1);
  cfg.max_segments = 3;
  std::string topo_before;
  {
    DurableElasticMpcbf<64> d(tmp.path(), cfg);
    for (const auto& k : keys(3000)) d.insert(k);
    const auto step = d.filter().compaction_candidate();
    ASSERT_TRUE(step.has_value()) << "want a cold segment";
    ASSERT_FALSE(d.filter().retire_fits(*step))
        << "want a merge that overflows";
    const std::uint64_t seq = d.next_seq();
    topo_before = d.filter().topology_bytes();
    for (int pass = 0; pass < 5; ++pass) {
      EXPECT_FALSE(d.compact_once().has_value());
      EXPECT_EQ(d.next_seq(), seq) << "pass " << pass;
    }
    EXPECT_EQ(d.filter().topology_bytes(), topo_before);
    EXPECT_EQ(d.filter().retires(), 0u);
  }
  const auto recovered = DurableElasticMpcbf<64>::recover(tmp.path(), &cfg);
  EXPECT_EQ(recovered.topology_bytes(), topo_before);
}

TEST(DurableElasticMpcbf, ReopenRejectsMismatchedSegmentShape) {
  TempDir tmp("reshape");
  {
    DurableElasticMpcbf<64> d(tmp.path(), small_cfg());
    for (const auto& k : keys(300)) d.insert(k);
    d.snapshot();
  }
  // Same routing and seed, another segment shape: serving the
  // snapshot's k=3 segments under this config would be silent.
  ElasticConfig reshaped = small_cfg();
  reshaped.segment.k = 5;
  reshaped.segment.memory_bits *= 4;
  EXPECT_THROW(DurableElasticMpcbf<64>(tmp.path(), reshaped),
               std::runtime_error);
  ElasticConfig rekeyed = small_cfg();
  rekeyed.segment.k = 5;
  EXPECT_THROW(DurableElasticMpcbf<64>(tmp.path(), rekeyed),
               std::runtime_error);
  ElasticConfig wider = small_cfg();
  wider.segment.memory_bits *= 2;
  EXPECT_THROW(DurableElasticMpcbf<64>(tmp.path(), wider),
               std::runtime_error);
  // The matching shape still reopens.
  DurableElasticMpcbf<64> same(tmp.path(), small_cfg());
  for (const auto& k : keys(300)) EXPECT_TRUE(same.contains(k));
}

TEST(DurableElasticMpcbf, CrashAtJournalAppendRecoversPrefix) {
  TempDir tmp("crash");
  struct Crash {};
  const auto ks = keys(1200);
  std::size_t applied = 0;
  try {
    typename DurableElasticMpcbf<64>::Options opts;
    std::size_t appends = 0;
    opts.crash_hook = [&appends](std::string_view point) {
      if (point == "journal:pre-append" && ++appends > 700) throw Crash{};
    };
    DurableElasticMpcbf<64> d(tmp.path(), small_cfg(), opts);
    for (const auto& k : ks) {
      d.insert(k);
      ++applied;
    }
    FAIL() << "crash hook never fired";
  } catch (const Crash&) {
  }
  // Whatever the journal kept is a clean prefix; recovery must produce
  // the same topology a fresh filter produces replaying that prefix.
  const auto cfg = small_cfg();
  const auto recovered = DurableElasticMpcbf<64>::recover(tmp.path(), &cfg);
  ElasticMpcbf<64> shadow(cfg);
  const auto scan = mpcbf::io::Journal::scan(
      (tmp.path() / "journal.wal").string());
  for (const auto& rec : scan.records) {
    if (rec.op == mpcbf::io::JournalOp::kInsert) {
      shadow.insert(rec.key);
    }
  }
  EXPECT_EQ(recovered.topology_bytes(), shadow.topology_bytes());
  EXPECT_EQ(recovered.size(), shadow.size());
  EXPECT_GE(applied, 700u / 2);  // sanity: the storm made real progress
}

TEST(DurableElasticMpcbf, FollowerBootstrapIsByteIdentical) {
  TempDir a_dir("primary");
  TempDir b_dir("follower");
  DurableElasticMpcbf<64> a(a_dir.path(), small_cfg());
  const auto ks = keys(1300);
  for (const auto& k : ks) a.insert(k);
  ASSERT_GT(a.filter().grows(), 0u);

  auto b = DurableElasticMpcbf<64>::open_shared(b_dir.path(),
                                                small_cfg());
  auto [image, watermark] = a.serialize_snapshot();
  EXPECT_EQ(b->install_snapshot(image), watermark);
  EXPECT_EQ(b->filter().topology_bytes(), a.filter().topology_bytes());
  EXPECT_EQ(b->next_seq(), watermark + 1);

  // Tail the primary's journal after the snapshot point and replay it
  // through the replication entry point: topology records stream like
  // any other op.
  const auto more = keys(600, 33);
  for (const auto& k : more) a.insert(k);
  auto batch = a.journal_records_from(watermark + 1, 100000, 1 << 26);
  ASSERT_FALSE(batch.records.empty());
  for (const auto& rec : batch.records) {
    ASSERT_TRUE(b->apply_replicated(rec.seq, rec.op, rec.key))
        << "seq " << rec.seq;
  }
  EXPECT_EQ(b->filter().topology_bytes(), a.filter().topology_bytes());
  EXPECT_EQ(b->size(), a.size());
  for (const auto& k : more) EXPECT_TRUE(b->contains(k));
}

TEST(ElasticMpcbf, PublishesSegmentAndChainGauges) {
  ElasticMpcbf<64> f(small_cfg());
  for (const auto& k : keys(1400)) f.insert(k);
  ASSERT_GT(f.live_segments(), 1u);
  mpcbf::metrics::Registry reg;
  f.publish_metrics(reg, "t");
  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("mpcbf_elastic_segments"), std::string::npos);
  EXPECT_NE(text.find("mpcbf_elastic_segment_score"), std::string::npos);
  EXPECT_NE(text.find("mpcbf_elastic_aggregate_score"), std::string::npos);
  EXPECT_NE(text.find("mpcbf_elastic_model_fpr"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
}

TEST(ElasticNet, ServerScalesPastNominalCapacity) {
  auto mu = std::make_shared<std::shared_mutex>();
  auto f = std::make_shared<ElasticMpcbf<64>>(small_cfg());
  mpcbf::net::Server::Options opts;
  opts.workers = 2;
  mpcbf::net::Server server(
      mpcbf::net::make_backend(f, mu, 256), opts);
  server.start();
  mpcbf::net::Client::Options copts;
  copts.port = server.port();
  mpcbf::net::Client client(copts);
  const auto ks = keys(1600);
  for (std::size_t off = 0; off < ks.size(); off += 200) {
    const std::vector<std::string> chunk(
        ks.begin() + off, ks.begin() + std::min(off + 200, ks.size()));
    (void)client.insert(chunk);
  }
  const auto verdicts = client.query(ks);
  for (std::size_t i = 0; i < ks.size(); ++i) {
    EXPECT_EQ(verdicts[i], 1) << "lost key " << ks[i];
  }
  const auto h = client.health();
  EXPECT_LT(h.severity, 2u) << "chain backend should absorb the storm";
  {
    std::shared_lock lock(*mu);
    EXPECT_GT(f->live_segments(), 1u);
  }
  client.close();
  server.stop();
}

TEST(ElasticMpcbf, ConcurrentReadersDuringGrowthAndDrain) {
  auto cfg = small_cfg();
  ElasticMpcbf<64> f(cfg);
  std::shared_mutex mu;
  const auto stable = keys(200, 77);
  {
    std::unique_lock lock(mu);
    for (const auto& k : stable) f.insert(k);
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        {
          std::shared_lock lock(mu);
          for (const auto& k : stable) {
            if (!f.contains(k)) std::abort();
          }
        }
        // Release between scans: glibc's rwlock is reader-preferring
        // by default, so back-to-back shared acquisitions would starve
        // the writer below indefinitely.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  mpcbf::core::ElasticMaintainer maintainer(
      [&] {
        std::unique_lock lock(mu);
        (void)f.compact_once();
      },
      std::chrono::milliseconds(5));
  const auto storm = keys(1600, 78);
  for (std::size_t off = 0; off < storm.size(); off += 64) {
    std::unique_lock lock(mu);
    for (std::size_t i = off; i < std::min(off + 64, storm.size()); ++i) {
      f.insert(storm[i]);
    }
  }
  maintainer.stop();
  stop.store(true);
  for (auto& r : readers) r.join();
  std::unique_lock lock(mu);
  EXPECT_GT(f.live_segments(), 1u);
  EXPECT_TRUE(f.validate());
}

}  // namespace
