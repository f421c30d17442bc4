// DurableMpcbf: journaled mutations, snapshot compaction, recovery
// equivalence, watermark handling across snapshot/journal races and
// erase_batch/scalar parity; plus golden snapshots of the decaying and
// elastic durable kinds.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/decaying_mpcbf.hpp"
#include "core/durable_mpcbf.hpp"
#include "core/elastic_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "io/binary.hpp"
#include "io/journal.hpp"
#include "workload/string_sets.hpp"

namespace {

namespace fs = std::filesystem;
using mpcbf::core::DurableMpcbf;
using mpcbf::core::Mpcbf;
using mpcbf::core::MpcbfConfig;
using mpcbf::core::OverflowPolicy;
using mpcbf::workload::generate_unique_strings;

MpcbfConfig small_config() {
  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 16;
  cfg.k = 3;
  cfg.g = 1;
  cfg.expected_n = 2000;
  cfg.policy = OverflowPolicy::kStash;
  return cfg;
}

class DurableMpcbfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           std::string("mpcbf_durable_test_")
               .append(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // No fsync in tests: the crash model under test is process death, and
  // skipping it keeps the suite fast.
  DurableMpcbf<64>::Options fast_options() {
    DurableMpcbf<64>::Options opt;
    opt.fsync = false;
    return opt;
  }

  fs::path dir_;
};

TEST_F(DurableMpcbfTest, JournalOnlyRecovery) {
  const auto keys = generate_unique_strings(500, 6, 1);
  {
    DurableMpcbf<64> d(dir_, small_config(), fast_options());
    for (const auto& k : keys) ASSERT_TRUE(d.insert(k));
    d.erase(keys[0]);
    d.flush();
  }  // no snapshot ever taken: recovery replays the journal from empty
  const MpcbfConfig cfg = small_config();
  const Mpcbf<64> recovered = DurableMpcbf<64>::recover(dir_, &cfg);
  EXPECT_EQ(recovered.size(), keys.size() - 1);
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_TRUE(recovered.contains(keys[i]));
  }
}

TEST_F(DurableMpcbfTest, SnapshotPlusJournalRecovery) {
  const auto keys = generate_unique_strings(600, 6, 2);
  const MpcbfConfig cfg = small_config();
  {
    DurableMpcbf<64> d(dir_, cfg, fast_options());
    for (std::size_t i = 0; i < 400; ++i) ASSERT_TRUE(d.insert(keys[i]));
    d.snapshot();
    for (std::size_t i = 400; i < keys.size(); ++i) {
      ASSERT_TRUE(d.insert(keys[i]));
    }
    d.flush();
  }
  // Reference: the same op sequence on a plain filter.
  Mpcbf<64> reference(cfg);
  for (const auto& k : keys) reference.insert(k);

  const Mpcbf<64> recovered = DurableMpcbf<64>::recover(dir_, &cfg);
  EXPECT_EQ(recovered.size(), reference.size());
  for (std::size_t w = 0; w < reference.num_words(); ++w) {
    ASSERT_EQ(recovered.word(w), reference.word(w)) << w;
  }
  for (const auto& k : keys) EXPECT_TRUE(recovered.contains(k));
}

TEST_F(DurableMpcbfTest, ReopenResumesSeamlessly) {
  const auto keys = generate_unique_strings(300, 6, 3);
  const MpcbfConfig cfg = small_config();
  for (int round = 0; round < 3; ++round) {
    DurableMpcbf<64> d(dir_, cfg, fast_options());
    EXPECT_EQ(d.size(), static_cast<std::size_t>(round) * 100);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(d.insert(keys[round * 100 + i]));
    }
    if (round == 1) d.snapshot();
    d.flush();
  }
  DurableMpcbf<64> d(dir_, cfg, fast_options());
  EXPECT_EQ(d.size(), keys.size());
  for (const auto& k : keys) EXPECT_TRUE(d.contains(k));
}

TEST_F(DurableMpcbfTest, SnapshotTruncatesJournal) {
  DurableMpcbf<64> d(dir_, small_config(), fast_options());
  for (const auto& k : generate_unique_strings(200, 6, 4)) d.insert(k);
  d.snapshot();
  const auto scan =
      mpcbf::io::Journal::scan(DurableMpcbf<64>::journal_path(dir_).string());
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.base_seq, 201u);
  EXPECT_FALSE(DurableMpcbf<64>::snapshot_files(dir_).empty());
}

TEST_F(DurableMpcbfTest, OpenExistingDerivesLayoutFromSnapshot) {
  const auto keys = generate_unique_strings(150, 6, 5);
  {
    DurableMpcbf<64> d(dir_, small_config(), fast_options());
    for (const auto& k : keys) d.insert(k);
    d.snapshot();
  }
  auto d = DurableMpcbf<64>::open_existing(dir_, fast_options());
  EXPECT_EQ(d.size(), keys.size());
  for (const auto& k : keys) EXPECT_TRUE(d.contains(k));
}

TEST_F(DurableMpcbfTest, OpenExistingWithoutStateThrows) {
  EXPECT_THROW(DurableMpcbf<64>::open_existing(dir_, fast_options()),
               std::runtime_error);
}

TEST_F(DurableMpcbfTest, MismatchedConfigThrows) {
  {
    DurableMpcbf<64> d(dir_, small_config(), fast_options());
    d.insert("x");
    d.snapshot();
  }
  MpcbfConfig other = small_config();
  other.memory_bits *= 2;
  EXPECT_THROW((DurableMpcbf<64>(dir_, other, fast_options())),
               std::runtime_error);
}

TEST_F(DurableMpcbfTest, CompactedJournalWithoutSnapshotIsUnrecoverable) {
  {
    DurableMpcbf<64> d(dir_, small_config(), fast_options());
    for (const auto& k : generate_unique_strings(50, 6, 6)) d.insert(k);
    d.snapshot();
  }
  // Lose every snapshot; the journal's base_seq still admits 50 records
  // were compacted away. Recovery must refuse, not serve an empty set.
  for (const auto& snap : DurableMpcbf<64>::snapshot_files(dir_)) {
    fs::remove(snap);
  }
  const MpcbfConfig cfg = small_config();
  EXPECT_THROW((void)DurableMpcbf<64>::recover(dir_, &cfg),
               std::runtime_error);
}

TEST_F(DurableMpcbfTest, FallsBackToOlderSnapshotWhenJournalStillCovers) {
  const auto keys = generate_unique_strings(120, 6, 7);
  const MpcbfConfig cfg = small_config();
  {
    DurableMpcbf<64> d(dir_, cfg, fast_options());
    for (std::size_t i = 0; i < 60; ++i) d.insert(keys[i]);
    d.snapshot();
    for (std::size_t i = 60; i < keys.size(); ++i) d.insert(keys[i]);
    d.flush();
  }
  // Plant a garbage "newer" snapshot. Recovery must reject it (CRC) and
  // fall back to the real one; the journal still holds every record
  // above that watermark, so no data is lost.
  {
    std::ofstream junk(dir_ / "snapshot-ffffffffffffffff.mpcbf",
                       std::ios::binary);
    junk << "this is not a snapshot";
  }
  const Mpcbf<64> recovered = DurableMpcbf<64>::recover(dir_, &cfg);
  EXPECT_EQ(recovered.size(), keys.size());
  for (const auto& k : keys) EXPECT_TRUE(recovered.contains(k));
}

TEST_F(DurableMpcbfTest, CorruptNewestSnapshotWithCompactedJournalThrows) {
  const auto keys = generate_unique_strings(120, 6, 8);
  const MpcbfConfig cfg = small_config();
  DurableMpcbf<64>::Options opt = fast_options();
  {
    DurableMpcbf<64> d(dir_, cfg, opt);
    for (std::size_t i = 0; i < 60; ++i) d.insert(keys[i]);
    d.snapshot();
    for (std::size_t i = 60; i < keys.size(); ++i) d.insert(keys[i]);
    d.snapshot();
  }
  auto snaps = DurableMpcbf<64>::snapshot_files(dir_);
  ASSERT_EQ(snaps.size(), 2u);
  // Corrupt the newest snapshot. The journal was compacted past the
  // older snapshot's watermark, so recovery must throw (records 61..120
  // exist nowhere readable) rather than quietly serve the older state.
  {
    std::fstream f(snaps[0], std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(100);
    f.put('\x7f');
  }
  EXPECT_THROW((void)DurableMpcbf<64>::recover(dir_, &cfg),
               std::runtime_error);
}

TEST_F(DurableMpcbfTest, EraseBatchMatchesScalarEraseLoop) {
  // Inserted keys (some twice), then an erase list mixing present keys,
  // repeats and never-inserted keys, so both verdicts occur.
  const auto keys = generate_unique_strings(400, 6, 9);
  std::vector<std::string> erases;
  for (std::size_t i = 0; i < 300; i += 2) erases.push_back(keys[i]);
  for (std::size_t i = 0; i < 40; ++i) erases.push_back(keys[i * 3]);
  for (const auto& k : generate_unique_strings(60, 7, 10)) {
    erases.push_back(k);
  }
  const fs::path batch_dir = dir_ / "batch";
  const fs::path scalar_dir = dir_ / "scalar";
  auto read_file = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  auto payload = [](const DurableMpcbf<64>& d) {
    std::ostringstream os;
    d.filter().save_payload(os);
    return os.str();
  };
  std::vector<std::uint8_t> batch_ok(erases.size());
  std::vector<std::uint8_t> scalar_ok(erases.size());
  {
    DurableMpcbf<64> b(batch_dir, small_config(), fast_options());
    DurableMpcbf<64> s(scalar_dir, small_config(), fast_options());
    for (const auto& k : keys) {
      b.insert(k);
      s.insert(k);
    }
    for (std::size_t i = 0; i < 100; ++i) {
      b.insert(keys[i]);
      s.insert(keys[i]);
    }
    // Both overloads: std::string for the first half, views after.
    const std::size_t half = erases.size() / 2;
    b.erase_batch(std::span<const std::string>(erases).first(half),
                  std::span<std::uint8_t>(batch_ok).first(half));
    const std::vector<std::string_view> views(erases.begin() + half,
                                              erases.end());
    b.erase_batch(std::span<const std::string_view>(views),
                  std::span<std::uint8_t>(batch_ok).subspan(half));
    for (std::size_t i = 0; i < erases.size(); ++i) {
      scalar_ok[i] = s.erase(erases[i]) ? 1 : 0;
    }
    EXPECT_EQ(batch_ok, scalar_ok);
    EXPECT_EQ(payload(b), payload(s));
    EXPECT_EQ(b.next_seq(), s.next_seq());
    b.flush();
    s.flush();
    EXPECT_EQ(read_file(DurableMpcbf<64>::journal_path(batch_dir)),
              read_file(DurableMpcbf<64>::journal_path(scalar_dir)));
  }
  EXPECT_NE(std::count(batch_ok.begin(), batch_ok.end(), 1), 0);
  EXPECT_NE(std::count(batch_ok.begin(), batch_ok.end(), 0), 0);
  // The journaled erases replay to the same state.
  const MpcbfConfig cfg = small_config();
  std::ostringstream recovered;
  DurableMpcbf<64>::recover(batch_dir, &cfg).save_payload(recovered);
  DurableMpcbf<64> s(scalar_dir, cfg, fast_options());
  EXPECT_EQ(recovered.str(), payload(s));
}

TEST_F(DurableMpcbfTest, GroupCommitFlushEvery) {
  DurableMpcbf<64>::Options opt = fast_options();
  opt.flush_every = 16;
  DurableMpcbf<64> d(dir_, small_config(), opt);
  for (int i = 0; i < 15; ++i) {
    d.insert(std::string("k").append(std::to_string(i)));
  }
  EXPECT_EQ(d.pending_records(), 15u);
  d.insert("k15");  // 16th mutation triggers the group flush
  EXPECT_EQ(d.pending_records(), 0u);
}

// --- golden durable snapshots for the decaying and elastic kinds ------------
//
// tests/data/durable_{decay,elastic}_golden.snap were written by the
// library before its three durable wrappers were folded into Durable<F>
// (git 9b3bd74): a decaying window (k=3, 2^12-bit generations, 3
// generations, seed 0xDECA7; keys golden-decay-0..299, a tick after 120
// and after 220 keys, every 5th of keys 120..219 erased) and an elastic
// chain (k=3, 2^12-bit segments, route_bits 3, probe_stride 8, seed
// 0xE1A5; keys golden-elastic-0..699 with 4 splits, every 7th erased).
// Recovering each and publishing it again must give the same bytes.

template <class D>
void expect_golden_round_trip(const std::string& file,
                              const std::vector<std::string>& present,
                              std::size_t size) {
  std::ifstream in(std::string(MPCBF_TEST_DATA_DIR) + "/" + file,
                   std::ios::binary);
  ASSERT_TRUE(in) << file;
  const std::string image((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::istringstream is(image);
  std::istringstream payload(mpcbf::io::read_frame(is));
  mpcbf::io::expect_magic(payload, D::kSnapshotMagic);
  const auto watermark = mpcbf::io::read_pod<std::uint64_t>(payload);

  const fs::path dir = fs::temp_directory_path() / ("mpcbf_golden_" + file);
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream out(dir / "snapshot-0000000000000001.mpcbf",
                      std::ios::binary);
    out << image;
  }
  // The journal a snapshot publish leaves behind: empty, based above it.
  mpcbf::io::Journal(D::journal_path(dir).string()).reset(watermark + 1);

  typename D::Options opt;
  opt.fsync = false;
  auto d = D::open_existing(dir, opt);
  EXPECT_EQ(d.size(), size);
  for (const auto& k : present) EXPECT_TRUE(d.contains(k)) << k;
  const auto [again, again_watermark] = d.serialize_snapshot();
  EXPECT_EQ(again_watermark, watermark);
  EXPECT_TRUE(again == image) << file << " re-serialises differently";
  d.snapshot();
  const auto files = D::snapshot_files(dir);
  ASSERT_FALSE(files.empty());
  std::ifstream published(files.front(), std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(published)),
                          std::istreambuf_iterator<char>());
  EXPECT_TRUE(bytes == image) << file << " publishes differently";
  fs::remove_all(dir);
}

TEST(DurableGolden, DecayingSnapshotRoundTripsByteForByte) {
  std::vector<std::string> present;
  for (int i = 0; i < 120; ++i) {
    present.push_back(
        std::string("golden-decay-").append(std::to_string(i)));
  }
  for (int i = 220; i < 300; ++i) {
    present.push_back(
        std::string("golden-decay-").append(std::to_string(i)));
  }
  expect_golden_round_trip<mpcbf::core::DurableDecayingMpcbf<64>>(
      "durable_decay_golden.snap", present, 280);
}

TEST(DurableGolden, ElasticSnapshotRoundTripsByteForByte) {
  // No membership pins here: an erase probes the chain oldest-first and
  // may decrement a segment where the erased key is only a false
  // positive, so a few live keys of this heavily loaded chain read
  // absent in the fixture itself. The element count is exact.
  expect_golden_round_trip<mpcbf::core::DurableElasticMpcbf<64>>(
      "durable_elastic_golden.snap", {}, 600);
}

}  // namespace
