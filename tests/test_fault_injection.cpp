// Corruption fault-injection harness. Exhaustively mutates persisted
// artifacts — every byte offset flipped (two masks) and every truncation
// length — and asserts the durability contract at each point:
//
//   * framed snapshots (Mpcbf, CBF): load throws; a single-byte flip is
//     a burst error <= 8 bits, which CRC32C detects unconditionally, so
//     nothing short of a clean load is ever accepted;
//   * journals: replay either throws (header damage) or yields an exact
//     prefix of the true record sequence (torn-tail semantics);
//   * crash points: a process death simulated at every occurrence of
//     every durability-critical step (including around the snapshot
//     rename), for each durable kind — flat, decaying, elastic — loses
//     no acknowledged op, recovers byte-identically to a crash-free run
//     of the acknowledged ops (or those plus the one in flight), and
//     reopens into a process that finishes the script where the
//     crash-free run does.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/decaying_mpcbf.hpp"
#include "core/durable_mpcbf.hpp"
#include "core/elastic_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "filters/counting_bloom.hpp"
#include "io/journal.hpp"
#include "workload/string_sets.hpp"

namespace {

namespace fs = std::filesystem;
using mpcbf::core::DecayConfig;
using mpcbf::core::DurableDecayingMpcbf;
using mpcbf::core::DurableElasticMpcbf;
using mpcbf::core::DurableMpcbf;
using mpcbf::core::ElasticConfig;
using mpcbf::core::Mpcbf;
using mpcbf::core::MpcbfConfig;
using mpcbf::core::OverflowPolicy;
using mpcbf::io::Journal;
using mpcbf::io::JournalOp;
using mpcbf::io::JournalRecord;
using mpcbf::workload::generate_unique_strings;

constexpr unsigned char kFlipMasks[] = {0x01, 0x80};

std::string serialized_mpcbf(std::size_t* out_size = nullptr) {
  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 16;
  cfg.k = 3;
  cfg.g = 1;
  cfg.expected_n = 3000;
  cfg.policy = OverflowPolicy::kStash;
  Mpcbf<64> filter(cfg);
  for (const auto& key : generate_unique_strings(2500, 6, 11)) {
    filter.insert(key);
  }
  if (out_size != nullptr) *out_size = filter.size();
  std::ostringstream os;
  filter.save(os);
  return os.str();
}

TEST(FaultInjection, MpcbfSnapshotEveryByteFlipRejected) {
  std::size_t true_size = 0;
  const std::string bytes = serialized_mpcbf(&true_size);
  std::size_t points = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const unsigned char mask : kFlipMasks) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      std::istringstream is(mutated);
      EXPECT_THROW((void)Mpcbf<64>::load(is), std::runtime_error)
          << "flip mask 0x" << std::hex << unsigned{mask} << " at offset "
          << std::dec << i;
      ++points;
    }
  }
  // The issue's floor for the harness: >= 10k distinct mutation points.
  EXPECT_GE(points, 10000u);
  // Sanity: the unmutated stream still loads to the state we built.
  std::istringstream is(bytes);
  EXPECT_EQ(Mpcbf<64>::load(is).size(), true_size);
}

TEST(FaultInjection, MpcbfSnapshotEveryTruncationRejected) {
  const std::string bytes = serialized_mpcbf();
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    std::istringstream is(bytes.substr(0, keep));
    EXPECT_THROW((void)Mpcbf<64>::load(is), std::runtime_error)
        << "kept " << keep << " of " << bytes.size();
  }
}

TEST(FaultInjection, CbfSnapshotFlipsAndTruncationsRejected) {
  mpcbf::filters::CountingBloomFilter cbf(1 << 12, 3);
  for (const auto& key : generate_unique_strings(200, 6, 12)) cbf.insert(key);
  std::ostringstream os;
  cbf.save(os);
  const std::string bytes = os.str();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x20);
    std::istringstream is(mutated);
    EXPECT_THROW((void)mpcbf::filters::CountingBloomFilter::load(is),
                 std::runtime_error)
        << "flip at offset " << i;
  }
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    std::istringstream is(bytes.substr(0, keep));
    EXPECT_THROW((void)mpcbf::filters::CountingBloomFilter::load(is),
                 std::runtime_error)
        << "kept " << keep;
  }
}

class JournalFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mpcbf_fault_journal_" + std::string(::testing::UnitTest::
                                                     GetInstance()
                                                         ->current_test_info()
                                                         ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "journal.wal").string();
    Journal j(path_);
    for (int i = 0; i < 60; ++i) {
      const std::string key = "journal-key-" + std::to_string(i);
      const auto op = i % 4 == 0 ? JournalOp::kErase : JournalOp::kInsert;
      truth_.push_back({j.append(op, key), op, key});
    }
    j.flush(false);
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write_mutated(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // The journal contract under arbitrary damage: replay throws, or it
  // yields an exact prefix of the records that were truly appended.
  void expect_prefix_or_throw(const std::string& context) const {
    std::vector<JournalRecord> records;
    try {
      records = Journal::replay(path_);
    } catch (const std::runtime_error&) {
      return;
    }
    ASSERT_LE(records.size(), truth_.size()) << context;
    for (std::size_t i = 0; i < records.size(); ++i) {
      ASSERT_EQ(records[i], truth_[i]) << context << " record " << i;
    }
  }

  fs::path dir_;
  std::string path_;
  std::string bytes_;
  std::vector<JournalRecord> truth_;
};

TEST_F(JournalFaultTest, EveryByteFlipYieldsPrefixOrThrows) {
  for (std::size_t i = 0; i < bytes_.size(); ++i) {
    for (const unsigned char mask : kFlipMasks) {
      std::string mutated = bytes_;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      write_mutated(mutated);
      expect_prefix_or_throw("flip at offset " + std::to_string(i));
    }
  }
}

TEST_F(JournalFaultTest, EveryTruncationYieldsPrefixOrThrows) {
  for (std::size_t keep = 0; keep < bytes_.size(); ++keep) {
    write_mutated(bytes_.substr(0, keep));
    expect_prefix_or_throw("kept " + std::to_string(keep));
  }
}

TEST_F(JournalFaultTest, RecordDamageNeverForgesRecords) {
  // Flipping record bytes (past the header) must never *invent* data:
  // any surviving record must byte-match the truth. Already implied by
  // the prefix contract; this narrows it to the record region and
  // additionally checks that damage at record r keeps records < r.
  const std::size_t header = Journal::kHeaderBytes;
  for (std::size_t i = header; i < bytes_.size(); i += 7) {
    std::string mutated = bytes_;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    write_mutated(mutated);
    const auto records = Journal::replay(path_);  // record damage: no throw
    ASSERT_LT(records.size(), truth_.size()) << "flip at " << i;
    for (std::size_t r = 0; r < records.size(); ++r) {
      ASSERT_EQ(records[r], truth_[r]) << "flip at " << i;
    }
  }
}

// --- crash-point simulation, every durable kind --------------------------

struct SimulatedCrash {};

enum class Step { kInsert, kErase, kTick, kCompact, kSnapshot };
struct ScriptOp {
  Step step;
  std::string key;
};

/// One scripted workload per durable kind: inserts, erases and two
/// snapshots, plus the kind's own journal records — decay ticks, elastic
/// growth on a segment small enough to split within the script.
template <class D>
struct CrashScript;

template <>
struct CrashScript<DurableMpcbf<64>> {
  static MpcbfConfig config() {
    MpcbfConfig cfg;
    cfg.memory_bits = 1 << 15;
    cfg.k = 3;
    cfg.g = 1;
    cfg.expected_n = 500;
    cfg.policy = OverflowPolicy::kStash;
    return cfg;
  }
  /// 30 inserts, snapshot, 30 inserts, snapshot, 30 inserts.
  static std::vector<ScriptOp> ops() {
    std::vector<ScriptOp> ops;
    const auto keys = generate_unique_strings(90, 6, 21);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ops.push_back({Step::kInsert, keys[i]});
      if (i == 29 || i == 59) ops.push_back({Step::kSnapshot, {}});
    }
    return ops;
  }
};

template <>
struct CrashScript<DurableDecayingMpcbf<64>> {
  static DecayConfig config() {
    DecayConfig cfg;
    cfg.generation = CrashScript<DurableMpcbf<64>>::config();
    cfg.generation.memory_bits = 1 << 13;
    cfg.generations = 4;  // the script's 3 ticks retire nothing
    return cfg;
  }
  static std::vector<ScriptOp> ops() {
    std::vector<ScriptOp> ops;
    const auto keys = generate_unique_strings(90, 6, 22);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ops.push_back({Step::kInsert, keys[i]});
      if (i == 29 || i == 59) {
        ops.push_back({Step::kTick, {}});
        ops.push_back({Step::kSnapshot, {}});
      }
      if (i == 44) {
        for (std::size_t e = 0; e < 10; ++e) {
          ops.push_back({Step::kErase, keys[e * 2]});
        }
      }
    }
    ops.push_back({Step::kTick, {}});
    return ops;
  }
};

template <>
struct CrashScript<DurableElasticMpcbf<64>> {
  static ElasticConfig config() {
    ElasticConfig cfg;
    cfg.segment = CrashScript<DurableMpcbf<64>>::config();
    cfg.segment.memory_bits = 1 << 9;  // splits within ~40 inserts
    cfg.segment.expected_n = 100;
    cfg.route_bits = 2;
    cfg.probe_stride = 4;
    return cfg;
  }
  static std::vector<ScriptOp> ops() {
    std::vector<ScriptOp> ops;
    const auto keys = generate_unique_strings(90, 6, 31);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ops.push_back({Step::kInsert, keys[i]});
      if (i == 29 || i == 59) ops.push_back({Step::kSnapshot, {}});
      if (i == 64) {
        for (std::size_t e = 0; e < 10; ++e) {
          ops.push_back({Step::kErase, keys[e * 3]});
        }
      }
    }
    ops.push_back({Step::kCompact, {}});
    return ops;
  }
};

template <class D>
void run_op(D& d, const ScriptOp& op) {
  switch (op.step) {
    case Step::kInsert:
      (void)d.insert(op.key);
      break;
    case Step::kErase:
      (void)d.erase(op.key);
      break;
    case Step::kTick:
      if constexpr (requires { d.decay_tick(); }) (void)d.decay_tick();
      break;
    case Step::kCompact:
      if constexpr (requires { d.compact_once(); }) (void)d.compact_once();
      break;
    case Step::kSnapshot:
      d.snapshot();
      break;
  }
}

template <class D>
std::string payload_of(const D& d) {
  std::ostringstream os;
  d.filter().save_payload(os);
  return os.str();
}

template <class D>
class CrashPointTest : public ::testing::Test {
 protected:
  using Script = CrashScript<D>;

  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "_" +
                       info->name();  // suite is "CrashPointTest/<i>"
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = fs::temp_directory_path() / ("mpcbf_crash_" + name);
    fs::remove_all(dir_);
    ops_ = Script::ops();
    // Crash-free reference: the payload after each prefix of the script,
    // and how often each crash point fires over the whole run.
    const fs::path ref_dir = dir_.string() + "_ref";
    fs::remove_all(ref_dir);
    typename D::Options opt = options();
    opt.crash_hook = [this](std::string_view p) { ++fired_[std::string(p)]; };
    {
      D ref(ref_dir, Script::config(), opt);
      prefix_payload_.push_back(payload_of(ref));
      for (const auto& op : ops_) {
        run_op(ref, op);
        prefix_payload_.push_back(payload_of(ref));
      }
      grows_or_ticks_ = [&] {
        if constexpr (requires { ref.ticks(); }) return ref.ticks();
        else if constexpr (requires { ref.filter().grows(); })
          return ref.filter().grows();
        else return std::uint64_t{1};
      }();
    }
    fs::remove_all(ref_dir);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static typename D::Options options() {
    typename D::Options opt;
    opt.fsync = false;  // crash model here is process death, not power loss
    opt.flush_every = 1;
    return opt;
  }

  /// Runs the script with a crash injected at the `nth` occurrence of
  /// `point`; returns how many ops were acknowledged (returned) first.
  std::size_t run_until_crash(std::string_view point, int nth) {
    fs::remove_all(dir_);
    int seen = 0;
    typename D::Options opt = options();
    opt.crash_hook = [&](std::string_view p) {
      if (p == point && ++seen == nth) throw SimulatedCrash{};
    };
    std::size_t acked = 0;
    try {
      D d(dir_, Script::config(), opt);
      for (const auto& op : ops_) {
        run_op(d, op);
        ++acked;
      }
    } catch (const SimulatedCrash&) {
    }
    return acked;
  }

  /// Every crash point with every occurrence it has in the script.
  template <class Check>
  void for_each_crash(Check&& check) {
    static constexpr std::string_view kPoints[] = {
        "journal:pre-append",       "journal:post-append",
        "journal:post-flush",       "snapshot:post-temp-write",
        "snapshot:pre-rename",      "snapshot:post-rename",
        "snapshot:post-journal-reset"};
    for (const auto point : kPoints) {
      const int count = fired_[std::string(point)];
      ASSERT_GT(count, 0) << point << " never fires in the script";
      for (int nth = 1; nth <= count; ++nth) {
        const std::size_t acked = run_until_crash(point, nth);
        ASSERT_LT(acked, ops_.size()) << point << " #" << nth;
        check(point, nth, acked);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }

  /// The prefix length the reopened state equals: n or n + 1 (the op in
  /// flight may have been journaled before the crash), or npos.
  std::size_t matching_prefix(const std::string& payload,
                              std::size_t acked) const {
    if (payload == prefix_payload_[acked]) return acked;
    if (payload == prefix_payload_[acked + 1]) return acked + 1;
    return std::string::npos;
  }

  fs::path dir_;
  std::vector<ScriptOp> ops_;
  std::vector<std::string> prefix_payload_;
  std::map<std::string, int> fired_;
  std::uint64_t grows_or_ticks_ = 0;
};

using DurableKinds =
    ::testing::Types<DurableMpcbf<64>, DurableDecayingMpcbf<64>,
                     DurableElasticMpcbf<64>>;
TYPED_TEST_SUITE(CrashPointTest, DurableKinds);

TYPED_TEST(CrashPointTest, NoAcknowledgedMutationIsLostAtAnyCrashPoint) {
  // The script really exercises the kind's own records.
  ASSERT_GT(this->grows_or_ticks_, 0u);
  std::set<std::string> erased;
  for (const auto& op : this->ops_) {
    if (op.step == Step::kErase) erased.insert(op.key);
  }
  this->for_each_crash([&](std::string_view point, int nth,
                           std::size_t acked) {
    typename TypeParam::Options opt = this->options();
    const TypeParam d(this->dir_, CrashScript<TypeParam>::config(), opt);
    EXPECT_TRUE(d.filter().validate());
    for (std::size_t i = 0; i < acked; ++i) {
      const auto& op = this->ops_[i];
      if (op.step != Step::kInsert || erased.count(op.key) != 0) continue;
      EXPECT_TRUE(d.contains(op.key))
          << "lost \"" << op.key << "\" crashing at " << point
          << " occurrence " << nth << " (" << acked << " acked)";
    }
    // Byte-identical to the crash-free run of the acknowledged ops, or
    // of those plus the one in flight.
    EXPECT_NE(this->matching_prefix(payload_of(d), acked), std::string::npos)
        << "crashing at " << point << " occurrence " << nth << " ("
        << acked << " acked)";
  });
}

TYPED_TEST(CrashPointTest, ReopenAfterCrashContinuesCleanly) {
  // After a crash anywhere — the nastiest being snapshot published,
  // journal not yet truncated — a plain reopen resumes the script where
  // the recovered state left it and ends where the crash-free run does.
  this->for_each_crash([&](std::string_view point, int nth,
                           std::size_t acked) {
    TypeParam d(this->dir_, CrashScript<TypeParam>::config(), this->options());
    const std::size_t resume = this->matching_prefix(payload_of(d), acked);
    ASSERT_NE(resume, std::string::npos)
        << "crashing at " << point << " occurrence " << nth;
    for (std::size_t i = resume; i < this->ops_.size(); ++i) {
      run_op(d, this->ops_[i]);
    }
    EXPECT_EQ(payload_of(d), this->prefix_payload_.back())
        << "crashing at " << point << " occurrence " << nth;
    EXPECT_TRUE(d.insert("post-crash-key"));
    EXPECT_TRUE(d.contains("post-crash-key"));
  });
}

}  // namespace
