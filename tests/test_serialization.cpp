// Binary persistence: exact round-trips for CounterVector, CBF and Mpcbf
// (including stash contents), format validation, corruption handling,
// and v1 (pre-frame) backward compatibility against a checked-in blob.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "bitvec/counter_vector.hpp"
#include "core/mpcbf.hpp"
#include "filters/counting_bloom.hpp"
#include "io/binary.hpp"
#include "workload/string_sets.hpp"

namespace {

using mpcbf::bits::CounterVector;
using mpcbf::core::Mpcbf;
using mpcbf::core::MpcbfConfig;
using mpcbf::core::OverflowPolicy;
using mpcbf::filters::CountingBloomFilter;
using mpcbf::workload::generate_unique_strings;

TEST(BinaryIo, PodRoundTrip) {
  std::stringstream ss;
  mpcbf::io::write_pod<std::uint64_t>(ss, 0xDEADBEEFCAFEBABEULL);
  mpcbf::io::write_pod<std::uint8_t>(ss, 7);
  EXPECT_EQ(mpcbf::io::read_pod<std::uint64_t>(ss), 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(mpcbf::io::read_pod<std::uint8_t>(ss), 7);
}

TEST(BinaryIo, TruncationThrows) {
  std::stringstream ss;
  mpcbf::io::write_pod<std::uint8_t>(ss, 1);
  EXPECT_THROW(mpcbf::io::read_pod<std::uint64_t>(ss), std::runtime_error);
}

TEST(BinaryIo, StringLengthGuard) {
  std::stringstream ss;
  mpcbf::io::write_string(ss, "hello world");
  EXPECT_THROW(mpcbf::io::read_string(ss, 5), std::runtime_error);
}

TEST(BinaryIo, MagicMismatchThrows) {
  std::stringstream ss;
  mpcbf::io::write_magic(ss, "AAAABBBB");
  EXPECT_THROW(mpcbf::io::expect_magic(ss, "CCCCDDDD"), std::runtime_error);
}

TEST(CounterVectorIo, RoundTrip) {
  CounterVector v(300, 4);
  for (std::size_t i = 0; i < 300; i += 3) {
    v.set(i, static_cast<std::uint32_t>(i % 16));
  }
  v.increment(0);  // also exercise saturation counters
  std::stringstream ss;
  v.save(ss);
  const CounterVector loaded = CounterVector::load(ss);
  ASSERT_EQ(loaded.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(loaded.get(i), v.get(i)) << i;
  }
  EXPECT_EQ(loaded.saturations(), v.saturations());
}

TEST(CbfIo, RoundTripPreservesAnswers) {
  const auto keys = generate_unique_strings(3000, 5, 101);
  const auto probes = generate_unique_strings(3000, 7, 102);
  CountingBloomFilter f(1 << 17, 3);
  for (const auto& k : keys) f.insert(k);

  std::stringstream ss;
  f.save(ss);
  CountingBloomFilter loaded = CountingBloomFilter::load(ss);

  EXPECT_EQ(loaded.size(), f.size());
  EXPECT_EQ(loaded.k(), f.k());
  for (const auto& k : keys) {
    ASSERT_TRUE(loaded.contains(k));
  }
  for (const auto& p : probes) {
    ASSERT_EQ(loaded.contains(p), f.contains(p)) << p;
  }
  // Deletion must keep working on the loaded instance.
  for (const auto& k : keys) {
    ASSERT_TRUE(loaded.erase(k));
  }
  EXPECT_DOUBLE_EQ(loaded.fill_ratio(), 0.0);
}

TEST(CbfIo, WrongMagicRejected) {
  std::stringstream ss;
  ss << "NOTACBF!garbagegarbage";
  EXPECT_THROW(CountingBloomFilter::load(ss), std::runtime_error);
}

TEST(MpcbfIo, RoundTripPreservesEverything) {
  const auto keys = generate_unique_strings(4000, 5, 103);
  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 18;
  cfg.k = 4;
  cfg.g = 2;
  cfg.expected_n = keys.size();
  cfg.policy = OverflowPolicy::kStash;
  Mpcbf<64> f(cfg);
  for (const auto& k : keys) {
    ASSERT_TRUE(f.insert(k));
  }

  std::stringstream ss;
  f.save(ss);
  Mpcbf<64> loaded = Mpcbf<64>::load(ss);

  EXPECT_EQ(loaded.size(), f.size());
  EXPECT_EQ(loaded.b1(), f.b1());
  EXPECT_EQ(loaded.n_max(), f.n_max());
  EXPECT_EQ(loaded.stash_size(), f.stash_size());
  EXPECT_TRUE(loaded.validate());
  for (std::size_t w = 0; w < f.num_words(); ++w) {
    ASSERT_EQ(loaded.word(w), f.word(w)) << w;
  }
  for (const auto& k : keys) {
    ASSERT_TRUE(loaded.contains(k));
  }
  // Erase on the loaded filter must restore empty exactly.
  for (const auto& k : keys) {
    ASSERT_TRUE(loaded.erase(k));
  }
  EXPECT_EQ(loaded.total_hierarchy_bits(), 0u);
}

TEST(MpcbfIo, StashSurvivesRoundTrip) {
  MpcbfConfig cfg;
  cfg.memory_bits = 64 * 2;
  cfg.k = 3;
  cfg.g = 1;
  cfg.n_max = 2;
  cfg.policy = OverflowPolicy::kStash;
  Mpcbf<64> f(cfg);
  const auto keys = generate_unique_strings(20, 6, 104);
  for (const auto& k : keys) {
    ASSERT_TRUE(f.insert(k));
  }
  ASSERT_GT(f.stash_size(), 0u);

  std::stringstream ss;
  f.save(ss);
  Mpcbf<64> loaded = Mpcbf<64>::load(ss);
  EXPECT_EQ(loaded.stash_size(), f.stash_size());
  for (const auto& k : keys) {
    ASSERT_TRUE(loaded.contains(k)) << k;
  }
  // Erase must route through the reloaded stash exactly as it would have
  // on the original instance: stashed keys drain the stash, in-word keys
  // clear their hierarchy bits, and the filter ends empty.
  for (const auto& k : keys) {
    ASSERT_TRUE(loaded.erase(k)) << k;
  }
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(loaded.stash_size(), 0u);
  EXPECT_EQ(loaded.total_hierarchy_bits(), 0u);
  for (const auto& k : keys) {
    EXPECT_FALSE(loaded.contains(k)) << k;
  }
}

TEST(MpcbfIo, WideWordRoundTrip) {
  // Multi-limb words (8 limbs at W=512) exercise the raw-vector payload
  // path differently than W=64.
  const auto keys = generate_unique_strings(2000, 5, 105);
  MpcbfConfig cfg;
  cfg.memory_bits = 1 << 18;
  cfg.k = 3;
  cfg.g = 1;
  cfg.expected_n = keys.size();
  Mpcbf<512> f(cfg);
  for (const auto& k : keys) {
    ASSERT_TRUE(f.insert(k));
  }
  std::stringstream ss;
  f.save(ss);
  Mpcbf<512> loaded = Mpcbf<512>::load(ss);
  EXPECT_TRUE(loaded.validate());
  for (const auto& k : keys) {
    ASSERT_TRUE(loaded.contains(k));
  }
}

TEST(MpcbfIo, WidthMismatchRejected) {
  Mpcbf<64> f = Mpcbf<64>::with_memory(1 << 14, 3, 1, 100);
  std::stringstream ss;
  f.save(ss);
  EXPECT_THROW(Mpcbf<32>::load(ss), std::runtime_error);
}

TEST(MpcbfIo, TruncatedStreamRejected) {
  Mpcbf<64> f = Mpcbf<64>::with_memory(1 << 14, 3, 1, 100);
  ASSERT_TRUE(f.insert("x"));
  std::stringstream ss;
  f.save(ss);
  const std::string data = ss.str();
  // Truncations at several depths: header, word payload, stash section.
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{20}, data.size() / 2,
        data.size() - 1}) {
    std::stringstream cut(data.substr(0, keep));
    EXPECT_THROW((void)Mpcbf<64>::load(cut), std::runtime_error)
        << "kept " << keep << " of " << data.size();
  }
}

TEST(MpcbfIo, CorruptPayloadRejected) {
  Mpcbf<64> f = Mpcbf<64>::with_memory(1 << 14, 3, 1, 100);
  ASSERT_TRUE(f.insert("x"));
  std::stringstream ss;
  f.save(ss);
  std::string data = ss.str();
  // Flip a bit deep inside the word payload: load must notice that the
  // word no longer matches its persisted hierarchy usage.
  data[data.size() / 2] ^= 0x10;
  std::stringstream corrupted(data);
  EXPECT_THROW((void)Mpcbf<64>::load(corrupted), std::runtime_error);
}

// Bare v1 streams bypass the frame CRC, so the body parser itself must
// reject hostile field values. save_payload() emits exactly the v1
// layout (magic 8 | width,k,g,b1,n_max u32 | policy,short_circuit u8 |
// seed,size,overflows,underflows u64 | words | hier | stash), which
// these tests patch at fixed offsets.
constexpr std::size_t kV1PolicyOffset = 8 + 5 * 4;
constexpr std::size_t kV1WordCountOffset = kV1PolicyOffset + 2 + 4 * 8;

std::string v1_payload_with_stash() {
  MpcbfConfig cfg;
  cfg.memory_bits = 64 * 2;
  cfg.k = 3;
  cfg.g = 1;
  cfg.n_max = 2;
  cfg.policy = OverflowPolicy::kStash;
  Mpcbf<64> f(cfg);
  for (const auto& k : generate_unique_strings(20, 6, 106)) {
    f.insert(k);
  }
  std::ostringstream os;
  f.save_payload(os);
  return os.str();
}

TEST(MpcbfIo, UnknownPolicyByteRejected) {
  std::string data = v1_payload_with_stash();
  data[kV1PolicyOffset] = 7;
  std::istringstream is(data);
  EXPECT_THROW((void)Mpcbf<64>::load(is), std::runtime_error);
}

TEST(MpcbfIo, StashUnderNonStashPolicyRejected) {
  std::string data = v1_payload_with_stash();
  // Rewrite the policy to kReject while stash entries follow: a state no
  // correct save() can produce.
  data[kV1PolicyOffset] = 0;
  std::istringstream is(data);
  EXPECT_THROW((void)Mpcbf<64>::load(is), std::runtime_error);
}

TEST(MpcbfIo, HostileWordCountIsNotAnAllocationBomb) {
  std::string data = v1_payload_with_stash();
  // Claim 2^40 words: load must reject the length before allocating the
  // ~8 TiB it implies.
  const std::uint64_t huge = 1ull << 40;
  std::memcpy(data.data() + kV1WordCountOffset, &huge, sizeof huge);
  std::istringstream is(data);
  EXPECT_THROW((void)Mpcbf<64>::load(is), std::runtime_error);
}

TEST(MpcbfIo, InconsistentSizeFieldRejected) {
  // size_ is persisted but also derivable from the word state when no
  // underflow happened; a mismatch must not load.
  constexpr std::size_t kV1SizeOffset = kV1PolicyOffset + 2 + 8;
  std::string data = v1_payload_with_stash();
  std::uint64_t size;
  std::memcpy(&size, data.data() + kV1SizeOffset, sizeof size);
  size += 1;
  std::memcpy(data.data() + kV1SizeOffset, &size, sizeof size);
  std::istringstream is(data);
  EXPECT_THROW((void)Mpcbf<64>::load(is), std::runtime_error);
}

// Per-word usages are derived on save and checked on load, not stored
// in the filter: a save -> load -> save cycle must still reproduce every
// byte, stash entries and event counters included.
TEST(MpcbfIo, SaveLoadSaveIsByteIdentical) {
  const std::string first = v1_payload_with_stash();
  std::istringstream is(first);
  const Mpcbf<64> loaded = Mpcbf<64>::load(is);
  ASSERT_GT(loaded.stash_size(), 0u);
  ASSERT_GT(loaded.overflow_events(), 0u);
  std::ostringstream payload;
  loaded.save_payload(payload);
  EXPECT_EQ(payload.str(), first);

  std::stringstream framed;
  loaded.save(framed);
  const std::string framed_first = framed.str();
  const Mpcbf<64> reloaded = Mpcbf<64>::load(framed);
  std::ostringstream framed_again;
  reloaded.save(framed_again);
  EXPECT_EQ(framed_again.str(), framed_first);
}

TEST(MpcbfIo, TamperedUsageWithIntactWordsRejected) {
  // v1_payload_with_stash() holds 2 words; the u16 usages follow them
  // and their own u64 count.
  constexpr std::size_t kUsageOffset = kV1WordCountOffset + 8 + 2 * 8 + 8;
  const std::string clean = v1_payload_with_stash();
  for (const std::size_t word : {0, 1}) {
    std::string data = clean;
    data[kUsageOffset + 2 * word] ^= 0x01;
    std::istringstream is(data);
    try {
      (void)Mpcbf<64>::load(is);
      ADD_FAILURE() << "tampered usage of word " << word << " loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "Mpcbf::load: corrupt filter state");
    }
  }
  std::istringstream is(clean);
  EXPECT_NO_THROW((void)Mpcbf<64>::load(is));
}

#ifdef MPCBF_TEST_DATA_DIR
// The golden blob was written by a pre-frame (v1) build: a bare
// "MPCBFv1\0" stream of 80 keys (24 of them stashed) at
// memory_bits=1024, k=3, g=1, n_max=4, seed=0xBEEF, kStash. Loading it
// proves on-disk compatibility across the v2 framing change.
TEST(MpcbfIo, LoadsV1GoldenBlob) {
  const std::string dir = MPCBF_TEST_DATA_DIR;
  std::ifstream blob(dir + "/mpcbf_v1_golden.bin", std::ios::binary);
  ASSERT_TRUE(blob) << "missing golden blob";
  Mpcbf<64> f = Mpcbf<64>::load(blob);
  EXPECT_EQ(f.size(), 80u);
  EXPECT_EQ(f.stash_size(), 24u);
  EXPECT_TRUE(f.validate());

  std::ifstream key_file(dir + "/mpcbf_v1_golden.keys");
  ASSERT_TRUE(key_file) << "missing golden key list";
  std::vector<std::string> keys;
  std::string line;
  while (std::getline(key_file, line)) {
    if (!line.empty()) keys.push_back(line);
  }
  ASSERT_EQ(keys.size(), 80u);
  for (const auto& k : keys) {
    EXPECT_TRUE(f.contains(k)) << k;
  }

  // Re-saving upgrades to v2 framing; the reloaded filter must be
  // byte-equivalent in state.
  std::stringstream ss;
  f.save(ss);
  const Mpcbf<64> upgraded = Mpcbf<64>::load(ss);
  EXPECT_EQ(upgraded.size(), f.size());
  EXPECT_EQ(upgraded.stash_size(), f.stash_size());
  for (std::size_t w = 0; w < f.num_words(); ++w) {
    ASSERT_EQ(upgraded.word(w), f.word(w)) << w;
  }
  for (const auto& k : keys) {
    EXPECT_TRUE(upgraded.contains(k)) << k;
  }
}

// Re-saving the bare v1 golden payload reproduces it byte for byte up to
// the stash: the words, and the per-word usages that are now derived on
// save. (The pre-frame build wrote its stash in hash-map order; saves now
// sort it, so only the order of the stash entries may differ.)
TEST(MpcbfIo, V1GoldenBlobResavesIdenticallyUpToTheStash) {
  const std::string dir = MPCBF_TEST_DATA_DIR;
  std::ifstream blob(dir + "/mpcbf_v1_golden.bin", std::ios::binary);
  ASSERT_TRUE(blob) << "missing golden blob";
  const std::string original{std::istreambuf_iterator<char>(blob), {}};
  std::istringstream is(original);
  const Mpcbf<64> f = Mpcbf<64>::load(is);
  std::ostringstream resaved;
  f.save_payload(resaved);
  const std::size_t stash_offset =
      kV1WordCountOffset + 8 + f.num_words() * 8 + 8 + f.num_words() * 2;
  ASSERT_EQ(resaved.str().size(), original.size());
  EXPECT_EQ(resaved.str().substr(0, stash_offset),
            original.substr(0, stash_offset));
  std::istringstream again(resaved.str());
  EXPECT_EQ(Mpcbf<64>::load(again).stash_size(), f.stash_size());
}
#endif  // MPCBF_TEST_DATA_DIR

}  // namespace
