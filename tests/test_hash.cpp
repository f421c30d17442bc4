// Hash substrate: external verification vectors where published ones
// exist (murmur3_32, xxhash64 empty-input), regression pins for the rest,
// avalanche/distribution checks, and the HashBitStream contracts every
// filter depends on.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hash/fnv.hpp"
#include "hash/hash_stream.hpp"
#include "hash/murmur3.hpp"
#include "hash/tabulation.hpp"
#include "hash/xxhash64.hpp"

namespace {

using namespace mpcbf::hash;

// --- murmur3_32: published SMHasher verification vectors ------------------

TEST(Murmur3_32, PublishedVectors) {
  EXPECT_EQ(murmur3_32("", 0u), 0u);
  EXPECT_EQ(murmur3_32("", 1u), 0x514E28B7u);
  EXPECT_EQ(murmur3_32("", 0xFFFFFFFFu), 0x81F16F39u);
  EXPECT_EQ(murmur3_32("\xFF\xFF\xFF\xFF", 0u), 0x76293B50u);
  EXPECT_EQ(murmur3_32("!Ce\x87", 0u), 0xF55B516Bu);  // bytes 21 43 65 87
}

TEST(Murmur3_32, TailHandling) {
  // 1-, 2-, 3-byte tails exercise every switch arm.
  EXPECT_NE(murmur3_32("a", 0u), murmur3_32("b", 0u));
  EXPECT_NE(murmur3_32("ab", 0u), murmur3_32("ba", 0u));
  EXPECT_NE(murmur3_32("abc", 0u), murmur3_32("acb", 0u));
}

// --- murmur3_128 -----------------------------------------------------------

TEST(Murmur3_128, EmptyInputSeedZero) {
  const Hash128 h = murmur3_128("", 0);
  EXPECT_EQ(h.lo, 0u);
  EXPECT_EQ(h.hi, 0u);
}

TEST(Murmur3_128, DeterministicAndSeedSensitive) {
  const Hash128 a = murmur3_128("hello world", 1);
  const Hash128 b = murmur3_128("hello world", 1);
  const Hash128 c = murmur3_128("hello world", 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Murmur3_128, AllInputLengthsDiffer) {
  // Lengths 0..40 cover the 16-byte block loop plus every tail arm.
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  std::string s;
  for (int len = 0; len <= 40; ++len) {
    const Hash128 h = murmur3_128(s, 7);
    EXPECT_TRUE(seen.insert({h.lo, h.hi}).second) << "len=" << len;
    s.push_back(static_cast<char>('a' + (len % 26)));
  }
}

TEST(Murmur3_128, Avalanche) {
  const Hash128 a = murmur3_128("abcdefgh", 0);
  const Hash128 b = murmur3_128("abcdefgi", 0);
  const int flipped = __builtin_popcountll(a.lo ^ b.lo) +
                      __builtin_popcountll(a.hi ^ b.hi);
  EXPECT_GT(flipped, 40);
  EXPECT_LT(flipped, 88);
}

// --- murmur3_128_x8 ----------------------------------------------------------

// The eight-lane kernel against the scalar hash: every length 0..64 (no
// block, one to four full blocks, every tail arm), random bytes and
// seeds. Each key sits at the end of its own buffer, so a load past the
// key's last byte would read another key's bytes or fault.
TEST(Murmur3_128x8, MatchesScalarOnEveryLengthAndSeed) {
  if (!murmur3_128_x8_available()) {
    GTEST_SKIP() << "CPU lacks AVX-512 F/DQ/BW/VL; derivation runs scalar";
  }
  mpcbf::util::SplitMix64 rng(0x8E1);
  for (std::size_t len = 0; len <= 64; ++len) {
    for (int round = 0; round < 4; ++round) {
      const std::uint64_t seed = rng.next();
      std::array<std::vector<char>, 8> buf;
      std::array<const char*, 8> keys;
      for (std::size_t i = 0; i < 8; ++i) {
        buf[i].resize(len + 1);
        for (auto& c : buf[i]) c = static_cast<char>(rng.next());
        keys[i] = buf[i].data() + 1;
      }
      Hash128x8 out;
      murmur3_128_x8(keys.data(), len, seed, out);
      for (std::size_t i = 0; i < 8; ++i) {
        const Hash128 want = murmur3_128(keys[i], len, seed);
        ASSERT_EQ(out.lo[i], want.lo) << "len=" << len << " lane=" << i;
        ASSERT_EQ(out.hi[i], want.hi) << "len=" << len << " lane=" << i;
      }
    }
  }
}

// --- xxhash64 --------------------------------------------------------------

TEST(XxHash64, PublishedEmptyVector) {
  EXPECT_EQ(xxhash64("", 0), 0xEF46DB3751D8E999ULL);
}

TEST(XxHash64, CoversAllLengthPaths) {
  // < 4, < 8, < 32, >= 32 bytes take different code paths.
  std::set<std::uint64_t> seen;
  std::string s;
  for (int len = 0; len <= 70; ++len) {
    EXPECT_TRUE(seen.insert(xxhash64(s, 0)).second) << "len=" << len;
    s.push_back(static_cast<char>('0' + (len % 10)));
  }
}

TEST(XxHash64, SeedChangesResult) {
  EXPECT_NE(xxhash64("payload", 0), xxhash64("payload", 1));
}

// --- FNV-1a ---------------------------------------------------------------

TEST(Fnv1a, PublishedVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, IsConstexpr) {
  static_assert(fnv1a64("compile-time") != 0);
  SUCCEED();
}

// --- tabulation hashing -----------------------------------------------------

TEST(Tabulation, DeterministicPerSeed) {
  TabulationHash h1(5);
  TabulationHash h2(5);
  TabulationHash h3(6);
  EXPECT_EQ(h1("abc"), h2("abc"));
  EXPECT_NE(h1("abc"), h3("abc"));
}

TEST(Tabulation, LengthSensitive) {
  TabulationHash h(9);
  EXPECT_NE(h("ab"), h(std::string("ab\0", 3)));
  EXPECT_NE(h("12345678"), h("123456789"));
}

TEST(Tabulation, U64Uniformity) {
  TabulationHash h(1);
  int buckets[16] = {};
  for (std::uint64_t i = 0; i < 16000; ++i) {
    ++buckets[h.hash_u64(i) & 15];
  }
  for (const int b : buckets) {
    EXPECT_NEAR(b, 1000, 150);
  }
}

// --- HashBitStream -----------------------------------------------------------

TEST(HashBitStream, CeilLog2) {
  EXPECT_EQ(ceil_log2(0), 0u);
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1ULL << 32), 32u);
  EXPECT_EQ(ceil_log2((1ULL << 32) + 1), 33u);
}

TEST(HashBitStream, DeterministicPrefix) {
  HashBitStream a("key", 1);
  HashBitStream b("key", 1);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(a.next_index(1000), b.next_index(1000));
  }
}

TEST(HashBitStream, IndicesInBounds) {
  for (std::size_t bound : {1ul, 2ul, 7ul, 52ul, 64ul, 1000ul, 1ul << 20}) {
    HashBitStream s("bounds", bound);
    for (int i = 0; i < 500; ++i) {
      ASSERT_LT(s.next_index(bound), bound);
    }
  }
}

TEST(HashBitStream, AccountedBitsMatchPaperMetric) {
  HashBitStream s("k", 0);
  (void)s.next_index(1024);  // 10 bits
  EXPECT_EQ(s.accounted_bits(), 10u);
  (void)s.next_index(1000);  // non-power-of-two: still ceil(log2(1000)) = 10
  EXPECT_EQ(s.accounted_bits(), 20u);
  (void)s.next_bits(7);
  EXPECT_EQ(s.accounted_bits(), 27u);
}

TEST(HashBitStream, UnboundedSupply) {
  // Far more bits than two murmur blocks provide; stream must refill.
  HashBitStream s("supply", 3);
  std::uint64_t acc = 0;
  for (int i = 0; i < 10000; ++i) {
    acc ^= s.next_bits(64);
  }
  EXPECT_NE(acc, 0u);  // astronomically unlikely to be zero if refill works
}

TEST(HashBitStream, StreamsDifferAcrossKeysAndSeeds) {
  HashBitStream a("k1", 0);
  HashBitStream b("k2", 0);
  HashBitStream c("k1", 1);
  bool diff_key = false;
  bool diff_seed = false;
  HashBitStream a2("k1", 0);
  for (int i = 0; i < 32; ++i) {
    const auto va = a.next_bits(32);
    if (va != b.next_bits(32)) diff_key = true;
    if (a2.next_bits(32) != c.next_bits(32)) diff_seed = true;
  }
  EXPECT_TRUE(diff_key);
  EXPECT_TRUE(diff_seed);
}

TEST(HashBitStream, IndexDistributionRoughlyUniform) {
  constexpr std::size_t kBound = 10;
  int hist[kBound] = {};
  for (int key = 0; key < 20000; ++key) {
    const std::string s = std::to_string(key);
    HashBitStream stream(s, 0);
    ++hist[stream.next_index(kBound)];
  }
  for (const int h : hist) {
    EXPECT_NEAR(h, 2000, 220);
  }
}

// --- DoubleHasher ------------------------------------------------------------

TEST(DoubleHasher, PositionsInRangeAndDistinctish) {
  DoubleHasher dh("element", 3, 1000);
  std::set<std::size_t> positions;
  for (std::size_t i = 0; i < 10; ++i) {
    const std::size_t p = dh.position(i);
    ASSERT_LT(p, 1000u);
    positions.insert(p);
  }
  // h2 != 0 guarantees a full-period progression for prime-free m too;
  // with m=1000 and 10 probes collisions are possible but not total.
  EXPECT_GT(positions.size(), 5u);
}

TEST(DoubleHasher, AccountedBandwidthIsTwoHashes) {
  DoubleHasher dh("x", 0, 1 << 20);
  EXPECT_EQ(dh.accounted_bits(), 40u);  // 2 * log2(2^20)
}

TEST(DoubleHasher, Deterministic) {
  DoubleHasher a("k", 9, 512);
  DoubleHasher b("k", 9, 512);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a.position(i), b.position(i));
  }
}

}  // namespace
