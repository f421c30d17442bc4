// CRC32C correctness (published vectors), agreement of the SSE4.2 and
// slice-by-8 kernels at every length and alignment, incremental/adapter
// equivalence, and the v2 frame container's accept/reject behaviour.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "io/crc32c.hpp"

namespace {

using mpcbf::io::ChecksumReader;
using mpcbf::io::ChecksumWriter;
using mpcbf::io::Crc32c;
using mpcbf::io::crc32c;

TEST(Crc32c, PublishedVectors) {
  // RFC 3720 (iSCSI) appendix vectors.
  EXPECT_EQ(crc32c(""), 0x00000000u);
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  const std::string ones(32, '\xff');
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  std::mt19937_64 rng(42);
  std::string data(1013, '\0');  // odd size exercises the byte tail
  for (auto& c : data) c = static_cast<char>(rng());
  const std::uint32_t whole = crc32c(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Crc32c acc;
    acc.update(data.data(), split);
    acc.update(data.data() + split, data.size() - split);
    EXPECT_EQ(acc.value(), whole) << "split " << split;
  }
}

// --- the two kernels --------------------------------------------------------
//
// Crc32c::update picks one kernel at run time; both are tested directly
// so every host checks the slice-by-8 fallback, and every SSE4.2 host
// checks that the hardware kernel computes the same function.

using Kernel = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

std::uint32_t finished(Kernel kernel, std::string_view bytes) {
  return ~kernel(~std::uint32_t{0}, bytes.data(), bytes.size());
}

void expect_published_vectors(Kernel kernel) {
  EXPECT_EQ(finished(kernel, ""), 0x00000000u);
  EXPECT_EQ(finished(kernel, "123456789"), 0xE3069283u);
  EXPECT_EQ(finished(kernel, std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(finished(kernel, std::string(32, '\xff')), 0x62A8AB43u);
}

/// The SSE4.2 kernel, or a skip reason when this host cannot run it.
Kernel sse42_kernel(std::string& skip_reason) {
#if MPCBF_CRC32C_HAVE_SSE42
  if (mpcbf::io::detail::crc32c_sse42_available()) {
    return &mpcbf::io::detail::crc32c_update_sse42;
  }
  skip_reason = "this CPU lacks SSE4.2";
#else
  skip_reason = "no SSE4.2 kernel on this architecture";
#endif
  return nullptr;
}

TEST(Crc32cKernels, PortablePublishedVectors) {
  expect_published_vectors(&mpcbf::io::detail::crc32c_update_portable);
}

TEST(Crc32cKernels, Sse42PublishedVectors) {
  std::string skip;
  const Kernel sse42 = sse42_kernel(skip);
  if (sse42 == nullptr) GTEST_SKIP() << skip;
  expect_published_vectors(sse42);
}

TEST(Crc32cKernels, Sse42AgreesWithPortableAtEveryLengthAndAlignment) {
  std::string skip;
  const Kernel sse42 = sse42_kernel(skip);
  if (sse42 == nullptr) GTEST_SKIP() << skip;
  const Kernel portable = &mpcbf::io::detail::crc32c_update_portable;
  std::mt19937_64 rng(0x5EED);
  std::vector<unsigned char> buf((64 << 10) + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());

  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 300; ++len) lengths.push_back(len);
  for (int i = 0; i < 64; ++i) lengths.push_back(rng() % ((64 << 10) + 1));
  for (const std::size_t len : lengths) {
    for (std::size_t align = 0; align < 8; ++align) {
      const unsigned char* p = buf.data() + align;
      // A nonzero starting state too: incremental updates continue from
      // an arbitrary raw state, not only from the initial ~0.
      for (const std::uint32_t seed : {~std::uint32_t{0}, 0x12345678u}) {
        ASSERT_EQ(sse42(seed, p, len), portable(seed, p, len))
            << "len " << len << " align " << align << " seed " << seed;
      }
    }
  }
}

TEST(Crc32cKernels, BothKernelsChainAtEveryOffset) {
  std::vector<Kernel> kernels = {&mpcbf::io::detail::crc32c_update_portable};
  std::string skip;
  if (const Kernel sse42 = sse42_kernel(skip)) kernels.push_back(sse42);
  std::mt19937_64 rng(11);
  std::string data(100, '\0');
  for (auto& c : data) c = static_cast<char>(rng());
  const std::uint32_t whole = crc32c(data);
  for (const Kernel kernel : kernels) {
    for (std::size_t split = 0; split <= data.size(); ++split) {
      const std::uint32_t head = kernel(~std::uint32_t{0}, data.data(), split);
      const std::uint32_t both =
          kernel(head, data.data() + split, data.size() - split);
      EXPECT_EQ(~both, whole) << "split " << split;
    }
  }
}

TEST(Crc32c, AdaptersAgreeWithDirectComputation) {
  std::ostringstream os;
  ChecksumWriter writer(os);
  writer.write_pod<std::uint64_t>(0xDEADBEEFULL);
  writer.write("hello", 5);
  const std::string bytes = os.str();
  EXPECT_EQ(writer.bytes_written(), bytes.size());
  EXPECT_EQ(writer.crc(), crc32c(bytes));

  std::istringstream is(bytes);
  ChecksumReader reader(is);
  EXPECT_EQ(reader.read_pod<std::uint64_t>(), 0xDEADBEEFULL);
  char buf[5];
  reader.read(buf, 5);
  EXPECT_EQ(reader.crc(), writer.crc());
  EXPECT_EQ(reader.bytes_read(), bytes.size());
}

TEST(Crc32c, ReaderThrowsOnTruncation) {
  std::istringstream is("ab");
  ChecksumReader reader(is);
  EXPECT_THROW((void)reader.read_pod<std::uint64_t>(), std::runtime_error);
}

TEST(Frame, RoundTrip) {
  std::stringstream ss;
  const std::string payload = "MPCBXYZ1some payload bytes";
  mpcbf::io::write_frame(ss, payload);
  EXPECT_EQ(mpcbf::io::read_frame(ss), payload);
}

TEST(Frame, EveryByteFlipRejected) {
  std::stringstream ss;
  mpcbf::io::write_frame(ss, "payload under test, long enough to matter");
  const std::string framed = ss.str();
  for (std::size_t i = 0; i < framed.size(); ++i) {
    std::string mutated = framed;
    mutated[i] ^= 0x40;
    std::istringstream is(mutated);
    EXPECT_THROW((void)mpcbf::io::read_frame(is), std::runtime_error)
        << "flip at offset " << i;
  }
}

TEST(Frame, EveryTruncationRejected) {
  std::stringstream ss;
  mpcbf::io::write_frame(ss, "payload under test");
  const std::string framed = ss.str();
  for (std::size_t keep = 0; keep < framed.size(); ++keep) {
    std::istringstream is(framed.substr(0, keep));
    EXPECT_THROW((void)mpcbf::io::read_frame(is), std::runtime_error)
        << "kept " << keep;
  }
}

TEST(Frame, HostileLengthIsNotAnAllocationBomb) {
  // Hand-craft a frame header claiming a huge payload; read_frame must
  // reject the length before allocating.
  std::stringstream ss;
  mpcbf::io::write_magic(ss, mpcbf::io::kFrameMagic);
  mpcbf::io::write_pod<std::uint32_t>(ss, mpcbf::io::kFrameVersion);
  mpcbf::io::write_pod<std::uint64_t>(ss, ~std::uint64_t{0});
  mpcbf::io::write_pod<std::uint32_t>(ss, 0);
  EXPECT_THROW((void)mpcbf::io::read_frame(ss), std::runtime_error);
}

}  // namespace
