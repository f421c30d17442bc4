// CRC32C (Castagnoli) and the framed container format every snapshot in
// this repository is wrapped in.
//
// The polynomial (0x1EDC6F41, reflected 0x82F63B78) is the one iSCSI,
// ext4 and LevelDB use — chosen over CRC32 (Ethernet) for its better
// Hamming distance at the block sizes filters serialize to. The kernel
// is chosen at run time: the SSE4.2 `crc32` instruction where the CPU has
// it (~8 bytes per 3 cycles), software slice-by-8 (eight table lookups
// per 8 input bytes, ~1 byte/cycle) everywhere else. Both compute the
// same function, so the same bytes verify on any host a snapshot is
// shipped to. Only the SSE4.2 kernel is compiled for SSE4.2; the library
// itself is not built with -msse4.2, so it runs on CPUs without it.
//
// Frame format v2 (docs/persistence.md has the byte-level spec):
//
//   offset  size  field
//   0       8     frame magic "MPCBFRM2"
//   8       4     format version (u32, currently 2)
//   12      8     payload length in bytes (u64)
//   20      4     CRC32C of the payload bytes (u32)
//   24      len   payload (starts with the wrapped type's own magic)
//
// Writers buffer the payload to compute its CRC before emitting the
// header; readers verify length and CRC before handing a single payload
// byte to a parser, so corrupt snapshots are rejected up front instead
// of half-deserialized. v1 streams (no frame, payload only) remain
// loadable: loaders dispatch on the leading 8-byte magic.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "io/binary.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
/// The SSE4.2 kernel exists (it runs only where the CPU has SSE4.2).
#define MPCBF_CRC32C_HAVE_SSE42 1
#else
#define MPCBF_CRC32C_HAVE_SSE42 0
#endif

namespace mpcbf::io {

namespace detail {

/// 8 slice tables, built once at first use (constexpr-buildable, but a
/// function-local static keeps header-only usage ODR-clean and lazy).
inline const std::array<std::array<std::uint32_t, 256>, 8>& crc32c_tables() {
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (std::size_t slice = 1; slice < 8; ++slice) {
        crc = t[0][crc & 0xFF] ^ (crc >> 8);
        t[slice][i] = crc;
      }
    }
    return t;
  }();
  return tables;
}

/// Slice-by-8 kernel: advances the raw (pre-inverted) CRC state `crc`
/// over `len` bytes. Runs on any CPU.
inline std::uint32_t crc32c_update_portable(std::uint32_t crc,
                                            const void* data,
                                            std::size_t len) noexcept {
  const auto& t = crc32c_tables();
  const auto* p = static_cast<const unsigned char*>(data);
  while (len >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    chunk ^= crc;
    crc = t[7][chunk & 0xFF] ^ t[6][(chunk >> 8) & 0xFF] ^
          t[5][(chunk >> 16) & 0xFF] ^ t[4][(chunk >> 24) & 0xFF] ^
          t[3][(chunk >> 32) & 0xFF] ^ t[2][(chunk >> 40) & 0xFF] ^
          t[1][(chunk >> 48) & 0xFF] ^ t[0][(chunk >> 56) & 0xFF];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if MPCBF_CRC32C_HAVE_SSE42
/// Whether this CPU can run crc32c_update_sse42; probed once.
[[nodiscard]] inline bool crc32c_sse42_available() noexcept {
  static const bool available = [] {
    __builtin_cpu_init();  // callers may run before static constructors
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return available;
}

/// SSE4.2 kernel, same contract and same values as
/// crc32c_update_portable. Compiled for SSE4.2 on its own, so call it
/// only where crc32c_sse42_available() says the CPU has it.
[[gnu::target("sse4.2")]] inline std::uint32_t crc32c_update_sse42(
    std::uint32_t crc, const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc64 = crc;
  while (len >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    crc64 = _mm_crc32_u64(crc64, chunk);
    p += 8;
    len -= 8;
  }
  crc = static_cast<std::uint32_t>(crc64);
  while (len-- > 0) crc = _mm_crc32_u8(crc, *p++);
  return crc;
}
#endif

}  // namespace detail

/// Incremental CRC32C accumulator.
class Crc32c {
 public:
  void update(const void* data, std::size_t len) noexcept {
#if MPCBF_CRC32C_HAVE_SSE42
    if (detail::crc32c_sse42_available()) {
      state_ = detail::crc32c_update_sse42(state_, data, len);
      return;
    }
#endif
    state_ = detail::crc32c_update_portable(state_, data, len);
  }

  void reset() noexcept { state_ = ~std::uint32_t{0}; }

  /// Finalized (inverted) CRC of everything updated so far; the
  /// accumulator stays usable for further updates.
  [[nodiscard]] std::uint32_t value() const noexcept { return ~state_; }

 private:
  std::uint32_t state_ = ~std::uint32_t{0};
};

/// One-shot CRC32C of a buffer.
[[nodiscard]] inline std::uint32_t crc32c(const void* data, std::size_t len) {
  Crc32c c;
  c.update(data, len);
  return c.value();
}

[[nodiscard]] inline std::uint32_t crc32c(std::string_view s) {
  return crc32c(s.data(), s.size());
}

/// Ostream adapter that forwards writes while accumulating their CRC32C
/// — lets record writers emit payload bytes once and append the checksum
/// without buffering.
class ChecksumWriter {
 public:
  explicit ChecksumWriter(std::ostream& os) : os_(os) {}

  void write(const void* data, std::size_t len) {
    os_.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(len));
    crc_.update(data, len);
    bytes_ += len;
  }

  template <typename T>
  void write_pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(&value, sizeof value);
  }

  [[nodiscard]] std::uint32_t crc() const noexcept { return crc_.value(); }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_;
  }

 private:
  std::ostream& os_;
  Crc32c crc_;
  std::uint64_t bytes_ = 0;
};

/// Istream adapter that accumulates the CRC32C of everything read, so a
/// parser can consume a record and then compare against a stored
/// checksum. Throws on truncation like read_pod.
class ChecksumReader {
 public:
  explicit ChecksumReader(std::istream& is) : is_(is) {}

  void read(void* data, std::size_t len) {
    is_.read(static_cast<char*>(data), static_cast<std::streamsize>(len));
    if (!is_) {
      throw std::runtime_error("checksum read: truncated stream");
    }
    crc_.update(data, len);
    bytes_ += len;
  }

  template <typename T>
  [[nodiscard]] T read_pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    read(&value, sizeof value);
    return value;
  }

  [[nodiscard]] std::uint32_t crc() const noexcept { return crc_.value(); }
  [[nodiscard]] std::uint64_t bytes_read() const noexcept { return bytes_; }

 private:
  std::istream& is_;
  Crc32c crc_;
  std::uint64_t bytes_ = 0;
};

// --- framed container (snapshot format v2) --------------------------------

inline constexpr char kFrameMagic[9] = "MPCBFRM2";
inline constexpr std::uint32_t kFrameVersion = 2;
/// Upper bound on a frame payload; anything larger is rejected before
/// allocation (hostile length fields must not become allocation bombs).
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 31;

/// Wraps `payload` in a v2 frame: magic, version, length, CRC32C,
/// payload bytes.
inline void write_frame(std::ostream& os, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw std::runtime_error("write_frame: payload too large");
  }
  write_magic(os, kFrameMagic);
  write_pod<std::uint32_t>(os, kFrameVersion);
  write_pod<std::uint64_t>(os, payload.size());
  write_pod<std::uint32_t>(os, crc32c(payload));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

/// Reads the remainder of a v2 frame after its 8-byte magic has been
/// consumed, verifies version, length and CRC, and returns the payload.
/// Throws std::runtime_error on any mismatch — no payload byte reaches a
/// parser unless the whole frame checks out.
inline std::string read_frame_payload_after_magic(std::istream& is) {
  const auto version = read_pod<std::uint32_t>(is);
  if (version != kFrameVersion) {
    throw std::runtime_error("frame read: unsupported format version " +
                             std::to_string(version));
  }
  const auto len = read_pod<std::uint64_t>(is);
  if (len > kMaxFramePayload) {
    throw std::runtime_error("frame read: payload length out of range");
  }
  const auto stored_crc = read_pod<std::uint32_t>(is);
  std::string payload(len, '\0');
  is.read(payload.data(), static_cast<std::streamsize>(len));
  if (!is) {
    throw std::runtime_error("frame read: truncated payload");
  }
  if (crc32c(payload) != stored_crc) {
    throw std::runtime_error("frame read: payload CRC mismatch");
  }
  return payload;
}

/// Reads a whole frame (magic included) and returns the verified payload.
inline std::string read_frame(std::istream& is) {
  expect_magic(is, kFrameMagic);
  return read_frame_payload_after_magic(is);
}

/// Reads an 8-byte magic tag without interpreting it — loaders use this
/// to dispatch between the v2 frame and legacy v1 payloads.
inline std::array<char, 8> read_raw_magic(std::istream& is) {
  std::array<char, 8> m{};
  is.read(m.data(), 8);
  if (!is) {
    throw std::runtime_error("binary read: truncated magic");
  }
  return m;
}

[[nodiscard]] inline bool magic_equals(const std::array<char, 8>& m,
                                       const char (&tag)[9]) noexcept {
  return std::memcmp(m.data(), tag, 8) == 0;
}

}  // namespace mpcbf::io
