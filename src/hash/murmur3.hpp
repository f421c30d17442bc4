// MurmurHash3 (Austin Appleby, public domain), x64 128-bit and x86 32-bit
// variants. The 128-bit variant is the primary key hash for every filter in
// this repository: its two 64-bit halves seed the HashBitStream that doles
// out word-selector and in-word position bits.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mpcbf::hash {

struct Hash128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const Hash128&, const Hash128&) = default;
};

/// MurmurHash3_x64_128 over an arbitrary byte range.
[[nodiscard]] Hash128 murmur3_128(const void* data, std::size_t len,
                                  std::uint64_t seed) noexcept;

[[nodiscard]] inline Hash128 murmur3_128(std::string_view key,
                                         std::uint64_t seed) noexcept {
  return murmur3_128(key.data(), key.size(), seed);
}

/// Eight MurmurHash3_x64_128 results side by side: key i's hash is
/// {lo[i], hi[i]}.
struct Hash128x8 {
  std::array<std::uint64_t, 8> lo;
  std::array<std::uint64_t, 8> hi;
};

/// Whether this CPU runs murmur3_128_x8 (AVX-512 F, DQ, BW and VL);
/// probed once. Always false off x86-64.
[[nodiscard]] bool murmur3_128_x8_available() noexcept;

/// murmur3_128 of eight keys of one length: `len` bytes at each of
/// keys[0..7], so out.{lo,hi}[i] == murmur3_128(keys[i], len, seed). The
/// x86-64 kernel runs the eight in the lanes of AVX-512 registers: full
/// 16-byte blocks are plain loads, the tail a masked load whose zero
/// padding leaves the absent tail half a no-op in the mixing. It is
/// compiled for AVX-512 on its own, so call it only where
/// murmur3_128_x8_available() says the CPU has it.
void murmur3_128_x8(const char* const* keys, std::size_t len,
                    std::uint64_t seed, Hash128x8& out) noexcept;

/// MurmurHash3_x86_32 — used by tests as an independent reference and by
/// the d-left CBF for its cheap per-subtable fingerprints.
[[nodiscard]] std::uint32_t murmur3_32(const void* data, std::size_t len,
                                       std::uint32_t seed) noexcept;

[[nodiscard]] inline std::uint32_t murmur3_32(std::string_view key,
                                              std::uint32_t seed) noexcept {
  return murmur3_32(key.data(), key.size(), seed);
}

}  // namespace mpcbf::hash
