#include "hash/murmur3.hpp"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
/// The AVX-512 kernel exists (it runs only where the CPU has AVX-512).
#define MPCBF_MURMUR3_HAVE_X8 1
#else
#define MPCBF_MURMUR3_HAVE_X8 0
#endif

namespace mpcbf::hash {
namespace {

inline std::uint64_t rotl64(std::uint64_t x, int r) noexcept {
  return (x << r) | (x >> (64 - r));
}

inline std::uint32_t rotl32(std::uint32_t x, int r) noexcept {
  return (x << r) | (x >> (32 - r));
}

inline std::uint64_t fmix64(std::uint64_t k) noexcept {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

inline std::uint32_t fmix32(std::uint32_t h) noexcept {
  h ^= h >> 16;
  h *= 0x85ebca6bU;
  h ^= h >> 13;
  h *= 0xc2b2ae35U;
  h ^= h >> 16;
  return h;
}

inline std::uint64_t load64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline std::uint32_t load32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

constexpr std::uint64_t kC1 = 0x87c37b91114253d5ULL;
constexpr std::uint64_t kC2 = 0x4cf5ad432745937fULL;

}  // namespace

Hash128 murmur3_128(const void* data, std::size_t len,
                    std::uint64_t seed) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  const std::size_t nblocks = len / 16;

  std::uint64_t h1 = seed;
  std::uint64_t h2 = seed;

  constexpr std::uint64_t c1 = kC1;
  constexpr std::uint64_t c2 = kC2;

  for (std::size_t i = 0; i < nblocks; ++i) {
    std::uint64_t k1 = load64(bytes + i * 16);
    std::uint64_t k2 = load64(bytes + i * 16 + 8);

    k1 *= c1;
    k1 = rotl64(k1, 31);
    k1 *= c2;
    h1 ^= k1;
    h1 = rotl64(h1, 27);
    h1 += h2;
    h1 = h1 * 5 + 0x52dce729;

    k2 *= c2;
    k2 = rotl64(k2, 33);
    k2 *= c1;
    h2 ^= k2;
    h2 = rotl64(h2, 31);
    h2 += h1;
    h2 = h2 * 5 + 0x38495ab5;
  }

  const std::uint8_t* tail = bytes + nblocks * 16;
  std::uint64_t k1 = 0;
  std::uint64_t k2 = 0;

  switch (len & 15) {
    case 15: k2 ^= static_cast<std::uint64_t>(tail[14]) << 48; [[fallthrough]];
    case 14: k2 ^= static_cast<std::uint64_t>(tail[13]) << 40; [[fallthrough]];
    case 13: k2 ^= static_cast<std::uint64_t>(tail[12]) << 32; [[fallthrough]];
    case 12: k2 ^= static_cast<std::uint64_t>(tail[11]) << 24; [[fallthrough]];
    case 11: k2 ^= static_cast<std::uint64_t>(tail[10]) << 16; [[fallthrough]];
    case 10: k2 ^= static_cast<std::uint64_t>(tail[9]) << 8; [[fallthrough]];
    case 9:
      k2 ^= static_cast<std::uint64_t>(tail[8]);
      k2 *= c2;
      k2 = rotl64(k2, 33);
      k2 *= c1;
      h2 ^= k2;
      [[fallthrough]];
    case 8: k1 ^= static_cast<std::uint64_t>(tail[7]) << 56; [[fallthrough]];
    case 7: k1 ^= static_cast<std::uint64_t>(tail[6]) << 48; [[fallthrough]];
    case 6: k1 ^= static_cast<std::uint64_t>(tail[5]) << 40; [[fallthrough]];
    case 5: k1 ^= static_cast<std::uint64_t>(tail[4]) << 32; [[fallthrough]];
    case 4: k1 ^= static_cast<std::uint64_t>(tail[3]) << 24; [[fallthrough]];
    case 3: k1 ^= static_cast<std::uint64_t>(tail[2]) << 16; [[fallthrough]];
    case 2: k1 ^= static_cast<std::uint64_t>(tail[1]) << 8; [[fallthrough]];
    case 1:
      k1 ^= static_cast<std::uint64_t>(tail[0]);
      k1 *= c1;
      k1 = rotl64(k1, 31);
      k1 *= c2;
      h1 ^= k1;
      break;
    case 0:
      break;
  }

  h1 ^= static_cast<std::uint64_t>(len);
  h2 ^= static_cast<std::uint64_t>(len);
  h1 += h2;
  h2 += h1;
  h1 = fmix64(h1);
  h2 = fmix64(h2);
  h1 += h2;
  h2 += h1;

  return Hash128{h1, h2};
}

#if MPCBF_MURMUR3_HAVE_X8

bool murmur3_128_x8_available() noexcept {
  static const bool available = [] {
    __builtin_cpu_init();  // callers may run before static constructors
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vl");
  }();
  return available;
}

namespace {

// Every helper of the kernel carries the kernel's target, so it inlines
// into it; the rest of the library is not compiled for AVX-512.
#define MPCBF_X8_TARGET \
  __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl"), always_inline))

// Shifts and rotates go through their zero-masking forms under an
// all-lanes mask: the same instruction, and GCC 12's unmasked forms
// start from an `_mm512_undefined_epi32()` that -Wmaybe-uninitialized
// reports inside a target-attributed function.
constexpr __mmask8 kAll = 0xFF;

MPCBF_X8_TARGET inline __m512i mix_k1(__m512i k1) {
  k1 = _mm512_mullo_epi64(k1, _mm512_set1_epi64(static_cast<long long>(kC1)));
  k1 = _mm512_maskz_rol_epi64(kAll, k1, 31);
  return _mm512_mullo_epi64(k1,
                            _mm512_set1_epi64(static_cast<long long>(kC2)));
}

MPCBF_X8_TARGET inline __m512i mix_k2(__m512i k2) {
  k2 = _mm512_mullo_epi64(k2, _mm512_set1_epi64(static_cast<long long>(kC2)));
  k2 = _mm512_maskz_rol_epi64(kAll, k2, 33);
  return _mm512_mullo_epi64(k2,
                            _mm512_set1_epi64(static_cast<long long>(kC1)));
}

MPCBF_X8_TARGET inline __m512i fmix64_x8(__m512i k) {
  k = _mm512_xor_si512(k, _mm512_maskz_srli_epi64(kAll, k, 33));
  k = _mm512_mullo_epi64(
      k, _mm512_set1_epi64(static_cast<long long>(0xff51afd7ed558ccdULL)));
  k = _mm512_xor_si512(k, _mm512_maskz_srli_epi64(kAll, k, 33));
  k = _mm512_mullo_epi64(
      k, _mm512_set1_epi64(static_cast<long long>(0xc4ceb9fe1a85ec53ULL)));
  return _mm512_xor_si512(k, _mm512_maskz_srli_epi64(kAll, k, 33));
}

/// h * 5 + c, as the scalar block step computes it.
MPCBF_X8_TARGET inline __m512i times5_plus(__m512i h, std::uint64_t c) {
  return _mm512_add_epi64(_mm512_add_epi64(_mm512_maskz_slli_epi64(kAll, h, 2), h),
                          _mm512_set1_epi64(static_cast<long long>(c)));
}

/// Turns eight 16-byte blocks, one per key, into the block's two 64-bit
/// halves across the keys: k1[i] = bytes 0..7 of key i, k2[i] = 8..15.
MPCBF_X8_TARGET inline void transpose(const __m128i (&b)[8], __m512i& k1,
                                      __m512i& k2) {
  __m512i a = _mm512_castsi128_si512(b[0]);
  a = _mm512_inserti64x2(a, b[1], 1);
  a = _mm512_inserti64x2(a, b[2], 2);
  a = _mm512_inserti64x2(a, b[3], 3);
  __m512i c = _mm512_castsi128_si512(b[4]);
  c = _mm512_inserti64x2(c, b[5], 1);
  c = _mm512_inserti64x2(c, b[6], 2);
  c = _mm512_inserti64x2(c, b[7], 3);
  k1 = _mm512_permutex2var_epi64(a, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14), c);
  k2 = _mm512_permutex2var_epi64(a, _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15), c);
}

}  // namespace

__attribute__((target("avx512f,avx512dq,avx512bw,avx512vl"))) void
murmur3_128_x8(const char* const* keys, std::size_t len, std::uint64_t seed,
               Hash128x8& out) noexcept {
  __m512i h1 = _mm512_set1_epi64(static_cast<long long>(seed));
  __m512i h2 = h1;
  __m128i block[8];
  __m512i k1;
  __m512i k2;
  const std::size_t nblocks = len / 16;
  for (std::size_t b = 0; b < nblocks; ++b) {
    for (int i = 0; i < 8; ++i) {
      block[i] = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(keys[i] + b * 16));
    }
    transpose(block, k1, k2);
    h1 = _mm512_xor_si512(h1, mix_k1(k1));
    h1 = _mm512_add_epi64(_mm512_maskz_rol_epi64(kAll, h1, 27), h2);
    h1 = times5_plus(h1, 0x52dce729);
    h2 = _mm512_xor_si512(h2, mix_k2(k2));
    h2 = _mm512_add_epi64(_mm512_maskz_rol_epi64(kAll, h2, 31), h1);
    h2 = times5_plus(h2, 0x38495ab5);
  }
  if (const std::size_t tail = len & 15; tail != 0) {
    // Masked-off bytes read as zero and are never touched, so a key that
    // ends at a page boundary cannot fault.
    const auto mask = static_cast<__mmask16>((1u << tail) - 1);
    for (int i = 0; i < 8; ++i) {
      block[i] = _mm_maskz_loadu_epi8(mask, keys[i] + nblocks * 16);
    }
    transpose(block, k1, k2);
    // A zero half mixes to zero: tails of at most 8 bytes leave h2 as is.
    h2 = _mm512_xor_si512(h2, mix_k2(k2));
    h1 = _mm512_xor_si512(h1, mix_k1(k1));
  }
  const __m512i n = _mm512_set1_epi64(static_cast<long long>(len));
  h1 = _mm512_xor_si512(h1, n);
  h2 = _mm512_xor_si512(h2, n);
  h1 = _mm512_add_epi64(h1, h2);
  h2 = _mm512_add_epi64(h2, h1);
  h1 = fmix64_x8(h1);
  h2 = fmix64_x8(h2);
  h1 = _mm512_add_epi64(h1, h2);
  h2 = _mm512_add_epi64(h2, h1);
  _mm512_storeu_si512(out.lo.data(), h1);
  _mm512_storeu_si512(out.hi.data(), h2);
}

#undef MPCBF_X8_TARGET

#else

bool murmur3_128_x8_available() noexcept { return false; }

void murmur3_128_x8(const char* const* keys, std::size_t len,
                    std::uint64_t seed, Hash128x8& out) noexcept {
  for (int i = 0; i < 8; ++i) {
    const Hash128 h = murmur3_128(keys[i], len, seed);
    out.lo[i] = h.lo;
    out.hi[i] = h.hi;
  }
}

#endif

std::uint32_t murmur3_32(const void* data, std::size_t len,
                         std::uint32_t seed) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  const std::size_t nblocks = len / 4;

  std::uint32_t h1 = seed;
  constexpr std::uint32_t c1 = 0xcc9e2d51U;
  constexpr std::uint32_t c2 = 0x1b873593U;

  for (std::size_t i = 0; i < nblocks; ++i) {
    std::uint32_t k1 = load32(bytes + i * 4);
    k1 *= c1;
    k1 = rotl32(k1, 15);
    k1 *= c2;
    h1 ^= k1;
    h1 = rotl32(h1, 13);
    h1 = h1 * 5 + 0xe6546b64U;
  }

  const std::uint8_t* tail = bytes + nblocks * 4;
  std::uint32_t k1 = 0;
  switch (len & 3) {
    case 3: k1 ^= static_cast<std::uint32_t>(tail[2]) << 16; [[fallthrough]];
    case 2: k1 ^= static_cast<std::uint32_t>(tail[1]) << 8; [[fallthrough]];
    case 1:
      k1 ^= static_cast<std::uint32_t>(tail[0]);
      k1 *= c1;
      k1 = rotl32(k1, 15);
      k1 *= c2;
      h1 ^= k1;
      break;
    case 0:
      break;
  }

  h1 ^= static_cast<std::uint32_t>(len);
  return fmix32(h1);
}

}  // namespace mpcbf::hash
