// Microbenchmarks (google-benchmark): per-operation latency of every
// filter in the lineup — insert, positive query, negative query, delete —
// plus the HCBF word primitives the core is built from. Complements the
// figure benches: Fig. 8 measures a realistic mixed stream; these isolate
// single-operation cost. Also times the CRC32C kernels every frame and
// snapshot goes through.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/hcbf.hpp"
#include "core/mpcbf.hpp"
#include "filters/blocked_bloom.hpp"
#include "filters/bloom.hpp"
#include "filters/counting_bloom.hpp"
#include "filters/dlcbf.hpp"
#include "filters/pcbf.hpp"
#include "filters/vicbf.hpp"
#include "io/crc32c.hpp"
#include "workload/string_sets.hpp"

namespace {

using namespace mpcbf;

constexpr std::size_t kMemory = 1u << 22;  // 4 Mb
constexpr std::size_t kN = 50000;

const std::vector<std::string>& members() {
  static const auto v = workload::generate_unique_strings(kN, 5, 12345);
  return v;
}

const std::vector<std::string>& probes() {
  static const auto v = workload::generate_unique_strings(kN, 7, 54321);
  return v;
}

template <typename Filter>
void fill(Filter& f) {
  for (const auto& key : members()) {
    (void)f.insert(key);
  }
}

template <typename MakeFilter>
void query_positive(benchmark::State& state, MakeFilter make) {
  auto f = make();
  fill(*f);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f->contains(members()[i]));
    i = (i + 1) % members().size();
  }
}

template <typename MakeFilter>
void query_negative(benchmark::State& state, MakeFilter make) {
  auto f = make();
  fill(*f);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f->contains(probes()[i]));
    i = (i + 1) % probes().size();
  }
}

template <typename MakeFilter>
void insert_erase(benchmark::State& state, MakeFilter make) {
  auto f = make();
  fill(*f);
  std::size_t i = 0;
  // insert/erase return void on some filters and bool on others.
  const auto sink = [](auto&& expr) {
    if constexpr (!std::is_void_v<decltype(expr())>) {
      benchmark::DoNotOptimize(expr());
    } else {
      expr();
    }
  };
  for (auto _ : state) {
    sink([&] { return f->insert(probes()[i]); });
    sink([&] { return f->erase(probes()[i]); });
    i = (i + 1) % probes().size();
  }
}

auto make_cbf = [] {
  return std::make_unique<filters::CountingBloomFilter>(kMemory, 3);
};
auto make_pcbf1 = [] { return std::make_unique<filters::Pcbf>(kMemory, 3, 1); };
auto make_pcbf2 = [] { return std::make_unique<filters::Pcbf>(kMemory, 3, 2); };
auto make_mp1 = [] {
  return std::make_unique<core::Mpcbf<64>>(
      core::MpcbfConfig{kMemory, 3, 1, kN, 0,
                        core::OverflowPolicy::kStash,
                        hash::kDefaultSeed, true});
};
auto make_mp2 = [] {
  return std::make_unique<core::Mpcbf<64>>(
      core::MpcbfConfig{kMemory, 3, 2, kN, 0,
                        core::OverflowPolicy::kStash,
                        hash::kDefaultSeed, true});
};
auto make_dlcbf = [] {
  filters::DlcbfConfig cfg;
  cfg.memory_bits = kMemory;
  return std::make_unique<filters::Dlcbf>(cfg);
};
auto make_vicbf = [] {
  filters::VicbfConfig cfg;
  cfg.memory_bits = kMemory;
  return std::make_unique<filters::Vicbf>(cfg);
};

void BM_CBF_QueryPositive(benchmark::State& s) { query_positive(s, make_cbf); }
void BM_CBF_QueryNegative(benchmark::State& s) { query_negative(s, make_cbf); }
void BM_CBF_InsertErase(benchmark::State& s) { insert_erase(s, make_cbf); }
void BM_PCBF1_QueryPositive(benchmark::State& s) { query_positive(s, make_pcbf1); }
void BM_PCBF1_QueryNegative(benchmark::State& s) { query_negative(s, make_pcbf1); }
void BM_PCBF1_InsertErase(benchmark::State& s) { insert_erase(s, make_pcbf1); }
void BM_PCBF2_QueryPositive(benchmark::State& s) { query_positive(s, make_pcbf2); }
void BM_MPCBF1_QueryPositive(benchmark::State& s) { query_positive(s, make_mp1); }
void BM_MPCBF1_QueryNegative(benchmark::State& s) { query_negative(s, make_mp1); }
void BM_MPCBF1_InsertErase(benchmark::State& s) { insert_erase(s, make_mp1); }
void BM_MPCBF2_QueryPositive(benchmark::State& s) { query_positive(s, make_mp2); }
void BM_MPCBF2_QueryNegative(benchmark::State& s) { query_negative(s, make_mp2); }
void BM_MPCBF2_InsertErase(benchmark::State& s) { insert_erase(s, make_mp2); }
void BM_DLCBF_QueryPositive(benchmark::State& s) { query_positive(s, make_dlcbf); }
void BM_DLCBF_InsertErase(benchmark::State& s) { insert_erase(s, make_dlcbf); }
void BM_VICBF_QueryPositive(benchmark::State& s) { query_positive(s, make_vicbf); }
void BM_VICBF_InsertErase(benchmark::State& s) { insert_erase(s, make_vicbf); }

BENCHMARK(BM_CBF_QueryPositive);
BENCHMARK(BM_CBF_QueryNegative);
BENCHMARK(BM_CBF_InsertErase);
BENCHMARK(BM_PCBF1_QueryPositive);
BENCHMARK(BM_PCBF1_QueryNegative);
BENCHMARK(BM_PCBF1_InsertErase);
BENCHMARK(BM_PCBF2_QueryPositive);
BENCHMARK(BM_MPCBF1_QueryPositive);
BENCHMARK(BM_MPCBF1_QueryNegative);
BENCHMARK(BM_MPCBF1_InsertErase);
BENCHMARK(BM_MPCBF2_QueryPositive);
BENCHMARK(BM_MPCBF2_QueryNegative);
BENCHMARK(BM_MPCBF2_InsertErase);
BENCHMARK(BM_DLCBF_QueryPositive);
BENCHMARK(BM_DLCBF_InsertErase);
BENCHMARK(BM_VICBF_QueryPositive);
BENCHMARK(BM_VICBF_InsertErase);

// --- batch calls -----------------------------------------------------------
//
// The batch benches process kBatchLen keys per benchmark iteration, so
// values here are ns per *batch*.
constexpr std::size_t kBatchN = 200000;
constexpr std::size_t kBatchLen = 4096;

const std::vector<std::string>& batch_members() {
  static const auto v = workload::generate_unique_strings(kBatchN, 6, 777);
  return v;
}

// Alternates hits and misses so both verdicts (and the short-circuit
// paths) are represented, like a real lookup stream.
const std::vector<std::string>& batch_mixed() {
  static const auto v = [] {
    const auto miss = workload::generate_unique_strings(kBatchN, 8, 888);
    std::vector<std::string> mixed;
    mixed.reserve(2 * kBatchN);
    for (std::size_t i = 0; i < kBatchN; ++i) {
      mixed.push_back(batch_members()[i]);
      mixed.push_back(miss[i]);
    }
    return mixed;
  }();
  return v;
}

// --- DRAM-resident MPCBF-1 batch calls ------------------------------------
//
// A 512 MiB Mpcbf<64> (k=3, g=1), several times any last-level cache, so
// nearly every word fetch is a DRAM access. Every iteration builds
// kBatchLen keys the filter has not seen in this process (timing paused),
// then times one batch call on them — cold words, as in a serving
// workload, rather than a cycled key set a large L3 could learn. Values
// are ns per batch.
constexpr std::size_t kDramMemory = std::size_t{1} << 32;  // 512 MiB
constexpr std::uint64_t kDramPreload = std::uint64_t{1} << 22;

void dram_key(char tag, std::uint64_t i, std::string& out) {
  out.assign(1, tag);
  out += std::to_string(i);
}

core::Mpcbf<64>& dram_filter() {
  static const auto f = [] {
    core::MpcbfConfig cfg;
    cfg.memory_bits = kDramMemory;
    cfg.k = 3;
    cfg.g = 1;
    cfg.expected_n = 4 * kDramPreload;
    cfg.policy = core::OverflowPolicy::kStash;
    auto filter = std::make_unique<core::Mpcbf<64>>(cfg);
    std::vector<std::string> keys(kBatchLen);
    std::vector<std::uint8_t> ok(kBatchLen);
    for (std::uint64_t i = 0; i < kDramPreload; i += kBatchLen) {
      for (std::size_t j = 0; j < kBatchLen; ++j) dram_key('d', i + j, keys[j]);
      filter->insert_batch(keys, ok);
    }
    return filter;
  }();
  return *f;
}

// Half preloaded members (spread over the whole preload), half fresh
// misses, alternating — both verdicts, like batch_mixed().
void BM_MPCBF1_QueryBatch_DRAM(benchmark::State& state) {
  auto& f = dram_filter();
  static std::uint64_t next = 0;
  std::vector<std::string> keys(kBatchLen);
  std::vector<std::uint8_t> out(kBatchLen);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t j = 0; j < kBatchLen; ++j, ++next) {
      if (j % 2 == 0) {
        dram_key('d', (next * 0x9E3779B97F4A7C15ull) % kDramPreload, keys[j]);
      } else {
        dram_key('q', next, keys[j]);
      }
    }
    state.ResumeTiming();
    f.contains_batch(keys, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatchLen));
}

void BM_MPCBF1_InsertBatch_DRAM(benchmark::State& state) {
  auto& f = dram_filter();
  static std::uint64_t next = 0;
  std::vector<std::string> keys(kBatchLen);
  std::vector<std::uint8_t> ok(kBatchLen);
  for (auto _ : state) {
    state.PauseTiming();
    for (auto& key : keys) dram_key('i', next++, key);
    state.ResumeTiming();
    f.insert_batch(keys, ok);
    benchmark::DoNotOptimize(ok.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatchLen));
}

BENCHMARK(BM_MPCBF1_QueryBatch_DRAM);
BENCHMARK(BM_MPCBF1_InsertBatch_DRAM);

// --- cache-resident MPCBF-1 batch calls -----------------------------------
//
// The same k=3, g=1 filter at 1 MiB, which fits in L2: every word fetch
// is a cache hit, so this series tracks what a batch query costs besides
// the fetch (hash, derive, resolve, accounting). One iteration is one
// batch-64 call over alternating members and misses; values are ns per
// batch of kL2BatchLen keys.
constexpr std::size_t kL2Memory = std::size_t{1} << 23;  // 1 MiB
constexpr std::size_t kL2Preload = std::size_t{1} << 16;
constexpr std::size_t kL2BatchLen = 64;

void BM_MPCBF1_QueryBatch_L2(benchmark::State& state) {
  static const auto f = [] {
    core::MpcbfConfig cfg;
    cfg.memory_bits = kL2Memory;
    cfg.k = 3;
    cfg.g = 1;
    cfg.expected_n = kL2Preload;
    cfg.policy = core::OverflowPolicy::kStash;
    auto filter = std::make_unique<core::Mpcbf<64>>(cfg);
    for (std::size_t i = 0; i < kL2Preload; ++i) {
      (void)filter->insert(batch_members()[i]);
    }
    return filter;
  }();
  // batch_mixed() alternates member i and miss i, so its first
  // 2 * kL2Preload keys are half members of this filter, half misses.
  const auto& keys = batch_mixed();
  constexpr std::size_t kPool = 2 * kL2Preload;
  std::size_t base = 0;
  std::vector<std::uint8_t> out(kL2BatchLen);
  for (auto _ : state) {
    f->contains_batch(std::span<const std::string>(&keys[base], kL2BatchLen),
                      std::span<std::uint8_t>(out));
    benchmark::DoNotOptimize(out.data());
    base = (base + kL2BatchLen) % kPool;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kL2BatchLen));
}

BENCHMARK(BM_MPCBF1_QueryBatch_L2);

// --- chunk derive ----------------------------------------------------------
//
// The derive stage of a batch call alone: 64 keys of 17 bytes (the
// perfbench key shape) into query records on the filter-dram layout
// (2^27 words, k = 3, g = 1, b1 = 52). Each iteration takes the next 64
// keys of a 512-key pool, so consecutive calls derive different keys
// while the key bytes stay cache-resident, as the 64 keys a served
// batch has just decoded are. x8 is
// engine::derive_chunk: eight keys per hash::murmur3_128_x8 call and the
// deriver's draw schedule where the CPU has AVX-512, else the scalar
// path. Scalar is the HashBitStream derive per key. Values are ns per
// call of 64 keys.
constexpr std::size_t kDeriveBatch = 64;
constexpr std::size_t kDerivePool = 512;

const std::vector<std::string>& derive_keys() {
  static const auto v = workload::generate_unique_strings(kDerivePool, 17, 99);
  return v;
}

template <class DeriveFn>
void derive_series(benchmark::State& state, DeriveFn&& derive) {
  const core::engine::TargetDeriver der(std::size_t{1} << 27, 3, 1, 52);
  const auto& keys = derive_keys();
  std::array<std::size_t, kDeriveBatch> words{};
  std::array<std::uint16_t, 3 * kDeriveBatch> positions{};
  std::size_t base = 0;
  for (auto _ : state) {
    std::size_t* w = words.data();
    std::uint16_t* p = positions.data();
    derive(der, std::span<const std::string>(&keys[base], kDeriveBatch),
           [&](std::size_t w_i) { *w++ = w_i; },
           [&](unsigned pos) { *p++ = static_cast<std::uint16_t>(pos); });
    benchmark::DoNotOptimize(words.data());
    benchmark::DoNotOptimize(positions.data());
    benchmark::ClobberMemory();
    base = (base + kDeriveBatch) % kDerivePool;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kDeriveBatch));
}

void BM_DeriveChunk_x8(benchmark::State& state) {
  derive_series(state, [](const auto& der, auto keys, auto on_word,
                          auto on_pos) {
    core::engine::derive_chunk(
        der, keys, hash::kDefaultSeed,
        [&](std::size_t, unsigned, std::size_t w) { on_word(w); },
        [&](std::size_t, unsigned, unsigned p) { on_pos(p); });
  });
}

void BM_DeriveChunk_Scalar(benchmark::State& state) {
  derive_series(state, [](const auto& der, auto keys, auto on_word,
                          auto on_pos) {
    for (const auto& key : keys) {
      hash::HashBitStream stream(key, hash::kDefaultSeed);
      der.derive(
          stream, [&](unsigned, std::size_t w) { on_word(w); },
          [&](unsigned, unsigned p) { on_pos(p); });
    }
  });
}

BENCHMARK(BM_DeriveChunk_x8);
BENCHMARK(BM_DeriveChunk_Scalar);

// --- HCBF word primitives -----------------------------------------------

void BM_HcbfWord_IncrementDecrement(benchmark::State& state) {
  core::HcbfWord<64> w(40);
  unsigned pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.increment(pos));
    benchmark::DoNotOptimize(w.decrement(pos));
    pos = (pos + 7) % 40;
  }
}
BENCHMARK(BM_HcbfWord_IncrementDecrement);

void BM_HcbfWord_CounterRead(benchmark::State& state) {
  core::HcbfWord<64> w(40);
  for (unsigned i = 0; i < 8; ++i) {
    (void)w.increment(i * 5);
    (void)w.increment(i * 5);
  }
  unsigned pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.counter(pos));
    pos = (pos + 5) % 40;
  }
}
BENCHMARK(BM_HcbfWord_CounterRead);

void BM_WordBitset_InsertRemove(benchmark::State& state) {
  bits::WordBitset<64> w;
  for (unsigned i = 0; i < 32; i += 2) w.set(i);
  for (auto _ : state) {
    w.insert_zero_at(17);
    benchmark::DoNotOptimize(w.remove_bit_at(17));
  }
}
BENCHMARK(BM_WordBitset_InsertRemove);

// --- CRC32C ----------------------------------------------------------------
//
// The checksum every frame and snapshot carries, through the kernel
// Crc32c::update picks on this CPU and through the portable slice-by-8
// kernel. Sizes: a short record, a batch-64 QUERY frame (1330 B), and a
// 64 KiB block. Values are ns per call.

const std::string& crc_input() {
  static const auto v = [] {
    std::string s(64 << 10, '\0');
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (auto& c : s) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      c = static_cast<char>(x);
    }
    return s;
  }();
  return v;
}

void BM_Crc32c_Dispatched(benchmark::State& state) {
  const std::string_view bytes(crc_input().data(),
                               static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(io::crc32c(bytes));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_Crc32c_Portable(benchmark::State& state) {
  const std::string_view bytes(crc_input().data(),
                               static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(~io::detail::crc32c_update_portable(
        ~std::uint32_t{0}, bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

BENCHMARK(BM_Crc32c_Dispatched)->Arg(64)->Arg(1330)->Arg(64 << 10);
BENCHMARK(BM_Crc32c_Portable)->Arg(64)->Arg(1330)->Arg(64 << 10);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): runs the registered
// benchmarks through a reporter that captures each benchmark's adjusted
// real time, then writes the BENCH_micro_ops.json telemetry record.
namespace {

class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      captured.push_back({run.benchmark_name(), run.GetAdjustedRealTime(),
                          benchmark::GetTimeUnitString(run.time_unit)});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  struct Series {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Series> captured;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  mpcbf::bench::JsonReport report("micro_ops");
  for (const auto& [bench_name, value, unit] : reporter.captured) {
    report.metric(bench_name, value, unit);
  }
  report.write();
  return 0;
}

