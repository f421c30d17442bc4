// Microbenchmarks (google-benchmark): per-operation latency of every
// filter in the lineup — insert, positive query, negative query, delete —
// plus the HCBF word primitives the core is built from. Complements the
// figure benches: Fig. 8 measures a realistic mixed stream; these isolate
// single-operation cost. Also times the CRC32C kernels every frame and
// snapshot goes through.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/atomic_mpcbf.hpp"
#include "core/hcbf.hpp"
#include "core/mpcbf.hpp"
#include "core/sharded_mpcbf.hpp"
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

// --- batch pipeline vs scalar loop --------------------------------------
//
// The batch benches use a filter much larger than the last-level cache so
// every word access is a real memory round-trip — the regime the engine's
// derive → gather → resolve pipeline targets. One benchmark iteration
// processes kBatchLen keys, so values here are ns per *batch*, directly
// comparable between the Scalar and Batch variants of the same filter.
constexpr std::size_t kBatchMemory = 1u << 28;  // 256 Mb = 32 MiB of words
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

std::unique_ptr<core::AtomicMpcbf> make_atomic_filled() {
  auto f = std::make_unique<core::AtomicMpcbf>(kBatchMemory, 3, 2, kBatchN);
  for (const auto& key : batch_members()) (void)f->insert(key);
  return f;
}

std::unique_ptr<core::ShardedMpcbf<64>> make_sharded_filled() {
  core::MpcbfConfig cfg;
  cfg.memory_bits = kBatchMemory;
  cfg.k = 3;
  cfg.g = 2;
  cfg.expected_n = kBatchN;
  auto f = std::make_unique<core::ShardedMpcbf<64>>(cfg, 16);
  for (const auto& key : batch_members()) (void)f->insert(key);
  return f;
}

template <typename Filter>
void query_scalar_loop(benchmark::State& state, Filter& f) {
  const auto& keys = batch_mixed();
  std::size_t base = 0;
  std::vector<std::uint8_t> out(kBatchLen);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBatchLen; ++i) {
      out[i] = f.contains(keys[base + i]) ? 1 : 0;
    }
    benchmark::DoNotOptimize(out.data());
    base = (base + kBatchLen) % (keys.size() - kBatchLen);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatchLen));
}

template <typename Filter>
void query_batch(benchmark::State& state, Filter& f) {
  const auto& keys = batch_mixed();
  std::size_t base = 0;
  std::vector<std::uint8_t> out(kBatchLen);
  for (auto _ : state) {
    f.contains_batch(std::span<const std::string>(&keys[base], kBatchLen),
                     std::span<std::uint8_t>(out));
    benchmark::DoNotOptimize(out.data());
    base = (base + kBatchLen) % (keys.size() - kBatchLen);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatchLen));
}

void BM_ATOMIC_QueryScalarLoop4k(benchmark::State& state) {
  static const auto f = make_atomic_filled();
  query_scalar_loop(state, *f);
}
void BM_ATOMIC_QueryBatch4k(benchmark::State& state) {
  static const auto f = make_atomic_filled();
  query_batch(state, *f);
}
void BM_SHARDED_QueryScalarLoop4k(benchmark::State& state) {
  static const auto f = make_sharded_filled();
  query_scalar_loop(state, *f);
}
void BM_SHARDED_QueryBatch4k(benchmark::State& state) {
  static const auto f = make_sharded_filled();
  query_batch(state, *f);
}

BENCHMARK(BM_ATOMIC_QueryScalarLoop4k);
BENCHMARK(BM_ATOMIC_QueryBatch4k);
BENCHMARK(BM_SHARDED_QueryScalarLoop4k);
BENCHMARK(BM_SHARDED_QueryBatch4k);

// --- DRAM-resident MPCBF-1 batch calls ------------------------------------
//
// A 512 MiB Mpcbf<64> (k=3, g=1), several times any last-level cache, so
// nearly every word fetch is a DRAM access. Every iteration builds
// kBatchLen keys the filter has not seen in this process (timing paused),
// then times one batch call on them — cold words, as in a serving
// workload, rather than a cycled key set a large L3 could learn. Values
// are ns per batch, like the series above.
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
      captured.emplace_back(run.benchmark_name(),
                            run.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<std::pair<std::string, double>> captured;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  mpcbf::bench::JsonReport report("micro_ops");
  for (const auto& [bench_name, ns] : reporter.captured) {
    report.metric(bench_name, ns);
  }
  report.write();
  return 0;
}

