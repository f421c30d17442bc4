// Microbenchmarks (google-benchmark): cost of crash-safe persistence.
// Isolates the write-ahead-journal overhead a DurableMpcbf adds on top
// of a plain Mpcbf insert, across the flush policies an operator
// actually chooses between (buffered, flush-per-op, fsync-per-op, group
// commit), plus the raw journal append and the query path (which must
// stay journal-free and identical to the plain filter).
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/durable_mpcbf.hpp"
#include "core/mpcbf.hpp"
#include "io/journal.hpp"
#include "workload/string_sets.hpp"

namespace {

using namespace mpcbf;
namespace fs = std::filesystem;

constexpr std::size_t kMemory = 1u << 22;  // 4 Mb
constexpr std::size_t kN = 50000;

const std::vector<std::string>& keys() {
  static const auto v = workload::generate_unique_strings(kN, 8, 2024);
  return v;
}

core::MpcbfConfig config() {
  core::MpcbfConfig cfg;
  cfg.memory_bits = kMemory;
  cfg.k = 3;
  cfg.g = 1;
  cfg.expected_n = kN;
  cfg.policy = core::OverflowPolicy::kStash;
  return cfg;
}

fs::path fresh_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() / ("mpcbf_bench_" + tag);
  fs::remove_all(dir);
  return dir;
}

// Alternates insert/erase of a rotating key so occupancy stays flat
// across arbitrarily many iterations and every measured op journals
// exactly one record.
template <typename Target>
void churn(benchmark::State& state, Target& target) {
  std::size_t i = 0;
  bool inserting = true;
  for (auto _ : state) {
    if (inserting) {
      benchmark::DoNotOptimize(target.insert(keys()[i]));
    } else {
      benchmark::DoNotOptimize(target.erase(keys()[i]));
      i = (i + 1) % keys().size();
    }
    inserting = !inserting;
  }
}

void BM_PlainInsertErase(benchmark::State& state) {
  core::Mpcbf<64> f(config());
  churn(state, f);
}
BENCHMARK(BM_PlainInsertErase);

void BM_DurableBuffered(benchmark::State& state) {
  // Journal records buffered in the ofstream; no flush, no fsync. The
  // floor for what the WAL write path itself costs.
  const auto dir = fresh_dir("buffered");
  core::DurableMpcbf<64>::Options opt;
  opt.flush_every = ~std::size_t{0};
  opt.fsync = false;
  {
    core::DurableMpcbf<64> d(dir, config(), opt);
    churn(state, d);
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_DurableBuffered);

void BM_DurableFlushEveryOp(benchmark::State& state) {
  // flush() per mutation without fsync: durable against process death,
  // not against power loss.
  const auto dir = fresh_dir("flush");
  core::DurableMpcbf<64>::Options opt;
  opt.flush_every = 1;
  opt.fsync = false;
  {
    core::DurableMpcbf<64> d(dir, config(), opt);
    churn(state, d);
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_DurableFlushEveryOp);

void BM_DurableGroupCommit64(benchmark::State& state) {
  const auto dir = fresh_dir("group64");
  core::DurableMpcbf<64>::Options opt;
  opt.flush_every = 64;
  opt.fsync = false;
  {
    core::DurableMpcbf<64> d(dir, config(), opt);
    churn(state, d);
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_DurableGroupCommit64);

void BM_DurableFsyncEveryOp(benchmark::State& state) {
  // Full durability: fsync per mutation. Dominated by the device, shown
  // for scale.
  const auto dir = fresh_dir("fsync");
  core::DurableMpcbf<64>::Options opt;
  opt.flush_every = 1;
  opt.fsync = true;
  {
    core::DurableMpcbf<64> d(dir, config(), opt);
    churn(state, d);
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_DurableFsyncEveryOp);

void BM_JournalAppendRaw(benchmark::State& state) {
  // The WAL append alone (serialize + CRC + buffered write), no filter.
  const auto dir = fresh_dir("raw");
  fs::create_directories(dir);
  {
    io::Journal j((dir / "journal.wal").string());
    std::size_t i = 0;
    for (auto _ : state) {
      benchmark::DoNotOptimize(j.append(io::JournalOp::kInsert, keys()[i]));
      i = (i + 1) % keys().size();
    }
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_JournalAppendRaw);

void BM_PlainQuery(benchmark::State& state) {
  core::Mpcbf<64> f(config());
  for (const auto& k : keys()) (void)f.insert(k);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.contains(keys()[i]));
    i = (i + 1) % keys().size();
  }
}
BENCHMARK(BM_PlainQuery);

void BM_DurableQuery(benchmark::State& state) {
  // Must match BM_PlainQuery: queries never touch the journal.
  const auto dir = fresh_dir("query");
  core::DurableMpcbf<64>::Options opt;
  opt.flush_every = ~std::size_t{0};
  opt.fsync = false;
  {
    core::DurableMpcbf<64> d(dir, config(), opt);
    for (const auto& k : keys()) (void)d.insert(k);
    std::size_t i = 0;
    for (auto _ : state) {
      benchmark::DoNotOptimize(d.contains(keys()[i]));
      i = (i + 1) % keys().size();
    }
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_DurableQuery);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): runs the registered
// benchmarks through a reporter that captures each benchmark's adjusted
// real time, then writes the BENCH_journal.json telemetry record.
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
  mpcbf::bench::JsonReport report("journal");
  for (const auto& [bench_name, value, unit] : reporter.captured) {
    report.metric(bench_name, value, unit);
  }
  report.write();
  return 0;
}

