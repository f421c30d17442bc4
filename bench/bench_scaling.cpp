// Batching scaling — the deployment question the paper's hardware
// discussion raises, answered for the software filter: scalar
// contains() (the one-key walk) vs contains_batch() (gather-pipelined) on
// a filter large enough that queries miss cache.
//
// Usage: bench_scaling [--n 200000] [--seed 11] [--csv out.csv]
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace mpcbf;
  util::CliArgs args(argc, argv);
  const std::size_t n = args.get_uint("n", 200000);
  const std::uint64_t seed = args.get_uint("seed", 11);
  const std::string csv = args.get_string("csv", "");
  args.reject_unknown({"n", "seed", "csv"});
  mpcbf::bench::JsonReport report("scaling");
  report.config("n", n);
  report.config("seed", seed);

  std::cout << "=== Batched vs scalar queries (gather pipelining) ===\n"
            << "n=" << n << " seed=" << seed << "\n\n";
  const auto keys = workload::generate_unique_strings(n, 6, seed + 1);
  core::MpcbfConfig cfg;
  cfg.memory_bits = 1ull << 26;  // 64 Mb: misses cache
  cfg.k = 3;
  cfg.g = 1;
  cfg.expected_n = n;
  cfg.seed = seed;
  cfg.policy = core::OverflowPolicy::kStash;
  core::Mpcbf<64> f(cfg);
  for (const auto& k : keys) f.insert(k);

  double scalar_best = 1e300;
  double batch_best = 1e300;
  std::uint64_t sink = 0;
  std::vector<std::uint8_t> out(keys.size());
  for (int rep = 0; rep < 3; ++rep) {
    util::Stopwatch w1;
    for (const auto& k : keys) sink += f.contains(k);
    scalar_best = std::min(scalar_best, w1.elapsed_seconds());
    util::Stopwatch w2;
    f.contains_batch(keys, out);
    batch_best = std::min(batch_best, w2.elapsed_seconds());
  }
  for (const auto b : out) sink += b;

  const double scalar_mqps =
      static_cast<double>(keys.size()) / scalar_best / 1e6;
  const double batch_mqps = static_cast<double>(keys.size()) / batch_best / 1e6;
  util::Table table({"path", "Mq/s"});
  table.row().add("scalar contains()").addf(scalar_mqps, 2);
  table.row().add("contains_batch()").addf(batch_mqps, 2);
  table.emit(csv);
  std::cout << "[sink=" << sink << "]\n";
  report.add_table("queries", table);
  report.write();

  std::cout << "\nExpected shape: batching wins once the filter outgrows "
               "cache.\n";
  return 0;
}
