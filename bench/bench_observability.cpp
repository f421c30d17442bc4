// Observability overhead — the filter paths the metrics layer records
// on, beside the cost of its primitives. The batch query path's
// accounting is aggregated per call (one atomic trio per op class hit
// and one sampled latency per chunk), so its share is far below a
// scalar contains(), which pays a sampled-latency tick plus three
// relaxed adds per op. The primitive costs (histogram record, registry
// counter inc) show regressions in the metrics layer itself without the
// filter in the way.
//
// Usage: bench_observability [--n 100000] [--queries 1000000] [--seed 7]
//        [--csv out.csv]
#include "bench_common.hpp"
#include "metrics/histogram.hpp"
#include "metrics/registry.hpp"
#include "metrics/timer.hpp"

namespace {

using namespace mpcbf;

template <typename Fn>
double best_of(int reps, std::uint64_t ops, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch watch;
    fn();
    best = std::min(best, watch.elapsed_seconds());
  }
  return best * 1e9 / static_cast<double>(ops);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  const std::size_t n = args.get_uint("n", 100000);
  const std::size_t num_queries = args.get_uint("queries", 1000000);
  const std::uint64_t seed = args.get_uint("seed", 7);
  const std::string csv = args.get_string("csv", "");
  args.reject_unknown({"n", "queries", "seed", "csv"});
  mpcbf::bench::JsonReport report("observability");
  report.config("n", n);
  report.config("queries", num_queries);
  report.config("seed", seed);

  std::cout << "=== Observability overhead ===\n"
            << "n=" << n << " queries=" << num_queries << " seed=" << seed
            << "\n\n";

  const auto keys = workload::generate_unique_strings(n, 5, seed);
  const auto qs =
      workload::build_query_set(keys, num_queries, 0.5, seed + 1);

  core::MpcbfConfig cfg;
  cfg.memory_bits = std::max<std::size_t>(n * 16, 1 << 16);
  cfg.k = 3;
  cfg.g = 1;
  cfg.expected_n = n;
  cfg.seed = seed;
  cfg.policy = core::OverflowPolicy::kStash;
  core::Mpcbf<64> filter(cfg);
  for (const auto& k : keys) filter.insert(k);

  std::uint64_t sink = 0;

  const double scalar_ns =
      best_of(3, qs.queries.size(), [&] {
        for (const auto& q : qs.queries) sink += filter.contains(q) ? 1 : 0;
      });

  std::vector<std::uint8_t> out(qs.queries.size());
  const double batch_ns = best_of(3, qs.queries.size(), [&] {
    filter.contains_batch(qs.queries, out);
    sink += out[0];
  });

  // Insert+erase churn (journaling-free, pure filter path).
  const auto churn_keys =
      workload::generate_unique_strings(n / 4, 6, seed + 2);
  const double update_ns = best_of(3, 2 * churn_keys.size(), [&] {
    for (const auto& k : churn_keys) sink += filter.insert(k) ? 1 : 0;
    for (const auto& k : churn_keys) sink += filter.erase(k) ? 1 : 0;
  });

  // Metrics-layer primitives, measured bare.
  metrics::Histogram h;
  const double hist_ns = best_of(3, 1 << 20, [&] {
    for (std::uint64_t i = 0; i < (1 << 20); ++i) h.record(i & 0xFFFF);
  });
  metrics::Registry reg;
  auto& counter = reg.counter("bench_ops_total");
  const double ctr_ns = best_of(3, 1 << 20, [&] {
    for (std::uint64_t i = 0; i < (1 << 20); ++i) counter.inc();
  });

  util::Table table({"path", "ns/op"});
  table.row().add("scalar contains").addf(scalar_ns, 2);
  table.row().add("batch contains").addf(batch_ns, 2);
  table.row().add("insert+erase").addf(update_ns, 2);
  table.row().add("histogram record").addf(hist_ns, 2);
  table.row().add("counter inc").addf(ctr_ns, 2);
  table.print(std::cout);
  std::cout << "(sink " << sink % 10 << ")\n";
  report.add_table("ns_per_op", table);
  report.metric("scalar_contains_ns", scalar_ns, "ns");
  report.metric("batch_contains_ns", batch_ns, "ns");
  report.metric("insert_erase_ns", update_ns, "ns");
  report.metric("histogram_record_ns", hist_ns, "ns");
  report.metric("counter_inc_ns", ctr_ns, "ns");

  if (!csv.empty()) {
    std::ofstream os(csv);
    os << "scalar_ns,batch_ns,update_ns,hist_ns,ctr_ns\n"
       << scalar_ns << "," << batch_ns << "," << update_ns << ","
       << hist_ns << "," << ctr_ns << "\n";
  }
  report.write();
  return 0;
}
