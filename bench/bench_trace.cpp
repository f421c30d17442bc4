// Tracing overhead — the cost of the trace layer on the filter hot
// paths, in its two states:
//
//   disarmed  one relaxed load + untaken branch per span site: the cost
//             every build pays for shipping the instrumentation;
//   armed     clock reads + ring push per span; the loop drains the
//             rings every kRingCapacity/8 ops the way a live collector
//             would, so the number includes drain cost and drops stay
//             near zero.
//
// Disarmed vs armed gives the price of an active capture session. A
// compiled-out build was measured against the disarmed one before it was
// deleted: the gap sat inside the run-to-run spread (the compiled-out
// figures are kept in results/bench_trace.txt).
//
// Usage: bench_trace [--n 100000] [--queries 1000000] [--seed 7]
//        [--csv out.csv]
#include "bench_common.hpp"
#include "trace/trace.hpp"

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
  mpcbf::bench::JsonReport report("trace");
  report.config("n", n);
  report.config("queries", num_queries);
  report.config("seed", seed);

  std::cout << "=== Tracing overhead (disarmed + armed) ===\n"
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

  const auto churn_keys =
      workload::generate_unique_strings(n / 4, 6, seed + 2);

  std::uint64_t sink = 0;
  const auto time_query = [&] {
    return best_of(3, qs.queries.size(), [&] {
      for (const auto& q : qs.queries) sink += filter.contains(q) ? 1 : 0;
    });
  };
  const auto time_update = [&] {
    return best_of(3, 2 * churn_keys.size(), [&] {
      for (const auto& k : churn_keys) sink += filter.insert(k) ? 1 : 0;
      for (const auto& k : churn_keys) sink += filter.erase(k) ? 1 : 0;
    });
  };

  // State 1: tracer disarmed.
  const double query_off_ns = time_query();
  const double update_off_ns = time_update();

  // State 2: armed capture. Drain the rings the way a live collector
  // would so drops stay near zero — a query emits ~2k+2 core spans, so
  // drain every kRingCapacity/8 queries to stay well under capacity.
  auto& tracer = trace::Tracer::global();
  tracer.clear();
  tracer.arm();
  constexpr std::size_t kDrainEvery = trace::Tracer::kRingCapacity / 8;
  const double query_on_ns = best_of(3, qs.queries.size(), [&] {
    std::size_t since_drain = 0;
    for (const auto& q : qs.queries) {
      sink += filter.contains(q) ? 1 : 0;
      if (++since_drain == kDrainEvery) {
        trace::Tracer::global().clear();
        since_drain = 0;
      }
    }
  });
  const double update_on_ns = best_of(3, 2 * churn_keys.size(), [&] {
    std::size_t since_drain = 0;
    for (const auto& k : churn_keys) {
      sink += filter.insert(k) ? 1 : 0;
      if (++since_drain == kDrainEvery) {
        trace::Tracer::global().clear();
        since_drain = 0;
      }
    }
    for (const auto& k : churn_keys) {
      sink += filter.erase(k) ? 1 : 0;
      if (++since_drain == kDrainEvery) {
        trace::Tracer::global().clear();
        since_drain = 0;
      }
    }
  });
  const std::uint64_t drops = tracer.dropped();
  tracer.disarm();
  tracer.clear();

  util::Table table({"path", "ns/op"});
  table.row().add("query (disarmed)").addf(query_off_ns, 2);
  table.row().add("insert+erase (disarmed)").addf(update_off_ns, 2);
  table.row().add("query (armed)").addf(query_on_ns, 2);
  table.row().add("insert+erase (armed)").addf(update_on_ns, 2);
  table.print(std::cout);
  std::cout << "(sink " << sink % 10 << ")\n";
  std::cout << "armed/disarmed query ratio: "
            << (query_off_ns > 0 ? query_on_ns / query_off_ns : 0.0)
            << "  (ring drops during armed run: " << drops << ")\n";

  report.add_table("ns_per_op", table);
  report.metric("query_disarmed_ns", query_off_ns, "ns");
  report.metric("update_disarmed_ns", update_off_ns, "ns");
  report.metric("query_armed_ns", query_on_ns, "ns");
  report.metric("update_armed_ns", update_on_ns, "ns");
  report.metric("armed_ring_drops", static_cast<double>(drops), "count");

  if (!csv.empty()) {
    std::ofstream os(csv);
    os << "query_off_ns,update_off_ns,query_on_ns,update_on_ns\n"
       << query_off_ns << "," << update_off_ns << "," << query_on_ns
       << "," << update_on_ns << "\n";
  }
  report.write();
  return 0;
}
