// Elastic-chain overhead benchmark: query and insert ns/op as a
// function of segment count. Every query probes one bucket's chain
// oldest-first, so the cost model is ~linear in the bucket's chain
// length; this harness pre-grows the chain deterministically (auto-grow
// off, split the segment owning the most buckets) and measures the
// curve at 1/2/4/8 segments. The ns/op series are regression-gated by
// scripts/bench_compare.py against results/json/baseline/.
//
// Usage: bench_elastic [--n 20000] [--queries 200000] [--reps 3]
//        [--segments-max 8] [--seed 7]
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/cli.hpp"
#include "core/elastic_mpcbf.hpp"
#include "metrics/timer.hpp"
#include "workload/string_sets.hpp"

namespace {

using namespace mpcbf;
using core::ElasticConfig;
using core::ElasticMpcbf;

ElasticConfig bench_config(std::size_t n) {
  ElasticConfig cfg;
  cfg.segment.memory_bits = 1u << 20;  // roomy: measure chain walking,
                                       // not stash churn under overload
  cfg.segment.k = 3;
  cfg.segment.g = 1;
  cfg.segment.expected_n = n;
  cfg.segment.policy = core::OverflowPolicy::kStash;
  cfg.route_bits = 6;
  return cfg;
}

/// Splits the segment owning the most buckets — the deterministic way
/// to thicken chains without an insert storm.
void grow_once(ElasticMpcbf<64>& f) {
  std::vector<std::size_t> owned(f.num_segments(), 0);
  for (std::uint32_t b = 0; b < f.num_buckets(); ++b) {
    ++owned[f.owner(b)];
  }
  std::uint32_t best = 0;
  for (std::uint32_t s = 1; s < owned.size(); ++s) {
    if (owned[s] > owned[best]) best = s;
  }
  f.grow_from(best);
}

double query_ns_per_op(const ElasticMpcbf<64>& f,
                       const std::vector<std::string>& keys,
                       std::size_t queries, int reps) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    std::size_t hits = 0;
    const auto t0 = metrics::now_ns();
    for (std::size_t i = 0; i < queries; ++i) {
      hits += f.contains(keys[i % keys.size()]) ? 1 : 0;
    }
    const auto ns = static_cast<double>(metrics::now_ns() - t0);
    if (hits == 0) std::fprintf(stderr, "warning: zero hits\n");
    best = std::min(best, ns / static_cast<double>(queries));
  }
  return best;
}

double insert_erase_ns_per_op(ElasticMpcbf<64>& f,
                              const std::vector<std::string>& churn,
                              int reps) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = metrics::now_ns();
    for (const auto& k : churn) f.insert(k);
    for (const auto& k : churn) f.erase(k);
    const auto ns = static_cast<double>(metrics::now_ns() - t0);
    best = std::min(best, ns / static_cast<double>(2 * churn.size()));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  mpcbf::util::CliArgs args(argc, argv);
  const std::size_t n = args.get_uint("n", 20000);
  const std::size_t queries = args.get_uint("queries", 200000);
  const int reps = static_cast<int>(args.get_uint("reps", 3));
  const std::size_t segments_max = args.get_uint("segments-max", 8);
  const std::uint64_t seed = args.get_uint("seed", 7);

  ElasticMpcbf<64> f(bench_config(n));
  f.set_auto_grow(false);
  const auto keys = mpcbf::workload::generate_unique_strings(n, 12, seed);
  const auto churn =
      mpcbf::workload::generate_unique_strings(n / 4, 12, seed + 1);
  for (const auto& k : keys) f.insert(k);

  std::printf("elastic chain bench: %zu keys, %u route buckets\n\n", n,
              f.num_buckets());

  mpcbf::bench::JsonReport report("elastic");
  report.config("n", n);
  report.config("queries", queries);
  report.config("reps", reps);
  report.config("segments_max", segments_max);

  for (std::size_t target = 1; target <= segments_max; target *= 2) {
    while (f.live_segments() < target) grow_once(f);
    const double q = query_ns_per_op(f, keys, queries, reps);
    const double u = insert_erase_ns_per_op(f, churn, reps);
    std::printf("segments=%-2zu  query %8.1f ns/op   update %8.1f ns/op\n",
                f.live_segments(), q, u);
    report.metric("query_seg" + std::to_string(target) + "_ns_per_op", q, "ns");
    report.metric("update_seg" + std::to_string(target) + "_ns_per_op", u, "ns");
  }
  report.metric("model_fpr_final", f.model_fpr(), "ratio");
  report.write();

  if (!f.validate()) {
    std::fprintf(stderr, "FAIL: chain invariants violated\n");
    return 1;
  }
  return 0;
}
