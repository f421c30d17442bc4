// filter-dram: an in-process core::Mpcbf<64> (k=3, g=1) sized well past
// the shared L3, so nearly every operation pays a DRAM access. After a
// preload it runs a constant-load churn of batch-64 calls: 80%
// contains_batch, 10% insert_batch of new keys, 10% erase of the oldest.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/mpcbf.hpp"
#include "layers.hpp"
#include "server_proc.hpp"

namespace pb {

namespace {

constexpr std::size_t kBatch = 64;

struct Sizes {
  std::size_t memory_bits;
  std::uint64_t preload;
  int setups;
  std::uint64_t fpr_probes;
};

Sizes sizes(bool tiny) {
  if (tiny) return {std::size_t{8} << 23, 1u << 16, 2, 1u << 16};
  // 1 GiB of words (plus the 256 MiB usage sidecar): > 3x the 300 MiB L3.
  return {std::size_t{1} << 33, 1u << 22, 3, 1u << 20};
}

core::MpcbfConfig filter_config(const Sizes& s) {
  core::MpcbfConfig cfg;
  cfg.memory_bits = s.memory_bits;
  cfg.k = 3;
  cfg.g = 1;
  cfg.expected_n = s.preload;
  cfg.policy = core::OverflowPolicy::kStash;
  return cfg;
}

/// Inserts present keys [lo, hi) in batches; every insert must succeed.
void load(core::Mpcbf<64>& f, const KeyGen& kg, std::uint64_t lo,
          std::uint64_t hi, Record& rec) {
  std::vector<std::string> keys(kBatch);
  std::vector<std::uint8_t> ok(kBatch);
  for (std::uint64_t i = lo; i < hi; i += kBatch) {
    const auto n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kBatch, hi - i));
    for (std::size_t j = 0; j < n; ++j) kg.present(i + j, keys[j]);
    f.insert_batch(std::span<const std::string>(keys.data(), n),
                   std::span<std::uint8_t>(ok.data(), n));
    for (std::size_t j = 0; j < n; ++j) {
      if (ok[j]) rec.op();
      else rec.fail("insert refused during load");
    }
  }
}

/// Exact expected false-positive rate of an MPCBF-1 filter: an absent
/// key picks one word uniformly and k positions uniformly among its b1
/// level-1 bits, so P(positive) = mean over words of (ones/b1)^k.
double exact_fpr(const core::Mpcbf<64>& f) {
  const double b1 = f.b1();
  double sum = 0;
  for (std::size_t w = 0; w < f.num_words(); ++w) {
    const unsigned ones = f.word(w).popcount_range(0, f.b1());
    if (ones == 0) continue;
    double p = 1;
    for (unsigned i = 0; i < f.k(); ++i) p *= ones / b1;
    sum += p;
  }
  return sum / static_cast<double>(f.num_words());
}

}  // namespace

int run_filter_dram(const RunConfig& cfg, Record& rec) {
  const Sizes sz = sizes(cfg.tiny);
  const KeyGen kg(cfg.seed);
  // One core for the whole run: no migrations between cache domains.
  cpu_set_t unused;
  pin_split(unused);
  Rng rng(cfg.seed);

  // Set-up: allocate and preload, several times; the last one is kept.
  std::unique_ptr<core::Mpcbf<64>> f;
  std::vector<double> setup_s;
  for (int s = 0; s < sz.setups; ++s) {
    f.reset();
    const std::int64_t t0 = now_ns();
    f = std::make_unique<core::Mpcbf<64>>(filter_config(sz));
    load(*f, kg, 0, sz.preload, rec);
    setup_s.push_back(seconds_since(t0));
  }
  rec.list("setup_s", setup_s);
  rec.num("filter_bytes", static_cast<double>(f->memory_bits() / 8));

  // Accuracy: exact expectation, cross-checked with held-out probes.
  const double fpr = exact_fpr(*f);
  std::uint64_t positives = 0;
  {
    std::vector<std::string> keys(kBatch);
    std::vector<std::uint8_t> out(kBatch);
    for (std::uint64_t i = 0; i < sz.fpr_probes; i += kBatch) {
      for (std::size_t j = 0; j < kBatch; ++j) {
        kg.absent(KeyGen::kHeldOut + i + j, keys[j]);
      }
      f->contains_batch(std::span<const std::string>(keys), out);
      for (auto v : out) positives += v;
      rec.ops(kBatch);
    }
  }
  const double expect = fpr * static_cast<double>(sz.fpr_probes);
  if (static_cast<double>(positives) > expect + 6 * std::sqrt(expect) + 10) {
    rec.fail("held-out probes: " + std::to_string(positives) +
             " positives against an exact expectation of " +
             std::to_string(expect));
  }
  rec.num("fpr", fpr);
  rec.num("fpr_probe_positives", positives);
  rec.num("fpr_probes", sz.fpr_probes);

  // Churn: a fixed 10-call cycle (1 insert, 1 erase, 8 queries) keeps
  // the live set at exactly `preload` keys, [erase_at, insert_at).
  Spans spans(cfg.trace);
  std::uint64_t insert_at = sz.preload;
  std::uint64_t erase_at = 0;
  std::vector<std::string> keys(kBatch);
  std::vector<std::uint8_t> out(kBatch);
  std::vector<double> lat_us;
  lat_us.reserve(1 << 22);
  std::uint64_t call = 0;
  // Appends the keys completed in, and the length of, each ~kWindowS
  // window to keys_w and secs_w.
  auto churn = [&](double seconds, bool traced, std::vector<double>& keys_w,
                   std::vector<double>& secs_w) {
    spans.set_enabled(traced);
    std::uint64_t in_window = 0;
    std::int64_t window_start = now_ns();
    const std::int64_t end =
        window_start + static_cast<std::int64_t>(seconds * 1e9);
    for (;;) {
      const std::uint64_t id = call++;
      const int slot = static_cast<int>(id % 10);
      Span batch(spans, Spans::kBatch, -1, id);
      {
        Span s(spans, Spans::kKeygen, batch.index(), id);
        for (std::size_t j = 0; j < kBatch; ++j) {
          if (slot == 0) {
            kg.present(insert_at + j, keys[j]);
          } else if (slot == 1) {
            kg.present(erase_at + j, keys[j]);
          } else if (j % 2 == 0) {
            kg.present(erase_at + rng.below(insert_at - erase_at), keys[j]);
          } else {
            kg.absent(rng.below(KeyGen::kHeldOut), keys[j]);
          }
        }
      }
      const std::int64_t t0 = now_ns();
      {
        Span s(spans, Spans::kCall, batch.index(), id);
        if (slot == 0) {
          f->insert_batch(std::span<const std::string>(keys), out);
        } else if (slot == 1) {
          for (std::size_t j = 0; j < kBatch; ++j) out[j] = f->erase(keys[j]);
        } else {
          f->contains_batch(std::span<const std::string>(keys), out);
        }
      }
      const std::int64_t t1 = now_ns();
      lat_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      {
        Span s(spans, Spans::kCheck, batch.index(), id);
        for (std::size_t j = 0; j < kBatch; ++j) {
          // Inserts, erases and queries of present keys must all answer 1;
          // absent keys may be false positives.
          const bool must = slot < 2 || j % 2 == 0;
          if (must && !out[j]) {
            rec.fail(slot == 0   ? "insert refused"
                     : slot == 1 ? "erase underflow"
                                 : "false negative");
          } else {
            rec.op();
          }
        }
        if (slot == 0) insert_at += kBatch;
        if (slot == 1) erase_at += kBatch;
      }
      in_window += kBatch;
      if (t1 - window_start >= window_ns(seconds)) {
        keys_w.push_back(static_cast<double>(in_window));
        secs_w.push_back(static_cast<double>(t1 - window_start) * 1e-9);
        in_window = 0;
        window_start = t1;
        if (t1 >= end) break;
      }
    }
  };

  std::vector<double> keys_w, secs_w;
  if (cfg.trace) {
    // Alternate untraced and traced segments so drift in host memory
    // contention does not masquerade as tracing overhead.
    std::vector<double> keys_u, secs_u;
    for (int i = 0; i < kTraceSegments; ++i) {
      churn(cfg.seconds / (2 * kTraceSegments), false, keys_u, secs_u);
      churn(cfg.seconds / (2 * kTraceSegments), true, keys_w, secs_w);
    }
    rec.list("windows_untraced", keys_u);
    rec.list("window_secs_untraced", secs_u);
    spans.write_csv(cfg.out_dir + "/spans.csv");
    measure_layers(*f, kg, erase_at, insert_at, kBatch, rec);
  } else {
    churn(cfg.seconds, false, keys_w, secs_w);
  }
  rec.list("windows", keys_w);
  rec.list("window_secs", secs_w);
  write_samples(cfg.out_dir + "/lat_us.bin", lat_us);

  // A sample of the live keys (64 of every 4096) must still answer
  // positive at the end.
  for (std::uint64_t i = erase_at; i < insert_at; i += kBatch * 64) {
    for (std::size_t j = 0; j < kBatch; ++j) kg.present(i + j, keys[j]);
    f->contains_batch(std::span<const std::string>(keys), out);
    for (std::size_t j = 0; j < kBatch; ++j) {
      if (out[j]) rec.op();
      else rec.fail("live key negative at end of run");
    }
  }
  rec.num("peak_rss_kb", vm_hwm_kb(0));
  return rec.failed() == 0 ? 0 : 1;
}

}  // namespace pb
