// Shared pieces of pb_load, the measuring program: the clock, the seeded key
// generator, the run record that run.py turns into metrics, and the span
// recorder used by traced runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace mpcbf::core::engine {}
namespace mpcbf::hash {}
namespace mpcbf::io {}
namespace mpcbf::metrics {}
namespace mpcbf::net {}

namespace pb {

namespace core = mpcbf::core;
namespace engine = mpcbf::core::engine;
namespace hash = mpcbf::hash;
namespace io = mpcbf::io;
namespace metrics = mpcbf::metrics;
namespace net = mpcbf::net;

/// Monotonic nanoseconds (CLOCK_MONOTONIC via steady_clock).
std::int64_t now_ns();

inline double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// splitmix64's finalizer: a bijection on 64-bit values.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Keys are 17-byte strings: a tag byte ('p' for keys that get inserted,
/// 'a' for keys that never do) and 16 hex digits of a seeded bijection of
/// the key's index. Distinct indices give distinct keys, and the two tags
/// keep the present and absent sets disjoint by construction, so the
/// ground truth of every query is known without storing a key.
class KeyGen {
 public:
  static constexpr std::size_t kKeyLen = 17;
  /// Absent keys at or above this index form the held-out FPR probe set;
  /// timed phases draw absent keys below it.
  static constexpr std::uint64_t kHeldOut = 1ull << 62;

  explicit KeyGen(std::uint64_t seed)
      : salt_(mix64(seed ^ 0x6D70636266ull)) {}

  void present(std::uint64_t i, std::string& out) const { make('p', i, out); }
  void absent(std::uint64_t i, std::string& out) const { make('a', i, out); }

 private:
  void make(char tag, std::uint64_t i, std::string& out) const {
    static constexpr char kHex[] = "0123456789abcdef";
    out.resize(kKeyLen);
    out[0] = tag;
    const std::uint64_t v = mix64(i ^ salt_);
    for (int j = 0; j < 16; ++j) out[1 + j] = kHex[(v >> (4 * j)) & 15];
  }
  std::uint64_t salt_;
};

/// Small deterministic generator for workload choices.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(mix64(seed ^ 0x51ED27ull)) {}
  std::uint64_t next() { return s_ = mix64(s_); }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t s_;
};

/// Throughput windows are 0.25 s, or a quarter of a shorter phase.
constexpr double kWindowS = 0.25;
inline std::int64_t window_ns(double phase_s) {
  return static_cast<std::int64_t>(std::min(kWindowS, phase_s / 4) * 1e9);
}
/// Traced runs alternate this many untraced and traced segments.
constexpr int kTraceSegments = 4;

/// Sizes and durations of one run; `tiny` shrinks everything so the
/// harness can be checked end to end in seconds.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string out_dir;
  std::string tool;  // mpcbf_tool binary (served workloads)
};

/// The raw record of one run, written as JSON for run.py. Values are
/// stored pre-rendered so the writer stays trivial.
class Record {
 public:
  void num(const std::string& k, double v);
  void num(const std::string& k, std::uint64_t v);
  void str(const std::string& k, const std::string& v);
  void list(const std::string& k, const std::vector<double>& v);

  /// Operations attempted that succeeded.
  void op() { ++attempted_; }
  void ops(std::uint64_t n) { attempted_ += n; }
  /// Records a failed operation with a reason (first few kept).
  void fail(const std::string& why);
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  void write(const std::string& path) const;

 private:
  std::map<std::string, std::string> fields_;
  std::vector<std::string> reasons_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Writes doubles as raw little-endian float64 (read by run.py).
void write_samples(const std::string& path, const std::vector<double>& v);

/// Benchmark-side spans around each call into a layer. Kept in memory,
/// written out once at the end; disabled spans cost one branch.
class Spans {
 public:
  enum Name : std::uint8_t {
    kBatch, kKeygen, kEncode, kSend, kCall, kDecode, kCheck, kNumNames
  };
  static const char* name(Name n);

  explicit Spans(bool enabled, std::size_t cap = 1u << 19)
      : enabled_(enabled) {
    if (enabled_) recs_.reserve(cap);
  }
  void set_enabled(bool on) { enabled_ = on && recs_.capacity() > 0; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (or -1 when disabled/full).
  std::int64_t begin(Name n, std::int64_t parent, std::uint64_t req) {
    if (!enabled_ || recs_.size() == recs_.capacity()) return -1;
    recs_.push_back({now_ns(), 0, req, parent, n});
    return static_cast<std::int64_t>(recs_.size() - 1);
  }
  void end(std::int64_t idx) {
    if (idx >= 0) recs_[static_cast<std::size_t>(idx)].end = now_ns();
  }
  /// Records an already finished span.
  void add(Name n, std::int64_t parent, std::uint64_t req,
           std::int64_t start, std::int64_t end) {
    if (!enabled_ || recs_.size() == recs_.capacity()) return;
    recs_.push_back({start, end, req, parent, n});
  }
  void write_csv(const std::string& path) const;

 private:
  struct Rec {
    std::int64_t start;
    std::int64_t end;
    std::uint64_t req;
    std::int64_t parent;
    Name name;
  };
  bool enabled_;
  std::vector<Rec> recs_;
};

/// RAII span: begins on construction, ends on destruction.
class Span {
 public:
  Span(Spans& s, Spans::Name n, std::int64_t parent, std::uint64_t req)
      : s_(s), idx_(s.begin(n, parent, req)) {}
  ~Span() { s_.end(idx_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] std::int64_t index() const { return idx_; }

 private:
  Spans& s_;
  std::int64_t idx_;
};

/// Peak resident set (VmHWM) of `pid` ("self" when 0), in KiB; 0 if
/// unreadable.
std::uint64_t vm_hwm_kb(int pid);

/// Compiler barrier that keeps a computed value alive.
template <class T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

// Workload entry points (one translation unit each).
int run_filter_dram(const RunConfig& cfg, Record& rec);
int run_served(const RunConfig& cfg, Record& rec);

}  // namespace pb
