// Structured, leveled logging — the operator-facing event stream next to
// the aggregate counters (src/metrics/) and nanosecond spans (src/trace/).
//
// Design: one process-wide Logger with a relaxed-atomic level gate, so a
// below-threshold call site costs one load and an untaken branch — the
// same disarmed-path discipline as Tracer::armed(). Lines are logfmt by
// default (`ts=... level=... event=... key=value ...`) or JSON-lines,
// one complete line per write under a sink mutex so concurrent threads
// never interleave. Every call site carries its own rate limiter (a
// static SiteState behind the macro): at most kSiteBudget lines per
// second per site, with the suppressed count carried on the next
// admitted line — a log-storm (a peer in a reconnect loop, a saturated
// filter alarming every request) degrades to one line plus a count,
// never an unbounded write amplification.
//
// Field values are POD views (no allocation at the call site beyond the
// formatted line); `event` and field keys must be static-storage strings,
// mirroring trace.hpp's Span::name contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>

#include "metrics/timer.hpp"

namespace mpcbf::log {

enum class Level : std::uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,  ///< set_level(kOff) silences every site
};

[[nodiscard]] constexpr const char* to_string(Level l) noexcept {
  switch (l) {
    case Level::kDebug: return "debug";
    case Level::kInfo: return "info";
    case Level::kWarn: return "warn";
    case Level::kError: return "error";
    case Level::kOff: return "off";
  }
  return "?";
}

/// Parses "debug"/"info"/"warn"/"error"/"off"; returns false on anything
/// else (the caller decides whether that is fatal — mpcbf_tool rejects
/// the flag).
[[nodiscard]] inline bool parse_level(std::string_view s,
                                      Level& out) noexcept {
  if (s == "debug") out = Level::kDebug;
  else if (s == "info") out = Level::kInfo;
  else if (s == "warn") out = Level::kWarn;
  else if (s == "error") out = Level::kError;
  else if (s == "off") out = Level::kOff;
  else return false;
  return true;
}

/// One key=value pair. Keys must be static-storage strings; string
/// values are views that only need to outlive the log() call.
struct Field {
  enum class Kind : std::uint8_t { kU64, kI64, kF64, kStr, kBool, kHex };
  const char* key = nullptr;
  Kind kind = Kind::kU64;
  std::uint64_t u = 0;
  std::int64_t i = 0;
  double d = 0.0;
  std::string_view s;
};

[[nodiscard]] inline Field u64(const char* key, std::uint64_t v) noexcept {
  Field f;
  f.key = key;
  f.kind = Field::Kind::kU64;
  f.u = v;
  return f;
}
[[nodiscard]] inline Field i64(const char* key, std::int64_t v) noexcept {
  Field f;
  f.key = key;
  f.kind = Field::Kind::kI64;
  f.i = v;
  return f;
}
[[nodiscard]] inline Field f64(const char* key, double v) noexcept {
  Field f;
  f.key = key;
  f.kind = Field::Kind::kF64;
  f.d = v;
  return f;
}
[[nodiscard]] inline Field str(const char* key,
                               std::string_view v) noexcept {
  Field f;
  f.key = key;
  f.kind = Field::Kind::kStr;
  f.s = v;
  return f;
}
[[nodiscard]] inline Field boolean(const char* key, bool v) noexcept {
  Field f;
  f.key = key;
  f.kind = Field::Kind::kBool;
  f.u = v ? 1 : 0;
  return f;
}
/// Fixed 16-digit lowercase hex — the canonical rendering for trace and
/// session ids, so a grep for one id matches the wire, the log and
/// /tracez verbatim.
[[nodiscard]] inline Field hex(const char* key, std::uint64_t v) noexcept {
  Field f;
  f.key = key;
  f.kind = Field::Kind::kHex;
  f.u = v;
  return f;
}

/// Renders `v` as the canonical 16-digit lowercase hex id.
[[nodiscard]] inline std::string format_hex16(std::uint64_t v) {
  char buf[17];
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    buf[i] = kDigits[v & 0xF];
    v >>= 4;
  }
  buf[16] = '\0';
  return std::string(buf, 16);
}

/// Appends `v` as a quoted JSON string: quote, backslash and every
/// control byte escaped, so any input yields a valid string literal.
/// The one escaper behind the JSON log lines and the Chrome-trace
/// encoder (trace/trace.hpp).
inline void append_json_string(std::string& out, std::string_view v) {
  out.push_back('"');
  std::size_t plain = 0;  // start of the run not yet appended
  for (std::size_t i = 0; i < v.size(); ++i) {
    const char ch = v[i];
    if (ch != '"' && ch != '\\' && static_cast<unsigned char>(ch) >= 0x20) {
      continue;
    }
    out.append(v, plain, i - plain);
    plain = i + 1;
    switch (ch) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x",
                      static_cast<unsigned>(ch));
        out.append(buf);
      }
    }
  }
  out.append(v, plain);
  out.push_back('"');
}

/// Per-call-site rate-limiter state; the MPCBF_LOG_* macros declare one
/// static instance per site. Approximate and lock-free: a window race
/// can admit a handful of extra lines, never lose the suppressed count.
struct SiteState {
  std::atomic<std::uint64_t> window_start_ns{0};
  std::atomic<std::uint32_t> in_window{0};
  std::atomic<std::uint64_t> suppressed{0};
};

namespace detail {
/// The level gate lives at namespace scope (not inside the Logger
/// singleton) so a disarmed call site is one relaxed load + untaken
/// branch — no magic-static init guard on the hot path.
inline std::atomic<std::uint8_t> g_level{
    static_cast<std::uint8_t>(Level::kWarn)};
}  // namespace detail

/// True when a message at level `l` passes the process-wide gate.
[[nodiscard]] inline bool level_enabled(Level l) noexcept {
  return static_cast<std::uint8_t>(l) >=
         detail::g_level.load(std::memory_order_relaxed);
}

class Logger {
 public:
  enum class Format : std::uint8_t { kLogfmt, kJson };

  /// Lines one site may emit per second before suppression kicks in.
  static constexpr std::uint32_t kSiteBudget = 16;

  static Logger& global() {
    static Logger logger;
    return logger;
  }

  /// The level gate every site checks (relaxed — same discipline as
  /// Tracer::armed()). Default kWarn: library users see problems, not
  /// chatter; `mpcbfd serve` lowers it from --log-level.
  [[nodiscard]] bool enabled(Level l) const noexcept {
    return level_enabled(l);
  }
  [[nodiscard]] Level level() const noexcept {
    return static_cast<Level>(
        detail::g_level.load(std::memory_order_relaxed));
  }
  void set_level(Level l) noexcept {
    detail::g_level.store(static_cast<std::uint8_t>(l),
                          std::memory_order_relaxed);
  }

  void set_format(Format f) noexcept {
    format_.store(static_cast<std::uint8_t>(f),
                  std::memory_order_relaxed);
  }
  [[nodiscard]] Format format() const noexcept {
    return static_cast<Format>(format_.load(std::memory_order_relaxed));
  }

  /// Redirects output to `path` (append mode). Returns false and keeps
  /// the current sink when the file cannot be opened.
  bool open_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "ae");
    if (f == nullptr) f = std::fopen(path.c_str(), "a");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    if (file_ != nullptr && file_ != stderr) std::fclose(file_);
    file_ = f;
    return true;
  }

  /// Test hook: capture formatted lines instead of writing to the file
  /// sink. Pass nullptr to restore the file sink.
  void set_sink(std::function<void(std::string_view)> sink) {
    std::lock_guard<std::mutex> lock(mu_);
    sink_ = std::move(sink);
  }

  /// Lines actually written (post rate limiting) / suppressed by rate
  /// limiting, process-wide.
  [[nodiscard]] std::uint64_t lines_written() const noexcept {
    return written_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t lines_suppressed() const noexcept {
    return total_suppressed_.load(std::memory_order_relaxed);
  }

  /// Formats and writes one line. Call through the MPCBF_LOG_* macros,
  /// which gate on enabled() and supply the per-site state; a null
  /// `site` skips rate limiting (tests, one-shot startup lines).
  void log(Level lvl, const char* event,
           std::initializer_list<Field> fields, SiteState* site) {
    std::uint64_t suppressed = 0;
    if (site != nullptr && !admit(*site, suppressed)) return;
    std::string line;
    line.reserve(160);
    if (format() == Format::kJson) {
      format_json(line, lvl, event, fields, suppressed);
    } else {
      format_logfmt(line, lvl, event, fields, suppressed);
    }
    line.push_back('\n');
    written_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (sink_) {
      sink_(line);
      return;
    }
    std::FILE* f = file_ != nullptr ? file_ : stderr;
    std::fwrite(line.data(), 1, line.size(), f);
    std::fflush(f);
  }

 private:
  Logger() = default;

  /// One-second fixed windows of kSiteBudget lines. On window roll the
  /// roller claims the accumulated suppressed count and reports it on
  /// its own (admitted) line.
  bool admit(SiteState& site, std::uint64_t& suppressed) {
    const std::uint64_t now = metrics::now_ns();
    std::uint64_t start = site.window_start_ns.load(std::memory_order_relaxed);
    if (start == 0 || now - start >= 1'000'000'000ull) {
      if (site.window_start_ns.compare_exchange_strong(
              start, now, std::memory_order_relaxed)) {
        site.in_window.store(1, std::memory_order_relaxed);
        suppressed = site.suppressed.exchange(0, std::memory_order_relaxed);
        return true;
      }
      // Another thread rolled the window; fall through and count
      // ourselves against the fresh budget.
    }
    if (site.in_window.fetch_add(1, std::memory_order_relaxed) + 1 <=
        kSiteBudget) {
      return true;
    }
    site.suppressed.fetch_add(1, std::memory_order_relaxed);
    total_suppressed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// `ts=2026-01-01T00:00:00.123Z` — wall clock, UTC, millisecond
  /// resolution. The steady clock runs the rate limiter; the wall clock
  /// is what an operator greps against other systems' logs.
  static void append_timestamp(std::string& out) {
    std::timespec ts{};
    std::timespec_get(&ts, TIME_UTC);
    std::tm tm{};
    gmtime_r(&ts.tv_sec, &tm);
    char buf[40];
    const std::size_t n =
        std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%S", &tm);
    out.append(buf, n);
    std::snprintf(buf, sizeof buf, ".%03ldZ", ts.tv_nsec / 1'000'000);
    out.append(buf);
  }

  static void append_double(std::string& out, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    out.append(buf);
  }

  static void append_value(std::string& out, const Field& f) {
    char buf[24];
    switch (f.kind) {
      case Field::Kind::kU64:
        out.append(buf, static_cast<std::size_t>(std::snprintf(
                            buf, sizeof buf, "%llu",
                            static_cast<unsigned long long>(f.u))));
        break;
      case Field::Kind::kI64:
        out.append(buf, static_cast<std::size_t>(std::snprintf(
                            buf, sizeof buf, "%lld",
                            static_cast<long long>(f.i))));
        break;
      case Field::Kind::kF64:
        append_double(out, f.d);
        break;
      case Field::Kind::kBool:
        out.append(f.u != 0 ? "true" : "false");
        break;
      case Field::Kind::kHex:
        out.append(format_hex16(f.u));
        break;
      case Field::Kind::kStr:
        break;  // handled by the caller (quoting differs per format)
    }
  }

  /// logfmt value quoting: bare when the value is plain, double-quoted
  /// with backslash escapes otherwise.
  static void append_logfmt_str(std::string& out, std::string_view v) {
    bool plain = !v.empty();
    for (const char ch : v) {
      if (ch == ' ' || ch == '"' || ch == '=' || ch == '\\' ||
          ch == '\n' || ch == '\r' || ch == '\t') {
        plain = false;
        break;
      }
    }
    if (plain) {
      out.append(v);
      return;
    }
    out.push_back('"');
    for (const char ch : v) {
      switch (ch) {
        case '"': out.append("\\\""); break;
        case '\\': out.append("\\\\"); break;
        case '\n': out.append("\\n"); break;
        case '\r': out.append("\\r"); break;
        case '\t': out.append("\\t"); break;
        default: out.push_back(ch);
      }
    }
    out.push_back('"');
  }

  void format_logfmt(std::string& out, Level lvl, const char* event,
                     std::initializer_list<Field> fields,
                     std::uint64_t suppressed) {
    out.append("ts=");
    append_timestamp(out);
    out.append(" level=");
    out.append(to_string(lvl));
    out.append(" event=");
    append_logfmt_str(out, event);
    for (const Field& f : fields) {
      out.push_back(' ');
      out.append(f.key);
      out.push_back('=');
      if (f.kind == Field::Kind::kStr) {
        append_logfmt_str(out, f.s);
      } else {
        append_value(out, f);
      }
    }
    if (suppressed != 0) {
      out.append(" suppressed=");
      Field f = u64("suppressed", suppressed);
      append_value(out, f);
    }
  }

  void format_json(std::string& out, Level lvl, const char* event,
                   std::initializer_list<Field> fields,
                   std::uint64_t suppressed) {
    out.append("{\"ts\":\"");
    append_timestamp(out);
    out.append("\",\"level\":\"");
    out.append(to_string(lvl));
    out.append("\",\"event\":");
    append_json_string(out, event);
    for (const Field& f : fields) {
      out.push_back(',');
      append_json_string(out, f.key);
      out.push_back(':');
      switch (f.kind) {
        case Field::Kind::kStr:
          append_json_string(out, f.s);
          break;
        case Field::Kind::kHex: {
          out.push_back('"');
          out.append(format_hex16(f.u));
          out.push_back('"');
          break;
        }
        default:
          append_value(out, f);
      }
    }
    if (suppressed != 0) {
      out.append(",\"suppressed\":");
      Field f = u64("suppressed", suppressed);
      append_value(out, f);
    }
    out.push_back('}');
  }

  std::atomic<std::uint8_t> format_{
      static_cast<std::uint8_t>(Format::kLogfmt)};
  mutable std::mutex mu_;  // serializes sink writes (one line at a time)
  std::FILE* file_ = nullptr;  // nullptr = stderr
  std::function<void(std::string_view)> sink_;
  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> total_suppressed_{0};
};

}  // namespace mpcbf::log

// --- call-site macros ------------------------------------------------------
//
// MPCBF_LOG_INFO("server.start", mpcbf::log::u64("port", port), ...);
//
// `event` and field keys must be string literals (static storage). Each
// expansion owns a static SiteState, so rate limiting is per source
// location. Below the level gate a site costs one relaxed load and an
// untaken branch, and its arguments are not evaluated.
#define MPCBF_LOG_IMPL(level, event, ...)                               \
  do {                                                                  \
    if (::mpcbf::log::level_enabled(::mpcbf::log::Level::level))        \
        [[unlikely]] {                                                  \
      static ::mpcbf::log::SiteState mpcbf_log_site_state;              \
      ::mpcbf::log::Logger::global().log(::mpcbf::log::Level::level,    \
                                         event, {__VA_ARGS__},          \
                                         &mpcbf_log_site_state);        \
    }                                                                   \
  } while (false)

#define MPCBF_LOG_DEBUG(...) MPCBF_LOG_IMPL(kDebug, __VA_ARGS__)
#define MPCBF_LOG_INFO(...) MPCBF_LOG_IMPL(kInfo, __VA_ARGS__)
#define MPCBF_LOG_WARN(...) MPCBF_LOG_IMPL(kWarn, __VA_ARGS__)
#define MPCBF_LOG_ERROR(...) MPCBF_LOG_IMPL(kError, __VA_ARGS__)
