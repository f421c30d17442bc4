// Machine-readable benchmark telemetry: every harness writes a
// results/json/BENCH_<name>.json next to its human-readable output, so
// the repo accumulates a perf trajectory that scripts/bench_compare.py
// can regression-gate.
//
// The report is deliberately schema-light: a flat `config` object (the
// harness's knobs), a flat `metrics` object (scalar results such as
// ns/op — the series bench_compare.py keys on), a `units` object naming
// each metric's unit (bench_compare.py gates by it), and `tables` (each
// util::Table dumped as an array of header-keyed row objects, numeric
// cells emitted as JSON numbers). Environment metadata — git sha, peak
// RSS, wall-clock — is captured automatically at write() time.
//
// Output directory: $MPCBF_JSON_DIR when set, else the directory of the
// running executable, so a bench run from a checkout never rewrites its
// committed results/json/. scripts/run_all.sh and CI set the variable.
#pragma once

#include <sys/resource.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"

namespace mpcbf::bench {

namespace detail {

inline void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// True when the whole cell parses as a finite JSON-representable
/// number (so table cells like "0.0031" round-trip as numbers).
inline bool is_json_number(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  (void)v;
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  // JSON has no inf/nan literals.
  return s.find_first_not_of("+-0123456789.eE") == std::string::npos;
}

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan literals
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string current_git_sha() {
  if (const char* env = std::getenv("MPCBF_GIT_SHA"); env != nullptr) {
    return env;
  }
  std::string sha;
  if (FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) sha = buf;
    ::pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

inline std::uint64_t peak_rss_bytes() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  // Linux reports ru_maxrss in KiB.
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

}  // namespace detail

class JsonReport {
 public:
  explicit JsonReport(std::string bench_name)
      : name_(std::move(bench_name)) {}

  /// Harness knobs (string form).
  void config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, quote(value));
  }
  void config(const std::string& key, const char* value) {
    config(key, std::string(value));
  }
  void config(const std::string& key, double value) {
    config_.emplace_back(key, detail::json_number(value));
  }
  void config(const std::string& key, bool value) {
    config_.emplace_back(key, value ? "true" : "false");
  }
  template <typename T>
    requires std::is_integral_v<T>
  void config(const std::string& key, T value) {
    config_.emplace_back(key, std::to_string(value));
  }

  /// Scalar result series in `unit` ("ns", "qps", "us", "x", "ratio",
  /// ...). bench_compare.py regression-gates the "ns" and "qps" series.
  void metric(const std::string& name, double value,
              const std::string& unit) {
    metrics_.emplace_back(name, value);
    units_.emplace_back(name, quote(unit));
  }

  /// Dumps a results table as `tables.<name>` (array of row objects).
  void add_table(const std::string& table_name, const util::Table& t) {
    std::string json = "[";
    const auto& headers = t.headers();
    bool first_row = true;
    for (const auto& row : t.rows()) {
      if (!first_row) json += ",";
      first_row = false;
      json += "\n      {";
      for (std::size_t c = 0; c < row.size() && c < headers.size(); ++c) {
        if (c != 0) json += ",";
        json += quote(headers[c]);
        json += ":";
        json += detail::is_json_number(row[c]) ? row[c] : quote(row[c]);
      }
      json += "}";
    }
    json += "\n    ]";
    tables_.emplace_back(table_name, std::move(json));
  }

  /// Writes BENCH_<name>.json into $MPCBF_JSON_DIR, else beside the
  /// executable; creates the directory, returns false (and warns on
  /// stderr) on I/O failure — a bench must not abort because telemetry
  /// could not be written.
  bool write() const {
    namespace fs = std::filesystem;
    std::error_code ec;
    const char* env_dir = std::getenv("MPCBF_JSON_DIR");
    const fs::path dir =
        env_dir != nullptr
            ? fs::path(env_dir)
            : fs::read_symlink("/proc/self/exe", ec).parent_path();
    fs::create_directories(dir, ec);
    const fs::path path = dir / ("BENCH_" + name_ + ".json");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "[bench_json] cannot write %s\n",
                   path.string().c_str());
      return false;
    }
    out << "{\n";
    out << "  \"bench\": " << quote(name_) << ",\n";
    out << "  \"git_sha\": " << quote(detail::current_git_sha()) << ",\n";
    out << "  \"timestamp_unix\": " << std::time(nullptr) << ",\n";
    out << "  \"peak_rss_bytes\": " << detail::peak_rss_bytes() << ",\n";
    out << "  \"config\": {";
    emit_pairs(out, config_);
    out << "},\n";
    out << "  \"metrics\": {";
    std::vector<std::pair<std::string, std::string>> metric_pairs;
    metric_pairs.reserve(metrics_.size());
    for (const auto& [k, v] : metrics_) {
      metric_pairs.emplace_back(k, detail::json_number(v));
    }
    emit_pairs(out, metric_pairs);
    out << "},\n";
    out << "  \"units\": {";
    emit_pairs(out, units_);
    out << "},\n";
    out << "  \"tables\": {";
    bool first = true;
    for (const auto& [k, v] : tables_) {
      if (!first) out << ",";
      first = false;
      out << "\n    " << quote(k) << ": " << v;
    }
    if (!tables_.empty()) out << "\n  ";
    out << "}\n";
    out << "}\n";
    out.flush();
    if (!out) {
      std::fprintf(stderr, "[bench_json] write failed for %s\n",
                   path.string().c_str());
      return false;
    }
    std::printf("[json written to %s]\n", path.string().c_str());
    return true;
  }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    detail::append_json_escaped(out, s);
    out += "\"";
    return out;
  }

  static void emit_pairs(
      std::ostream& out,
      const std::vector<std::pair<std::string, std::string>>& pairs) {
    bool first = true;
    for (const auto& [k, v] : pairs) {
      if (!first) out << ",";
      first = false;
      out << "\n    " << quote(k) << ": " << v;
    }
    if (!pairs.empty()) out << "\n  ";
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> units_;
  std::vector<std::pair<std::string, std::string>> tables_;
};

}  // namespace mpcbf::bench
