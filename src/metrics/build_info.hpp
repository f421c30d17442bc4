// Build identity and process uptime as metrics — the two series every
// fleet dashboard joins against: `mpcbf_build_info` (value 1, identity
// in the labels: version, git sha, which instrumentation twins were
// compiled in) and `mpcbf_server_uptime_seconds` (refreshed at scrape
// time, so a restart is visible as a sawtooth).
//
// Header-only; the git sha arrives as the MPCBF_GIT_SHA compile
// definition (src/CMakeLists.txt runs `git rev-parse`) and degrades to
// "unknown" in tarball builds.
#pragma once

#include <chrono>
#include <cstdint>

#include "metrics/registry.hpp"

namespace mpcbf::metrics {

inline constexpr const char* kBuildVersion = "0.8.0";

[[nodiscard]] inline const char* build_git_sha() noexcept {
#ifdef MPCBF_GIT_SHA
  return MPCBF_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Monotonic process uptime, anchored the first time anything asks.
[[nodiscard]] inline double process_uptime_seconds() noexcept {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Registers (idempotently) and refreshes the build/uptime series in
/// `reg`. Call before every exposition — /metrics, the STATS opcode and
/// the final `serve` dump all route through here so the three agree.
inline void publish_build_info(Registry& reg = Registry::global()) {
#ifdef MPCBF_DISABLE_ACCESS_STATS
  const char* stats = "off";
#else
  const char* stats = "on";
#endif
  reg.gauge("mpcbf_build_info",
            "Build identity; the value is always 1, the labels carry "
            "version, git sha and compiled-in instrumentation",
            {{"version", kBuildVersion},
             {"git_sha", build_git_sha()},
             {"stats", stats}})
      .set(1.0);
  reg.gauge("mpcbf_server_uptime_seconds",
            "Process uptime, refreshed at scrape time")
      .set(process_uptime_seconds());
}

}  // namespace mpcbf::metrics
