// A `mpcbf_tool serve` child process: spawned with its stdout/stderr in a
// log file under the run directory, readiness taken as "the data port
// accepts", and always reaped — killed on destruction if still running.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

/// Pins the calling thread (the load generator) to the first allowed CPU
/// and puts the remaining allowed CPUs in `server_cpus`, so load and
/// server never share a core. False (nothing pinned) on fewer than 2.
bool pin_split(cpu_set_t& server_cpus);

class ServerProc {
 public:
  /// `args` follow "serve"; port/admin-port files are added here.
  ServerProc(std::string tool, std::vector<std::string> args,
             std::string run_dir, const cpu_set_t& server_cpus);
  ~ServerProc();
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  /// Spawns the server and waits until its data port accepts.
  std::uint16_t start();
  /// Waits for the admin (HTTP) port; valid after start().
  std::uint16_t admin_port();
  /// CPU time (ns) each server thread has used so far, by thread id.
  [[nodiscard]] std::map<pid_t, std::uint64_t> thread_times() const;
  /// Pins the two threads that used the most CPU since `before` (the two
  /// workers, when each has just served a request) to one CPU of the
  /// server set each, and every other thread to the CPUs left. Left to
  /// itself the scheduler may stack both workers on one CPU. False
  /// (nothing pinned) on fewer than 3 CPUs.
  bool pin_workers(const std::map<pid_t, std::uint64_t>& before);
  /// SIGKILL and reap: an abrupt crash.
  void kill9();
  /// SIGTERM and reap; returns true on a clean exit 0.
  bool stop();
  [[nodiscard]] pid_t pid() const { return pid_; }

 private:
  std::uint16_t wait_port_file(const std::string& path);

  std::string tool_;
  std::vector<std::string> args_;
  std::string run_dir_;
  std::string port_file_;
  std::string admin_file_;
  cpu_set_t server_cpus_;
  pid_t pid_ = -1;
  int starts_ = 0;
};

}  // namespace pb
