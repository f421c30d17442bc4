#include "server_proc.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "common.hpp"
#include "wire.hpp"

extern char** environ;

namespace pb {

namespace {

constexpr double kStartTimeoutS = 60;

void nap() {
  const timespec ts{0, 200'000};  // 0.2 ms
  ::nanosleep(&ts, nullptr);
}

}  // namespace

ServerProc::ServerProc(std::string tool, std::vector<std::string> args,
                       std::string run_dir, const cpu_set_t& server_cpus)
    : tool_(std::move(tool)),
      args_(std::move(args)),
      run_dir_(std::move(run_dir)),
      port_file_(run_dir_ + "/server.port"),
      admin_file_(run_dir_ + "/server.admin_port"),
      server_cpus_(server_cpus) {}

bool pin_split(cpu_set_t& server_cpus) {
  cpu_set_t all;
  if (::sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 2) {
    return false;
  }
  int first = 0;
  while (!CPU_ISSET(first, &all)) ++first;
  server_cpus = all;
  CPU_CLR(first, &server_cpus);
  cpu_set_t mine;
  CPU_ZERO(&mine);
  CPU_SET(first, &mine);
  return ::sched_setaffinity(0, sizeof mine, &mine) == 0;
}

ServerProc::~ServerProc() {
  if (pid_ > 0) kill9();
}

std::uint16_t ServerProc::start() {
  if (pid_ > 0) throw std::logic_error("server already running");
  std::remove(port_file_.c_str());
  std::remove(admin_file_.c_str());
  std::vector<std::string> argv = {tool_, "serve"};
  argv.insert(argv.end(), args_.begin(), args_.end());
  argv.insert(argv.end(),
              {"--port", "0", "--port-file", port_file_, "--admin-port", "0",
               "--admin-port-file", admin_file_, "--workers", "2",
               "--log-level", "warn"});
  std::vector<char*> cargv;
  for (auto& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);

  const std::string log =
      run_dir_ + "/server-" + std::to_string(starts_++) + ".log";
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  // The child inherits the server CPUs; this thread keeps its own.
  cpu_set_t own;
  const bool pinned = ::sched_getaffinity(0, sizeof own, &own) == 0 &&
                      ::sched_setaffinity(0, sizeof server_cpus_,
                                          &server_cpus_) == 0;
  const int rc = posix_spawn(&pid_, tool_.c_str(), &fa, nullptr,
                             cargv.data(), environ);
  if (pinned) ::sched_setaffinity(0, sizeof own, &own);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + tool_);
  }
  const std::uint16_t port = wait_port_file(port_file_);
  while (!port_accepts(port)) nap();
  return port;
}

std::uint16_t ServerProc::admin_port() { return wait_port_file(admin_file_); }

std::uint16_t ServerProc::wait_port_file(const std::string& path) {
  const std::int64_t t0 = now_ns();
  for (;;) {
    std::ifstream is(path);
    std::string line;
    // The file is complete once its trailing newline is there.
    if (std::getline(is, line) && !is.eof() && !line.empty()) {
      return static_cast<std::uint16_t>(std::stoul(line));
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("server exited during start-up (see " +
                               run_dir_ + "/server-*.log)");
    }
    if (seconds_since(t0) > kStartTimeoutS) {
      throw std::runtime_error("server did not publish " + path);
    }
    nap();
  }
}

std::map<pid_t, std::uint64_t> ServerProc::thread_times() const {
  std::map<pid_t, std::uint64_t> t;
  if (pid_ <= 0) return t;
  const std::string task = "/proc/" + std::to_string(pid_) + "/task";
  for (const auto& e : std::filesystem::directory_iterator(task)) {
    // The first field of schedstat is the time spent on a CPU, in ns.
    std::ifstream is(e.path() / "schedstat");
    std::uint64_t ns = 0;
    if (is >> ns) t[std::stoi(e.path().filename().string())] = ns;
  }
  return t;
}

bool ServerProc::pin_workers(const std::map<pid_t, std::uint64_t>& before) {
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &server_cpus_)) cpus.push_back(c);
  }
  if (cpus.size() < 3 || pid_ <= 0) return false;
  // (CPU time since `before`, tid), busiest first.
  std::vector<std::pair<std::uint64_t, pid_t>> threads;
  for (const auto& [tid, ns] : thread_times()) {
    const auto it = before.find(tid);
    threads.emplace_back(ns - (it == before.end() ? 0 : it->second), tid);
  }
  if (threads.size() < 2) return false;
  std::sort(threads.rbegin(), threads.rend());
  cpu_set_t rest;
  CPU_ZERO(&rest);
  for (std::size_t c = 2; c < cpus.size(); ++c) CPU_SET(cpus[c], &rest);
  for (std::size_t i = 0; i < threads.size(); ++i) {
    cpu_set_t set = rest;
    if (i < 2) {
      CPU_ZERO(&set);
      CPU_SET(cpus[i], &set);
    }
    if (::sched_setaffinity(threads[i].second, sizeof set, &set) != 0) {
      return false;
    }
  }
  return true;
}

void ServerProc::kill9() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

bool ServerProc::stop() {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace pb
