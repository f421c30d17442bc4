// Thin POSIX TCP helpers shared by the server and client: an RAII fd
// wrapper plus listen/connect/read/write wrappers with EINTR handling.
// Everything network-y that touches an errno lives here so server.cpp
// and client.cpp stay protocol logic.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

namespace mpcbf::net {

/// Network-layer failure (connect/bind/IO); `what()` carries the syscall
/// and errno text.
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Move-only RAII owner of a socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Binds and listens on `host:port` (port 0 = kernel-assigned ephemeral;
/// read it back with local_port). Sets SO_REUSEADDR. Throws NetError.
[[nodiscard]] Socket listen_tcp(const std::string& host,
                                std::uint16_t port, int backlog = 128);

/// The locally bound port of a listening/connected socket.
[[nodiscard]] std::uint16_t local_port(int fd);

/// The connected peer as a packed IPv4 id (`ip << 16 | port`), the
/// compact form the slow-request ring stores; 0 when unavailable.
/// Render with format_peer (net/slow_ring.hpp).
[[nodiscard]] std::uint64_t peer_id(int fd) noexcept;

/// One blocking connect attempt with send/receive timeouts applied to
/// the resulting socket. Throws NetError on failure.
[[nodiscard]] Socket connect_tcp(const std::string& host,
                                 std::uint16_t port,
                                 std::chrono::milliseconds io_timeout);

/// Accepts one pending connection on a nonblocking listener. The socket
/// comes back nonblocking, close-on-exec and with TCP_NODELAY set; it is
/// invalid when no connection is pending (or accept failed transiently),
/// so callers loop until then.
[[nodiscard]] Socket accept_tcp(const Socket& listener);

void set_nonblocking(int fd, bool enable);

/// read(2) retrying EINTR. Returns bytes read (0 = EOF), -1 with errno
/// EAGAIN/EWOULDBLOCK preserved for nonblocking callers; throws NetError
/// on hard errors.
std::ptrdiff_t read_some(int fd, void* buf, std::size_t len);

/// How read_available stopped.
enum class ReadStatus {
  kDrained,  ///< the socket has nothing more for now
  kEof,      ///< the peer closed its write half (or reset)
  kFull,     ///< `buf` cannot take another chunk; nothing more was read
};

/// Appends everything a nonblocking `fd` has ready to `buf`, reading
/// until EAGAIN or EOF, one read(2) of at most `chunk.size()` bytes at a
/// time into `chunk`, so `buf` grows only by the bytes that arrived.
/// Before each read, stops with kFull when `buf.size() + chunk.size() >
/// cap`. Throws NetError on hard errors.
ReadStatus read_available(int fd, std::string& buf, std::span<char> chunk,
                          std::size_t cap);

/// write(2) retrying EINTR; same contract as read_some.
std::ptrdiff_t write_some(int fd, const void* buf, std::size_t len);

/// Blocking write of the whole buffer (client side). Throws NetError on
/// error or timeout (EAGAIN from SO_SNDTIMEO).
void write_all(int fd, const void* buf, std::size_t len);

}  // namespace mpcbf::net
