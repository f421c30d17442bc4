#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>

namespace mpcbf::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw NetError(std::string(what) + ": " + std::strerror(errno));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw NetError("inet_pton: invalid IPv4 address '" + host + "'");
  }
  return addr;
}

void apply_timeout(int fd, std::chrono::milliseconds timeout) {
  if (timeout.count() <= 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

}  // namespace

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket listen_tcp(const std::string& host, std::uint16_t port,
                  int backlog) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throw_errno("socket");
  const int one = 1;
  (void)::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
  const sockaddr_in addr = make_addr(host, port);
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    throw_errno("bind");
  }
  if (::listen(sock.fd(), backlog) != 0) throw_errno("listen");
  return sock;
}

std::uint64_t peer_id(int fd) noexcept {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      addr.sin_family != AF_INET) {
    return 0;
  }
  return (static_cast<std::uint64_t>(ntohl(addr.sin_addr.s_addr)) << 16) |
         ntohs(addr.sin_port);
}

std::string format_peer(std::uint64_t peer) {
  if (peer == 0) return "-";
  const auto ip = static_cast<std::uint32_t>(peer >> 16);
  std::string out;
  char buf[8];
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.append(buf, std::to_chars(buf, buf + sizeof buf,
                                  (ip >> shift) & 0xFF).ptr);
    out.push_back(shift != 0 ? '.' : ':');
  }
  out.append(buf, std::to_chars(buf, buf + sizeof buf, peer & 0xFFFF).ptr);
  return out;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

Socket connect_tcp(const std::string& host, std::uint16_t port,
                   std::chrono::milliseconds io_timeout) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throw_errno("socket");
  apply_timeout(sock.fd(), io_timeout);
  const sockaddr_in addr = make_addr(host, port);
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    throw_errno("connect");
  }
  // Request/response round trips are latency-bound; never Nagle-delay a
  // small batched request behind an unacked previous one.
  const int one = 1;
  (void)::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof one);
  return sock;
}

Socket accept_tcp(const Socket& listener) {
  Socket sock(::accept4(listener.fd(), nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC));
  if (!sock.valid()) return sock;
  // Request/response round trips are latency-bound; never Nagle-delay a
  // small batched reply behind an unacked previous one.
  const int one = 1;
  (void)::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof one);
  return sock;
}

void set_nonblocking(int fd, bool enable) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int want = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, want) < 0) throw_errno("fcntl(F_SETFL)");
}

std::ptrdiff_t read_some(int fd, void* buf, std::size_t len) {
  for (;;) {
    const ssize_t n = ::read(fd, buf, len);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    if (errno == ECONNRESET) return 0;  // peer reset == stream over
    throw_errno("read");
  }
}

ReadStatus read_available(int fd, std::string& buf, std::span<char> chunk,
                          std::size_t cap) {
  for (;;) {
    if (buf.size() + chunk.size() > cap) return ReadStatus::kFull;
    const std::ptrdiff_t n = read_some(fd, chunk.data(), chunk.size());
    if (n == 0) return ReadStatus::kEof;
    if (n < 0) return ReadStatus::kDrained;  // EAGAIN
    buf.append(chunk.data(), static_cast<std::size_t>(n));
  }
}

std::ptrdiff_t write_some(int fd, const void* buf, std::size_t len) {
  for (;;) {
    const ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    if (errno == EPIPE || errno == ECONNRESET) {
      throw NetError("write: connection closed by peer");
    }
    throw_errno("write");
  }
}

void write_all(int fd, const void* buf, std::size_t len) {
  const char* p = static_cast<const char*>(buf);
  while (len > 0) {
    const std::ptrdiff_t n = write_some(fd, p, len);
    if (n < 0) throw NetError("write: timed out");
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

}  // namespace mpcbf::net
