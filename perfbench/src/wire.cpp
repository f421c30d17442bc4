#include "wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace pb {

namespace {

int connect_fd(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

Conn::Conn(std::uint16_t port) : fd_(connect_fd(port)) {
  if (fd_ < 0) {
    throw std::runtime_error("cannot connect to port " + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::flush() {
  if (wbuf_.empty()) return false;
  const std::string& bytes = wbuf_;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      pollfd p{fd_, POLLOUT, 0};
      ::poll(&p, 1, 1000);
    } else {
      throw std::runtime_error(std::string("send failed: ") +
                               std::strerror(errno));
    }
  }
  bytes_sent += bytes.size();
  wbuf_.clear();
  return true;
}

bool Conn::read_some() {
  if (rpos_ > 0) {
    rbuf_.erase(0, rpos_);
    rpos_ = 0;
  }
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      rbuf_.append(buf, static_cast<std::size_t>(n));
      bytes_recv += static_cast<std::uint64_t>(n);
      if (static_cast<std::size_t>(n) < sizeof buf) return true;
    } else if (n == 0) {
      return false;
    } else if (errno == EAGAIN) {
      return true;
    } else if (errno != EINTR) {
      return false;
    }
  }
}

bool Conn::next_frame(net::Frame& out) {
  const auto r =
      net::decode_frame(std::string_view(rbuf_).substr(rpos_));
  if (r.status == net::DecodeStatus::kNeedMore) return false;
  if (r.status == net::DecodeStatus::kError) {
    throw std::runtime_error(std::string("reply framing error: ") + r.error);
  }
  out = r.frame;
  rpos_ += r.consumed;
  return true;
}

bool port_accepts(std::uint16_t port) {
  const int fd = connect_fd(port);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = connect_fd(port);
  if (fd < 0) throw std::runtime_error("admin port refused");
  const std::string req =
      "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n =
        ::send(fd, req.data() + off, req.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      throw std::runtime_error("admin request failed");
    }
    off += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      resp.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fd);
  const auto body = resp.find("\r\n\r\n");
  if (resp.rfind("HTTP/1.1 200", 0) != 0 || body == std::string::npos) {
    throw std::runtime_error("admin GET " + path + " failed");
  }
  return resp.substr(body + 4);
}

}  // namespace pb
