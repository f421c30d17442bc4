// Loopback client plumbing for the served workloads: a non-blocking TCP
// connection that frames requests and decodes replies with the
// repository's own protocol codec, plus a one-shot HTTP GET for /metrics.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "net/protocol.hpp"

namespace pb {

class Conn {
 public:
  explicit Conn(std::uint16_t port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  /// Appends a frame to the output buffer; flush() writes it.
  void queue(const std::string& bytes) { wbuf_ += bytes; }
  /// Writes all queued bytes in one send where the socket allows,
  /// waiting for socket space if needed. Returns false if none queued.
  bool flush();
  /// Reads what is available. False on EOF or a socket error. Invalidates
  /// payload views of frames returned earlier.
  bool read_some();
  /// Pops one reply frame if a whole one is buffered; throws on a framing
  /// error (bad magic, CRC, size).
  bool next_frame(net::Frame& out);

  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;

 private:
  int fd_ = -1;
  std::string wbuf_;
  std::string rbuf_;
  std::size_t rpos_ = 0;
};

/// True if a TCP connection to 127.0.0.1:port is accepted.
bool port_accepts(std::uint16_t port);

/// GET `path` from 127.0.0.1:port over HTTP/1.0; returns the body.
std::string http_get(std::uint16_t port, const std::string& path);

}  // namespace pb
