// Serve transport endpoints: one spec string covers both supported
// transports, so every binary (server, loadgen, tests) takes the same flag.
//
//   "unix:/tmp/flashgen.sock"  - AF_UNIX stream socket at that path
//   "/tmp/flashgen.sock"       - bare paths mean unix too (back-compat)
//   "tcp:127.0.0.1:7070"       - TCP over the given host:port
//   "tcp::7070"                - TCP on all interfaces
//   "tcp:127.0.0.1:0"          - TCP on an OS-assigned port (tests; read it
//                                back with bound_port())
//
// listen_endpoint/accept_endpoint/connect_endpoint own the
// transport-specific setup: SO_REUSEADDR for TCP listeners, TCP_NODELAY on
// both ends of a TCP connection (small request/response frames would
// otherwise stall on Nagle/delayed-ACK interaction), stale-socket unlink for
// unix.
#pragma once

#include <cstdint>
#include <string>

namespace flashgen::serve {

struct Endpoint {
  enum class Kind { kUnix, kTcp };

  Kind kind = Kind::kUnix;
  std::string path;  // unix socket path (kUnix)
  std::string host;  // empty = all interfaces (kTcp)
  std::uint16_t port = 0;  // 0 = OS-assigned (kTcp)
};

/// Parses an endpoint spec (see header comment). Throws flashgen::Error on a
/// malformed spec.
Endpoint parse_endpoint(const std::string& spec);

/// Canonical spec string; parse_endpoint(to_string(e)) round-trips.
std::string to_string(const Endpoint& endpoint);

/// Creates, binds, and listens a socket for `endpoint` with the given
/// backlog (pass SOMAXCONN unless you are testing backlog behavior). For
/// unix endpoints any stale socket file is unlinked first. Returns the
/// listening fd (blocking; callers running an event loop mark it
/// non-blocking). Throws flashgen::Error on failure.
int listen_endpoint(const Endpoint& endpoint, int backlog);

/// Accepts one pending connection on `listen_fd` as a non-blocking,
/// close-on-exec socket, with TCP_NODELAY set when it is TCP. Returns the fd,
/// or -1 with errno set as accept4 left it (EAGAIN once a non-blocking
/// listener's backlog is drained).
int accept_endpoint(int listen_fd);

/// Connects a blocking client socket to `endpoint` (TCP_NODELAY set for
/// TCP). Throws flashgen::Error on failure.
int connect_endpoint(const Endpoint& endpoint);

/// The port a bound TCP socket actually landed on (resolves port 0).
std::uint16_t bound_port(int fd);

}  // namespace flashgen::serve
