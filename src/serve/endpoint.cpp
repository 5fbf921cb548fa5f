#include "serve/endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/error.h"

namespace flashgen::serve {

namespace {

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  FG_CHECK(path.size() < sizeof(addr.sun_path),
           "socket path too long (" << path.size() << " bytes): " << path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in tcp_address(const Endpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (endpoint.host.empty()) {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else {
    FG_CHECK(::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) == 1,
             "bad TCP host (want an IPv4 address): " << endpoint.host);
  }
  return addr;
}

void set_nodelay(int fd) {
  const int one = 1;
  // Best effort: not fatal if the kernel refuses, only slower.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Endpoint parse_endpoint(const std::string& spec) {
  FG_CHECK(!spec.empty(), "empty endpoint spec");
  Endpoint endpoint;
  if (spec.rfind("tcp:", 0) == 0) {
    endpoint.kind = Endpoint::Kind::kTcp;
    const std::string rest = spec.substr(4);
    const auto colon = rest.rfind(':');
    FG_CHECK(colon != std::string::npos, "bad TCP endpoint (want tcp:host:port): " << spec);
    endpoint.host = rest.substr(0, colon);
    const std::string port_str = rest.substr(colon + 1);
    FG_CHECK(!port_str.empty() && port_str.find_first_not_of("0123456789") == std::string::npos,
             "bad TCP port in endpoint: " << spec);
    const unsigned long port = std::strtoul(port_str.c_str(), nullptr, 10);
    FG_CHECK(port <= 65535, "TCP port out of range: " << spec);
    endpoint.port = static_cast<std::uint16_t>(port);
    return endpoint;
  }
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path = spec.rfind("unix:", 0) == 0 ? spec.substr(5) : spec;
  FG_CHECK(!endpoint.path.empty(), "empty unix socket path: " << spec);
  return endpoint;
}

std::string to_string(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::kUnix) return "unix:" + endpoint.path;
  return "tcp:" + endpoint.host + ":" + std::to_string(endpoint.port);
}

int listen_endpoint(const Endpoint& endpoint, int backlog) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    FG_CHECK(fd >= 0, "socket() failed: " << std::strerror(errno));
    ::unlink(endpoint.path.c_str());
    sockaddr_un addr = unix_address(endpoint.path);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd);
      FG_CHECK(false, "bind(" << endpoint.path << ") failed: " << std::strerror(err));
    }
    if (::listen(fd, backlog) != 0) {
      const int err = errno;
      ::close(fd);
      FG_CHECK(false, "listen(" << endpoint.path << ") failed: " << std::strerror(err));
    }
    return fd;
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  FG_CHECK(fd >= 0, "socket() failed: " << std::strerror(errno));
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = tcp_address(endpoint);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    FG_CHECK(false, "bind(" << to_string(endpoint) << ") failed: " << std::strerror(err));
  }
  if (::listen(fd, backlog) != 0) {
    const int err = errno;
    ::close(fd);
    FG_CHECK(false, "listen(" << to_string(endpoint) << ") failed: " << std::strerror(err));
  }
  return fd;
}

int accept_endpoint(int listen_fd) {
  sockaddr_storage peer{};
  socklen_t len = sizeof(peer);
  const int fd = ::accept4(listen_fd, reinterpret_cast<sockaddr*>(&peer), &len,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd >= 0 && peer.ss_family == AF_INET) set_nodelay(fd);
  return fd;
}

int connect_endpoint(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    FG_CHECK(fd >= 0, "socket() failed: " << std::strerror(errno));
    sockaddr_un addr = unix_address(endpoint.path);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd);
      FG_CHECK(false, "connect(" << endpoint.path << ") failed: " << std::strerror(err));
    }
    return fd;
  }

  Endpoint target = endpoint;
  if (target.host.empty()) target.host = "127.0.0.1";
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  FG_CHECK(fd >= 0, "socket() failed: " << std::strerror(errno));
  sockaddr_in addr = tcp_address(target);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    FG_CHECK(false, "connect(" << to_string(target) << ") failed: " << std::strerror(err));
  }
  set_nodelay(fd);
  return fd;
}

std::uint16_t bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  FG_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
           "getsockname() failed: " << std::strerror(errno));
  FG_CHECK(addr.sin_family == AF_INET, "bound_port: not a TCP socket");
  return ntohs(addr.sin_port);
}

}  // namespace flashgen::serve
