#include "dist/proto.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "exp/checkpoint.h"
#include "util/assert.h"

namespace hyco::dist {

namespace {

/// Parses one unsigned decimal token; false on anything else.
bool eat_u64(std::istringstream& in, std::uint64_t& out) {
  std::string tok;
  if (!(in >> tok) || tok.empty()) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(tok.c_str(), &end, 10);
  return errno == 0 && end != tok.c_str() && *end == '\0';
}

bool expect_keyword(std::istringstream& in, const char* want) {
  std::string kw;
  return (in >> kw) && kw == want;
}

}  // namespace

std::string encode_hello(const HelloMsg& m) {
  std::ostringstream os;
  os << "hello " << m.version << ' ' << m.fingerprint << ' ' << m.cells
     << ' ' << m.reconnect << '\n';
  return os.str();
}

bool decode_hello(const std::string& payload, HelloMsg& out) {
  std::istringstream is(payload);
  std::uint64_t version = 0;
  if (!expect_keyword(is, "hello") || !eat_u64(is, version) ||
      !eat_u64(is, out.fingerprint) || !eat_u64(is, out.cells) ||
      !eat_u64(is, out.reconnect)) {
    return false;
  }
  out.version = static_cast<std::uint32_t>(version);
  return true;
}

std::string encode_lease(const LeaseMsg& m) {
  std::ostringstream os;
  os << "lease " << m.cell_index << ' ' << m.begin << ' ' << m.end << '\n';
  return os.str();
}

bool decode_lease(const std::string& payload, LeaseMsg& out) {
  std::istringstream is(payload);
  return expect_keyword(is, "lease") && eat_u64(is, out.cell_index) &&
         eat_u64(is, out.begin) && eat_u64(is, out.end) &&
         out.begin < out.end;
}

std::string encode_wait(std::uint32_t millis) {
  std::ostringstream os;
  os << "wait " << millis << '\n';
  return os.str();
}

bool decode_wait(const std::string& payload, std::uint32_t& millis) {
  std::istringstream is(payload);
  std::uint64_t ms = 0;
  if (!expect_keyword(is, "wait") || !eat_u64(is, ms) || ms > 3'600'000) {
    return false;
  }
  millis = static_cast<std::uint32_t>(ms);
  return true;
}

std::string encode_reject(const std::string& reason) {
  return "reject " + reason + "\n";
}

std::string encode_result(const ResultMsg& m) {
  std::ostringstream os;
  os << "result " << m.cell_index << ' ' << m.begin << ' ' << m.end << ' '
     << m.acc.runs << ' ' << m.acc.terminated << ' ' << m.acc.violations
     << '\n';
  write_accumulator_state(os, m.acc);
  return os.str();
}

bool decode_result(const std::string& payload, ResultMsg& out) {
  std::istringstream is(payload);
  std::string header;
  if (!std::getline(is, header)) return false;
  std::istringstream hs(header);
  std::uint64_t runs = 0, term = 0, viol = 0;
  if (!expect_keyword(hs, "result") || !eat_u64(hs, out.cell_index) ||
      !eat_u64(hs, out.begin) || !eat_u64(hs, out.end) ||
      !eat_u64(hs, runs) || !eat_u64(hs, term) || !eat_u64(hs, viol) ||
      out.begin >= out.end || runs != out.end - out.begin) {
    return false;
  }
  if (!read_accumulator_state(is, out.acc)) return false;
  out.acc.runs = runs;
  out.acc.terminated = term;
  out.acc.violations = viol;
  return true;
}

bool send_frame(int fd, MsgType type, const std::string& payload) {
  if (payload.size() >= kMaxFrameBytes) return false;
  std::string wire;
  wire.reserve(5 + payload.size());
  const auto len = static_cast<std::uint32_t>(payload.size() + 1);
  wire.push_back(static_cast<char>((len >> 24) & 0xFF));
  wire.push_back(static_cast<char>((len >> 16) & 0xFF));
  wire.push_back(static_cast<char>((len >> 8) & 0xFF));
  wire.push_back(static_cast<char>(len & 0xFF));
  wire.push_back(static_cast<char>(type));
  wire += payload;
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

namespace {

bool recv_exact(int fd, char* buf, std::size_t want) {
  std::size_t got = 0;
  while (got < want) {
    const ssize_t n = ::recv(fd, buf + got, want - got, 0);
    if (n == 0) return false;  // EOF
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool recv_frame(int fd, Frame& out) {
  char hdr[4];
  if (!recv_exact(fd, hdr, 4)) return false;
  const std::uint32_t len =
      (static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[0])) << 24) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[1])) << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[2])) << 8) |
      static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[3]));
  if (len == 0 || len > kMaxFrameBytes) return false;
  char type = 0;
  if (!recv_exact(fd, &type, 1)) return false;
  out.type = static_cast<MsgType>(type);
  out.payload.resize(len - 1);
  return len == 1 || recv_exact(fd, out.payload.data(), len - 1);
}

std::optional<Frame> FrameBuffer::next() {
  if (error_) return std::nullopt;
  // Reclaim consumed prefix lazily so repeated small frames don't memmove
  // the tail on every call.
  if (consumed_ > 0 && consumed_ * 2 >= buf_.size()) {
    buf_.erase(0, consumed_);
    consumed_ = 0;
  }
  const std::size_t avail = buf_.size() - consumed_;
  if (avail < 5) return std::nullopt;
  const char* p = buf_.data() + consumed_;
  const std::uint32_t len =
      (static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) << 24) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 8) |
      static_cast<std::uint32_t>(static_cast<unsigned char>(p[3]));
  if (len == 0 || len > kMaxFrameBytes) {
    error_ = true;
    return std::nullopt;
  }
  if (avail < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  Frame f;
  f.type = static_cast<MsgType>(p[4]);
  f.payload.assign(p + 5, len - 1);
  consumed_ += 4 + static_cast<std::size_t>(len);
  return f;
}

HostPort parse_host_port(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  HYCO_CHECK_MSG(colon != std::string::npos,
                 "--connect: \"" << text
                     << "\" is missing \":PORT\" (want HOST:PORT, e.g."
                        " 127.0.0.1:7600)");
  HostPort hp;
  hp.host = text.substr(0, colon);
  HYCO_CHECK_MSG(!hp.host.empty(),
                 "--connect: empty host in \"" << text
                     << "\" (want HOST:PORT, e.g. 127.0.0.1:7600)");
  const std::string port_s = text.substr(colon + 1);
  char* end = nullptr;
  const long long port = std::strtoll(port_s.c_str(), &end, 10);
  HYCO_CHECK_MSG(!port_s.empty() && end != port_s.c_str() && *end == '\0',
                 "--connect: \"" << port_s << "\" is not a port number in \""
                                 << text << '"');
  hp.port = validate_port(port, "--connect");
  return hp;
}

std::uint16_t validate_port(long long value, const char* flag) {
  HYCO_CHECK_MSG(value >= 1 && value <= 65535,
                 flag << ": port must be in [1, 65535], got " << value);
  return static_cast<std::uint16_t>(value);
}

int listen_on(std::uint16_t port, std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  HYCO_CHECK_MSG(fd >= 0, "--serve: socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    HYCO_CHECK_MSG(false, "--serve: cannot bind port " << port << ": "
                          << std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    HYCO_CHECK_MSG(false, "--serve: listen() failed: " << std::strerror(err));
  }
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    HYCO_CHECK_MSG(
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0,
        "--serve: getsockname() failed: " << std::strerror(errno));
    *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

int connect_once(const HostPort& target) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  std::ostringstream port_s;
  port_s << target.port;
  if (::getaddrinfo(target.host.c_str(), port_s.str().c_str(), &hints,
                    &res) != 0 ||
      res == nullptr) {
    return -1;
  }
  const int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (fd < 0) {
    ::freeaddrinfo(res);
    return -1;
  }
  const int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace hyco::dist
