#include "net/socket_io.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>

namespace gdpr::net {

namespace {

constexpr std::string_view kUnixPrefix = "unix:";
constexpr std::string_view kTcpPrefix = "tcp:";

// Parses "unix:<path>" / "tcp:<host>:<port>" into *ss and opens a stream
// socket of that family with `flags`; -1 with *err set on failure.
int OpenSocket(const std::string& addr, int flags, sockaddr_storage* ss,
               socklen_t* len, std::string* err) {
  memset(ss, 0, sizeof(*ss));
  if (addr.rfind(kUnixPrefix, 0) == 0) {
    const std::string path = addr.substr(kUnixPrefix.size());
    auto* sa = reinterpret_cast<sockaddr_un*>(ss);
    if (path.empty() || path.size() >= sizeof(sa->sun_path)) {
      *err = "unix socket path empty or too long: " + path;
      return -1;
    }
    sa->sun_family = AF_UNIX;
    memcpy(sa->sun_path, path.data(), path.size());
    *len = sizeof(sockaddr_un);
  } else if (addr.rfind(kTcpPrefix, 0) == 0) {
    const std::string hostport = addr.substr(kTcpPrefix.size());
    const size_t colon = hostport.rfind(':');
    const std::string host = hostport.substr(0, colon);
    const int port =
        colon == std::string::npos ? 0 : atoi(hostport.c_str() + colon + 1);
    if (port <= 0 || port > 65535) {
      *err = "tcp address needs host:port, got: " + hostport;
      return -1;
    }
    auto* sa = reinterpret_cast<sockaddr_in*>(ss);
    sa->sin_family = AF_INET;
    sa->sin_port = htons(uint16_t(port));
    if (host.empty() || host == "0.0.0.0" || host == "*") {
      sa->sin_addr.s_addr = htonl(INADDR_ANY);
    } else if (host == "localhost") {
      sa->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    } else if (inet_pton(AF_INET, host.c_str(), &sa->sin_addr) != 1) {
      *err = "cannot parse tcp host: " + host;
      return -1;
    }
    *len = sizeof(sockaddr_in);
  } else {
    *err = "address must start with unix: or tcp:, got: " + addr;
    return -1;
  }
  const int fd = socket(ss->ss_family, SOCK_STREAM | flags, 0);
  if (fd < 0) *err = std::string("socket: ") + strerror(errno);
  return fd;
}

// Waits until fd is ready for `events`; Unavailable on timeout or a poll
// error. `what` names the stalled direction in the timeout message.
Status WaitFor(int fd, short events, int timeout_ms, const char* what) {
  pollfd p{fd, events, 0};
  int rc = 0;
  do {
    rc = poll(&p, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc > 0) return Status::OK();
  const std::string why = rc == 0 ? std::string(what) + " timed out"
                                  : std::string("poll: ") + strerror(errno);
  return Status::Unavailable("rpc " + why);
}

}  // namespace

int Listen(const std::string& addr, std::string* err) {
  sockaddr_storage ss;
  socklen_t len = 0;
  const int fd = OpenSocket(addr, SOCK_NONBLOCK, &ss, &len, err);
  if (fd < 0) return -1;
  if (ss.ss_family == AF_UNIX) {
    // A stale socket file from a dead server would fail the bind.
    unlink(reinterpret_cast<sockaddr_un*>(&ss)->sun_path);
  } else {
    const int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&ss), len) != 0 ||
      listen(fd, 64) != 0) {
    *err = std::string("bind/listen ") + addr + ": " + strerror(errno);
    close(fd);
    return -1;
  }
  return fd;
}

int Accept(int listen_fd) {
  return accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
}

int Dial(const std::string& addr, int timeout_ms, std::string* err) {
  sockaddr_storage ss;
  socklen_t len = 0;
  const int fd = OpenSocket(addr, 0, &ss, &len, err);
  if (fd < 0) return -1;
  auto* in = reinterpret_cast<sockaddr_in*>(&ss);
  if (ss.ss_family == AF_INET && in->sin_addr.s_addr == htonl(INADDR_ANY)) {
    in->sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // dial "any" = loopback
  }
  (void)timeout_ms;  // local connects complete synchronously or fail fast
  if (connect(fd, reinterpret_cast<sockaddr*>(&ss), len) != 0) {
    *err = std::string("connect ") + addr + ": " + strerror(errno);
    close(fd);
    return -1;
  }
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

std::pair<int, int> StreamPair() {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds) != 0) {
    return {-1, -1};
  }
  return {fds[0], fds[1]};
}

void CloseFd(int fd) {
  if (fd >= 0) close(fd);
}

Status WriteAll(int fd, std::string_view data, int timeout_ms) {
  // One budget for the whole buffer, not per wait: a peer that drains a
  // little before each wait would otherwise stretch it without bound.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!data.empty()) {
    const ssize_t n = send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n > 0) {
      data.remove_prefix(size_t(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      Status s = WaitFor(fd, POLLOUT, int(std::max<int64_t>(0, left.count())),
                         "write");
      if (!s.ok()) return s;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Unavailable(std::string("rpc write: ") +
                               (n < 0 ? strerror(errno) : "peer closed"));
  }
  return Status::OK();
}

Status ReadFrame(int fd, FrameBuffer* buf, std::string* payload,
                 int timeout_ms) {
  char chunk[16 * 1024];
  for (;;) {
    bool have = false;
    Status s = buf->Next(payload, &have);
    if (!s.ok()) return s;  // poisoned stream: DataLoss
    if (have) return Status::OK();
    s = WaitFor(fd, POLLIN, timeout_ms, "read");
    if (!s.ok()) return s;
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf->Feed(chunk, size_t(n));
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    return Status::Unavailable(
        n == 0 ? "rpc peer closed connection"
               : std::string("rpc read: ") + strerror(errno));
  }
}

}  // namespace gdpr::net
