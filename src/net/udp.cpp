#include "net/udp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace asyncrd::net {

namespace {

sockaddr_in to_sockaddr(const endpoint& ep) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(ep.ip);
  sa.sin_port = htons(ep.port);
  return sa;
}

[[noreturn]] void die(const char* what) {
  throw std::runtime_error(std::string("udp_socket: ") + what + ": " +
                           std::strerror(errno));
}

}  // namespace

udp_socket::udp_socket() {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) die("socket");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    die("fcntl(O_NONBLOCK)");
  }
}

udp_socket::~udp_socket() {
  if (fd_ >= 0) ::close(fd_);
}

void udp_socket::bind_loopback(std::uint16_t port) {
  sockaddr_in sa = to_sockaddr(loopback(port));
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0)
    die("bind");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0)
    die("getsockname");
  port_ = ntohs(bound.sin_port);
}

bool udp_socket::send_to(const endpoint& to, const std::uint8_t* data,
                         std::size_t len) {
  const sockaddr_in sa = to_sockaddr(to);
  const ssize_t n =
      ::sendto(fd_, data, len, 0, reinterpret_cast<const sockaddr*>(&sa),
               sizeof(sa));
  return n == static_cast<ssize_t>(len);
}

std::ptrdiff_t udp_socket::recv(std::uint8_t* buf, std::size_t cap) {
  const ssize_t n = ::recv(fd_, buf, cap, 0);
  return n < 0 ? -1 : n;  // EWOULDBLOCK and friends: nothing pending
}

bool wait_readable(int fd, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  return ::poll(&pfd, 1, timeout_ms) > 0 && (pfd.revents & POLLIN) != 0;
}

bool record_stream::send(const std::vector<std::uint8_t>& rec) {
  const auto len = static_cast<std::uint32_t>(rec.size());
  out_.clear();
  for (int shift = 0; shift < 32; shift += 8)
    out_.push_back(static_cast<std::uint8_t>(len >> shift));
  out_.insert(out_.end(), rec.begin(), rec.end());
  for (std::size_t done = 0; done < out_.size();) {
    const ssize_t n =
        ::send(fd_, out_.data() + done, out_.size() - done, MSG_NOSIGNAL);
    if (n < 0 && errno != EINTR) return false;
    if (n > 0) done += static_cast<std::size_t>(n);
  }
  return true;
}

bool record_stream::fill(int timeout_ms) {
  // Drop the records next() has returned before appending behind them.
  in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(head_));
  head_ = 0;
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) return ready == 0 || errno == EINTR;
  std::uint8_t buf[1 << 16];
  const ssize_t n = ::read(fd_, buf, sizeof(buf));
  if (n < 0) return errno == EINTR;
  in_.insert(in_.end(), buf, buf + n);
  return n > 0;
}

bool record_stream::next(std::vector<std::uint8_t>& rec) {
  const std::size_t avail = in_.size() - head_;
  if (avail < 4) return false;
  const std::uint8_t* p = in_.data() + head_;
  const std::size_t len = p[0] | p[1] << 8 | p[2] << 16 |
                          static_cast<std::size_t>(p[3]) << 24;
  if (avail - 4 < len) return false;
  rec.assign(p + 4, p + 4 + len);
  head_ += 4 + len;
  return true;
}

}  // namespace asyncrd::net
