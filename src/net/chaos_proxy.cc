#include "net/chaos_proxy.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace xtc {
namespace net {

namespace {

constexpr int kPollTickMs = 50;
constexpr size_t kChunkSize = 8 * 1024;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Status ErrnoStatus(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Status ChaosProxy::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("proxy already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return ErrnoStatus("bind");
  }
  if (::listen(listen_fd_, 64) < 0) return ErrnoStatus("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return ErrnoStatus("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread(&ChaosProxy::AcceptLoop, this);
  return Status::OK();
}

void ChaosProxy::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stop_.exchange(true)) return;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> relays;
  {
    MutexLock guard(mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    relays.swap(relays_);
  }
  for (std::thread& t : relays) {
    if (t.joinable()) t.join();
  }
  {
    MutexLock guard(mu_);
    for (int fd : conn_fds_) ::close(fd);
    conn_fds_.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

void ChaosProxy::AcceptLoop() {
  uint64_t conn_index = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, kPollTickMs);
    if (r < 0 && errno != EINTR) return;
    if (r <= 0) continue;
    const int client_fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (client_fd < 0) continue;
    const int server_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (server_fd < 0) {
      ::close(client_fd);
      continue;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(target_port_);
    if (::connect(server_fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      ::close(client_fd);
      ::close(server_fd);
      continue;
    }
    int one = 1;
    ::setsockopt(client_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::setsockopt(server_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    stats_.Add(&ChaosProxyStats::connections);
    {
      MutexLock guard(mu_);
      if (stop_.load(std::memory_order_acquire)) {
        ::close(client_fd);
        ::close(server_fd);
        return;
      }
      conn_fds_.push_back(client_fd);
      conn_fds_.push_back(server_fd);
      relays_.emplace_back(&ChaosProxy::Relay, this, client_fd, server_fd,
                           conn_index);
    }
    ++conn_index;
  }
}

double ChaosProxy::Uniform(uint64_t conn, int dir, uint64_t n) const {
  const uint64_t h = SplitMix64(plan_.seed ^ (conn * 0x9e3779b97f4a7c15ULL) ^
                                (static_cast<uint64_t>(dir) << 32) ^
                                (n * 0x2545f4914f6cdd1dULL));
  return (h >> 11) * (1.0 / 9007199254740992.0);  // [0, 1)
}

void ChaosProxy::Relay(int client_fd, int server_fd, uint64_t conn_index) {
  // Per-direction relay state. dir 0 = client→server, 1 = server→client.
  struct DirState {
    int from, to;
    int64_t cut, stall;
    uint64_t chunk = 0;
    int64_t forwarded = 0;
    bool stalled = false;
    uint64_t ChaosProxyStats::*bytes;
  };
  const bool shaped = plan_.shape_conn_index < 0 ||
                      conn_index == static_cast<uint64_t>(
                                        plan_.shape_conn_index);
  DirState dirs[2] = {
      {client_fd, server_fd, shaped ? plan_.cut_client_to_server : -1,
       shaped ? plan_.stall_client_to_server : -1, 0, 0, false,
       &ChaosProxyStats::bytes_client_to_server},
      {server_fd, client_fd, shaped ? plan_.cut_server_to_client : -1,
       shaped ? plan_.stall_server_to_client : -1, 0, 0, false,
       &ChaosProxyStats::bytes_server_to_client},
  };

  const auto sever = [&] {
    ::shutdown(client_fd, SHUT_RDWR);
    ::shutdown(server_fd, SHUT_RDWR);
  };
  // Blocking bounded send of exactly [data, data+n). False = peer gone.
  const auto send_all = [&](int fd, const char* data, size_t n) {
    size_t off = 0;
    while (off < n && !stop_.load(std::memory_order_acquire)) {
      const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
      if (w > 0) {
        off += static_cast<size_t>(w);
        continue;
      }
      if (w < 0 && (errno == EINTR)) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd pfd{fd, POLLOUT, 0};
        ::poll(&pfd, 1, kPollTickMs);
        continue;
      }
      return false;
    }
    return off == n;
  };

  char buf[kChunkSize];
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfds[2] = {{client_fd, POLLIN, 0}, {server_fd, POLLIN, 0}};
    const int r = ::poll(pfds, 2, kPollTickMs);
    if (r < 0 && errno != EINTR) break;
    if (r <= 0) continue;
    bool done = false;
    for (int d = 0; d < 2 && !done; ++d) {
      if ((pfds[d].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      DirState& dir = dirs[d];
      const ssize_t n = ::recv(dir.from, buf, sizeof(buf), 0);
      if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN &&
                     errno != EWOULDBLOCK)) {
        // EOF/error from one side ends the whole connection: the framed
        // protocol is strictly request→response, nothing to flush.
        sever();
        done = true;
        continue;
      }
      if (n < 0) continue;
      stats_.Add(&ChaosProxyStats::chunks);
      const uint64_t chunk = dir.chunk++;
      size_t len = static_cast<size_t>(n);

      // Byte-exact shaping first; probabilistic chaos only otherwise.
      if (dir.stalled) {
        stats_.Add(&ChaosProxyStats::stalls);
        continue;  // swallow; connection stays half-open
      }
      if (dir.cut >= 0 && dir.forwarded + static_cast<int64_t>(len) >=
                              dir.cut) {
        const size_t keep = static_cast<size_t>(dir.cut - dir.forwarded);
        if (keep > 0) (void)send_all(dir.to, buf, keep);
        dir.forwarded += static_cast<int64_t>(keep);
        stats_.Add(dir.bytes, keep);
        stats_.Add(&ChaosProxyStats::cuts);
        sever();
        done = true;
        continue;
      }
      if (dir.stall >= 0 && dir.forwarded + static_cast<int64_t>(len) >
                                dir.stall) {
        const size_t keep = static_cast<size_t>(dir.stall - dir.forwarded);
        if (keep > 0 && !send_all(dir.to, buf, keep)) {
          sever();
          done = true;
          continue;
        }
        dir.forwarded += static_cast<int64_t>(keep);
        stats_.Add(dir.bytes, keep);
        dir.stalled = true;
        stats_.Add(&ChaosProxyStats::stalls);
        continue;
      }
      if (dir.cut < 0 && dir.stall < 0 && chunk >= plan_.skip_first_chunks) {
        const double u = Uniform(conn_index, d, chunk);
        double edge = plan_.drop;
        if (u < edge) {
          stats_.Add(&ChaosProxyStats::drops);
          sever();
          done = true;
          continue;
        }
        edge += plan_.truncate;
        if (u < edge) {
          // Keep a seeded prefix (possibly zero bytes) and sever.
          const size_t keep = static_cast<size_t>(
              SplitMix64(plan_.seed ^ chunk ^ 0xfeedULL) % len);
          if (keep > 0) (void)send_all(dir.to, buf, keep);
          stats_.Add(dir.bytes, keep);
          stats_.Add(&ChaosProxyStats::truncations);
          sever();
          done = true;
          continue;
        }
        const double delay_edge = edge + plan_.delay;
        const double dup_edge = delay_edge + plan_.duplicate;
        if (u < delay_edge) {
          const int ms = 1 + static_cast<int>(
                                 SplitMix64(plan_.seed ^ chunk ^ 0xabULL) %
                                 static_cast<uint64_t>(
                                     plan_.delay_max_ms > 0 ? plan_.delay_max_ms
                                                            : 1));
          stats_.Add(&ChaosProxyStats::delays);
          SleepFor(Millis(ms));
        } else if (u < dup_edge) {
          // Extra copy first; the straight copy below completes the pair.
          stats_.Add(&ChaosProxyStats::duplicates);
          if (!send_all(dir.to, buf, len)) {
            sever();
            done = true;
            continue;
          }
          stats_.Add(dir.bytes, len);
        }
      }
      if (!send_all(dir.to, buf, len)) {
        sever();
        done = true;
        continue;
      }
      dir.forwarded += static_cast<int64_t>(len);
      stats_.Add(dir.bytes, len);
    }
    if (done) break;
  }
}

}  // namespace net
}  // namespace xtc
