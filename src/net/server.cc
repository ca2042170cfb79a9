#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "tamix/dom_api.h"

namespace xtc {
namespace net {

namespace {

/// How long the event loop sleeps in epoll_wait when nothing happens —
/// the cadence of idle reaping, lease expiry and deferred-fd closing.
constexpr int kLoopTickMs = 250;
/// How long a worker waits for a stalled client to accept response bytes
/// before declaring the session dead.
constexpr int kSendTimeoutMs = 5000;
/// Drain's poll cadence while waiting for in-flight work to finish.
constexpr auto kDrainPollInterval = std::chrono::milliseconds(10);
/// Epoll key of the workers' stop eventfd (session ids start at 1).
constexpr uint64_t kStopKey = 0;
/// Cap on the complete frames one read may deliver. A synchronous
/// request–response client never has more than 1; a client that
/// pipelines past this is violating the protocol and is disconnected.
constexpr size_t kMaxSessionPending = 64;
/// Responses larger than this are not recorded for retried request_ids
/// (big reads are idempotent; re-executing them on retry is cheaper than
/// the memory).
constexpr size_t kOutcomeRecordMaxBytes = 4096;

Status ErrnoStatus(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

/// Response payload carrying only a status (the common error shape).
std::string StatusOnlyPayload(const Status& st) {
  WireWriter w;
  PutStatus(&w, st);
  return std::move(w.str());
}

/// SplitMix64 over a nonce + per-server salt. Not cryptographic — the
/// secret guards against accidental cross-session resumes, not attackers
/// on the loopback.
uint64_t TokenSecret(uint64_t nonce, uintptr_t salt) {
  uint64_t x = nonce ^ (static_cast<uint64_t>(salt) * 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// How long HandleResume waits for a half-open predecessor's worker to
/// finish and park the core before telling the client to retry.
constexpr auto kResumeStealTimeout = std::chrono::seconds(3);
constexpr auto kResumeStealPoll = std::chrono::milliseconds(2);

}  // namespace

Server::Server(Deps deps, ServerOptions options)
    : deps_(deps), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return ErrnoStatus("bind");
  }
  if (::listen(listen_fd_, 128) < 0) return ErrnoStatus("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return ErrnoStatus("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (event_fd_ < 0) return ErrnoStatus("eventfd");
  stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (stop_fd_ < 0) return ErrnoStatus("eventfd");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return ErrnoStatus("epoll_create1");
  worker_epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (worker_epoll_fd_ < 0) return ErrnoStatus("epoll_create1");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    return ErrnoStatus("epoll_ctl(listen)");
  }
  ev.data.fd = event_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) < 0) {
    return ErrnoStatus("epoll_ctl(eventfd)");
  }
  // Level-triggered and never drained: once Stop() signals it, every
  // worker's epoll_wait reports it.
  ev.data.u64 = kStopKey;
  if (::epoll_ctl(worker_epoll_fd_, EPOLL_CTL_ADD, stop_fd_, &ev) < 0) {
    return ErrnoStatus("epoll_ctl(stop)");
  }

  metrics_.MarkRunStart();
  loop_thread_ = std::thread(&Server::EventLoop, this);
  const int workers = options_.num_workers > 0 ? options_.num_workers : 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back(&Server::WorkerLoop, this);
  }
  return Status::OK();
}

void Server::WakeLoop() {
  if (event_fd_ >= 0) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
  }
}

// --- Event loop -----------------------------------------------------------

void Server::EventLoop() {
  epoll_event events[2];
  bool listener_armed = true;

  while (!stopping_.load(std::memory_order_acquire)) {
    if (listener_armed && !accepting_.load(std::memory_order_acquire)) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      listener_armed = false;
    }

    const int n = ::epoll_wait(epoll_fd_, events, 2, kLoopTickMs);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll set is gone; shutdown is in progress
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == listen_fd_) {
        AcceptPending();
      } else {
        uint64_t drained;
        while (::read(event_fd_, &drained, sizeof(drained)) > 0) {
        }
      }
    }
    CloseDeadFds();
    ReapIdle();
    ExpireLeases();
  }

  CloseDeadFds();
}

void Server::AcceptPending() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error; epoll will re-arm
    if (!accepting_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    size_t live;
    {
      MutexLock guard(sessions_mu_);
      live = sessions_.size();
    }
    if (live >= options_.max_sessions) {
      stats_.Add(&ServerStats::sessions_rejected);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto s = std::make_shared<Session>();
    s->fd = fd;
    s->last_activity.store(Now(), std::memory_order_relaxed);
    {
      MutexLock guard(sessions_mu_);
      s->id = next_session_id_++;
      sessions_.emplace(s->id, s);
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLONESHOT;
    ev.data.u64 = s->id;
    if (::epoll_ctl(worker_epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      BeginClose(s);
      continue;
    }
    stats_.Add(&ServerStats::sessions_opened);
  }
}

void Server::BeginClose(const SessionPtr& s) {
  bool teardown_now = false;
  {
    MutexLock guard(s->mu);
    if (s->closing) return;
    s->closing = true;
    teardown_now = !s->busy;
  }
  // A transaction parked in LockTable::Lock() must be woken or teardown
  // (and drain) would stall the full lock wait timeout behind it. But
  // CancelTx is sticky until ReleaseAll — a cancelled transaction can
  // never run another operation — so under an active lease the wait is
  // left alone: the in-flight operation finishes on its own (bounded by
  // the lock wait timeout) and the worker then parks the session for
  // resume. Drain and Stop still cancel.
  if (!LeasesActive()) {
    const uint64_t tx = s->tx_id.load(std::memory_order_acquire);
    if (tx != 0) deps_.table->CancelTx(tx);
  }
  if (teardown_now) Teardown(s);
}

void Server::Teardown(const SessionPtr& s) {
  ParkOrAbort(s.get());
  {
    MutexLock guard(sessions_mu_);
    sessions_.erase(s->id);
  }
  // Only the event loop closes fds: a descriptor number stays taken until
  // no thread can still act on this session, so accept4 never hands it to
  // a new connection early. Shut the socket down now so the peer sees the
  // close at once.
  ::epoll_ctl(worker_epoll_fd_, EPOLL_CTL_DEL, s->fd, nullptr);
  ::shutdown(s->fd, SHUT_RDWR);
  {
    MutexLock guard(dead_fds_mu_);
    dead_fds_.push_back(s->fd);
  }
  WakeLoop();
  stats_.Add(&ServerStats::sessions_closed);
}

void Server::CloseDeadFds() {
  std::vector<int> fds;
  {
    MutexLock guard(dead_fds_mu_);
    fds.swap(dead_fds_);
  }
  for (int fd : fds) ::close(fd);
}

void Server::ReapIdle() {
  const TimePoint now = Now();
  std::vector<SessionPtr> idle;
  {
    MutexLock guard(sessions_mu_);
    for (const auto& [id, s] : sessions_) {
      if (now - s->last_activity.load(std::memory_order_relaxed) >
          options_.idle_timeout) {
        idle.push_back(s);
      }
    }
  }
  for (const SessionPtr& s : idle) {
    stats_.Add(&ServerStats::idle_reaped);
    BeginClose(s);
  }
}

// --- Workers --------------------------------------------------------------

void Server::WorkerLoop() {
  for (;;) {
    // One event per wait: a worker serves one session per wake-up, so a
    // second readable session goes to another worker.
    epoll_event ev;
    const int n = ::epoll_wait(worker_epoll_fd_, &ev, 1, -1);
    if (n < 0 && errno != EINTR) return;  // epoll set is gone
    if (n <= 0) continue;
    if (ev.data.u64 == kStopKey) return;
    SessionPtr s;
    {
      MutexLock guard(sessions_mu_);
      auto it = sessions_.find(ev.data.u64);
      if (it != sessions_.end()) s = it->second;
    }
    if (s == nullptr) continue;  // torn down after the event fired
    {
      MutexLock guard(s->mu);
      if (s->closing || s->busy) continue;
      s->busy = true;
    }
    ServeSession(s, ev.events);
  }
}

void Server::ServeSession(const SessionPtr& s, uint32_t events) {
  std::vector<Frame> batch;
  size_t consumed = 0;
  bool eof = false;
  bool keep = (events & (EPOLLHUP | EPOLLERR)) == 0 &&
              ReadFrames(s, &batch, &consumed, &eof);
  if (keep) {
    for (const Frame& frame : batch) {
      {
        MutexLock guard(s->mu);
        if (s->closing) break;
      }
      if (!Process(s, frame)) {
        keep = false;
        break;
      }
    }
    s->rbuf.erase(0, consumed);
  }
  // An orderly EOF closes only after the frames that preceded it ran:
  // the peer may be gone, but under a lease those are the outcomes a
  // resumed client retries for.
  if (eof) keep = false;

  bool teardown;
  {
    MutexLock guard(s->mu);
    s->busy = false;
    if (!keep) s->closing = true;
    teardown = s->closing;
    if (!teardown) {
      // Re-arm under mu, after clearing busy: BeginClose cannot slip in
      // between, and the worker the re-armed event wakes finds the
      // session free. Bytes that arrived meanwhile fire it at once.
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLONESHOT;
      ev.data.u64 = s->id;
      if (::epoll_ctl(worker_epoll_fd_, EPOLL_CTL_MOD, s->fd, &ev) < 0) {
        s->closing = true;
        teardown = true;
      }
    }
  }
  // If BeginClose() marked the session while we owned it, it saw
  // busy == true and left the teardown to us.
  if (teardown) Teardown(s);
}

bool Server::ReadFrames(const SessionPtr& s, std::vector<Frame>* batch,
                        size_t* consumed, bool* eof) {
  // An injected receive failure is indistinguishable from the peer
  // resetting the connection: the session tears down (or parks).
  if (deps_.faults != nullptr &&
      deps_.faults->ShouldFail(fault_points::kNetRecv)) {
    return false;
  }
  // One read per wake-up: bytes left in the socket re-fire the ONESHOT
  // event once the fd is re-armed.
  char buf[16 * 1024];
  const ssize_t n = ::read(s->fd, buf, sizeof(buf));
  if (n > 0) {
    s->rbuf.append(buf, static_cast<size_t>(n));
    // A well-formed frame never exceeds this (payload_len is capped), so
    // only garbage that passed no header check yet can grow past it.
    if (s->rbuf.size() > kHeaderSize + kMaxPayload) {
      stats_.Add(&ServerStats::protocol_errors);
      return false;
    }
  } else if (n == 0) {
    *eof = true;
  } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    return false;
  }
  s->last_activity.store(Now(), std::memory_order_relaxed);

  // Extract every complete frame.
  size_t off = 0;
  while (s->rbuf.size() - off >= kHeaderSize) {
    const std::string_view rest = std::string_view(s->rbuf).substr(off);
    FrameHeader header;
    Status st = DecodeHeader(rest, &header);
    if (!st.ok()) {
      // Header-level corruption: the type and request_id bytes cannot be
      // trusted and a length-prefixed stream cannot resynchronize, so
      // there is nothing meaningful to answer — drop the connection.
      stats_.Add(&ServerStats::protocol_errors);
      return false;
    }
    if (rest.size() < kHeaderSize + header.payload_len) break;  // partial
    off += kHeaderSize + header.payload_len;
    stats_.Add(&ServerStats::frames_received);

    // The header framed correctly, so type/request_id are reliable and
    // payload-level problems get a proper error response (then the
    // session closes: the payload bytes still desynchronize nothing, but
    // trust in the peer is gone).
    Frame frame;
    frame.type = header.type & static_cast<uint8_t>(~kResponseBit);
    frame.request_id = header.request_id;
    frame.payload = rest.substr(kHeaderSize, header.payload_len);
    if ((header.type & kResponseBit) != 0) {
      frame.reject = Status::InvalidArgument("response frame sent to server");
    } else if (Status pst = CheckPayload(header, frame.payload); !pst.ok()) {
      frame.reject = std::move(pst);
    } else if (batch->size() >= kMaxSessionPending) {
      // Pipelining far past the response stream violates the protocol.
      frame.reject = Status::ResourceExhausted("session pipeline cap");
    }
    const bool fatal = !frame.reject.ok();
    if (fatal) stats_.Add(&ServerStats::protocol_errors);
    batch->push_back(std::move(frame));
    if (fatal) break;  // teardown happens after the error response
  }
  *consumed = off;
  return true;
}

bool Server::Process(const SessionPtr& s, const Frame& frame) {
  if (deps_.faults != nullptr) {
    if (deps_.faults->ShouldFail(fault_points::kNetDelay)) SleepFor(Millis(2));
    // An injected close looks like the kernel dropping the connection
    // before the request ran: no response, session tears down (or parks).
    if (deps_.faults->ShouldFail(fault_points::kNetClose)) return false;
  }
  std::string payload;
  bool close_after = false;
  bool executed = false;
  const bool dedupable = IsTxScoped(frame.type);
  if (!frame.reject.ok()) {
    payload = StatusOnlyPayload(frame.reject);
    close_after = true;
  } else if (dedupable && DedupLookup(*s->core, frame.request_id, frame.type,
                                      &payload)) {
    // The client retried a request whose response it never saw; answer
    // with the recorded outcome, never re-execute (exactly-once).
    stats_.Add(&ServerStats::dedup_hits);
  } else {
    payload = HandleRequest(s, frame, &close_after);
    executed = true;
  }
  // Record BEFORE the response bytes go out: if the connection dies
  // anywhere inside SendAll, the retried request_id still finds the
  // outcome. The reverse order would lose a commit that was forced to
  // the WAL but whose response was torn.
  if (executed && dedupable && !close_after) {
    DedupRecord(s->core.get(), frame.request_id, frame.type, payload);
  }
  const std::string response = EncodeFrame(
      static_cast<uint8_t>(frame.type | kResponseBit), frame.request_id,
      payload);
  if (!SendAll(s, response)) return false;
  stats_.Add(&ServerStats::responses_sent);
  return !close_after;
}

bool Server::DedupLookup(const SessionCore& core, uint32_t request_id,
                         uint8_t type, std::string* payload) const {
  for (const OutcomeEntry& e : core.outcomes) {
    if (e.request_id == request_id && e.type == type) {
      *payload = e.payload;
      return true;
    }
  }
  return false;
}

void Server::DedupRecord(SessionCore* core, uint32_t request_id, uint8_t type,
                         const std::string& payload) {
  if (payload.size() > kOutcomeRecordMaxBytes) return;
  core->outcomes.push_back(OutcomeEntry{request_id, type, payload});
  while (core->outcomes.size() > kOutcomeTableEntries) {
    core->outcomes.pop_front();
  }
}

bool Server::SendAll(const SessionPtr& s, std::string_view bytes) {
  if (deps_.faults != nullptr &&
      deps_.faults->ShouldFail(fault_points::kNetSend)) {
    return false;
  }
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(s->fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{s->fd, POLLOUT, 0};
      const int r = ::poll(&pfd, 1, kSendTimeoutMs);
      if (r <= 0) return false;  // stalled client: drop the session
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

// --- Request handlers -----------------------------------------------------

std::string Server::HandleRequest(const SessionPtr& s, const Frame& frame,
                                  bool* close_after) {
  WireReader r(frame.payload);
  std::string payload;
  switch (static_cast<MsgType>(frame.type)) {
    case MsgType::kHello: {
      std::string client_name;
      if (!r.Str(&client_name) || !r.AtEnd()) break;
      SessionCore* core = s->core.get();
      if (core->token_id == 0) {
        // Issue the resume token: id is the session id (unique for the
        // server's lifetime), secret is an unguessable-enough nonce hash
        // so a stray client cannot adopt someone else's transaction by
        // accident.
        core->token_id = s->id;
        MutexLock guard(parked_mu_);
        core->token_secret =
            TokenSecret(next_token_nonce_++, reinterpret_cast<uintptr_t>(this));
        live_tokens_[core->token_id] = s;
      }
      WireWriter w;
      PutStatus(&w, Status::OK());
      w.U8(kWireVersion);
      w.U64(core->token_id);
      w.U64(core->token_secret);
      w.U32(static_cast<uint32_t>(ToMillis(options_.session_lease)));
      payload = std::move(w.str());
      return payload;
    }
    case MsgType::kResume:
      payload = HandleResume(s, r);
      if (!payload.empty()) return payload;
      break;
    case MsgType::kBegin:
      payload = HandleBegin(s, r);
      if (!payload.empty()) return payload;
      break;
    case MsgType::kCommit:
      payload = HandleCommit(s, r);
      if (!payload.empty()) return payload;
      break;
    case MsgType::kAbort:
      if (!r.AtEnd()) break;
      return HandleAbort(s);
    case MsgType::kStats:
      if (!r.AtEnd()) break;
      return HandleStats();
    case MsgType::kWorkloadInfo:
      if (!r.AtEnd()) break;
      return HandleWorkloadInfo();
    default:
      payload = HandleDomOp(s, frame, r);
      if (!payload.empty()) return payload;
      break;
  }
  // Malformed request payload: the client and server disagree about the
  // protocol — answer once, then disconnect.
  stats_.Add(&ServerStats::protocol_errors);
  *close_after = true;
  return StatusOnlyPayload(
      Status::InvalidArgument("malformed request payload"));
}

std::string Server::HandleBegin(const SessionPtr& s, WireReader& r) {
  uint8_t isolation, lock_depth, tx_type;
  if (!r.U8(&isolation) || !r.U8(&lock_depth) || !r.U8(&tx_type) ||
      !r.AtEnd()) {
    return {};
  }
  if (isolation > static_cast<uint8_t>(IsolationLevel::kSerializable) ||
      tx_type >= kNumTxTypes) {
    return {};
  }
  if (s->core->tx != nullptr) {
    return StatusOnlyPayload(
        Status::InvalidArgument("transaction already open on this session"));
  }
  if (draining_.load(std::memory_order_acquire)) {
    stats_.Add(&ServerStats::admission_rejected);
    return StatusOnlyPayload(Status::ResourceExhausted("server draining"));
  }
  // Admission: optimistic increment, undo on loss. The cap may overshoot
  // by a few under a worker stampede; it bounds load, it is not a ledger.
  if (active_tx_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.max_in_flight_tx) {
    active_tx_.fetch_sub(1, std::memory_order_acq_rel);
    stats_.Add(&ServerStats::admission_rejected);
    return StatusOnlyPayload(
        Status::ResourceExhausted("too many in-flight transactions"));
  }
  SessionCore* core = s->core.get();
  core->tx = deps_.txm->Begin(static_cast<IsolationLevel>(isolation),
                              static_cast<int>(lock_depth));
  core->tx_type = static_cast<TxType>(tx_type);
  core->tx_begin = Now();
  core->last_error = Status::OK();
  s->tx_id.store(core->tx->id(), std::memory_order_release);
  stats_.Add(&ServerStats::tx_begun);

  WireWriter w;
  PutStatus(&w, Status::OK());
  w.U64(core->tx->id());
  return std::move(w.str());
}

std::string Server::HandleCommit(const SessionPtr& s, WireReader& r) {
  std::string wal_payload;
  if (!r.Str(&wal_payload) || !r.AtEnd()) return {};
  SessionCore* core = s->core.get();
  if (core->tx == nullptr) {
    return StatusOnlyPayload(
        Status::InvalidArgument("no open transaction on this session"));
  }
  const Status st = deps_.txm->Commit(*core->tx, wal_payload);
  WireWriter w;
  PutStatus(&w, st);
  if (st.ok()) {
    w.U64(core->tx->commit_seq());
    metrics_.RecordCommit(core->tx_type, ToMicros(Now() - core->tx_begin));
    stats_.Add(&ServerStats::tx_committed);
  } else {
    // A failed commit force already ended the transaction kAborted with
    // its locks released (see TransactionManager::Commit).
    metrics_.RecordAbort(core->tx_type, st);
    stats_.Add(&ServerStats::tx_aborted);
  }
  core->tx.reset();
  s->tx_id.store(0, std::memory_order_release);
  active_tx_.fetch_sub(1, std::memory_order_acq_rel);
  return std::move(w.str());
}

std::string Server::HandleAbort(const SessionPtr& s) {
  if (s->core->tx == nullptr) {
    // Aborting nothing is a no-op, not an error: the client's retry loop
    // aborts defensively.
    return StatusOnlyPayload(Status::OK());
  }
  AbortSessionTx(s.get());
  return StatusOnlyPayload(Status::OK());
}

std::string Server::HandleResume(const SessionPtr& s, WireReader& r) {
  uint64_t token_id, secret;
  if (!r.U64(&token_id) || !r.U64(&secret) || !r.AtEnd()) return {};
  if (options_.session_lease <= Duration::zero()) {
    return StatusOnlyPayload(Status::NotSupported("session leases disabled"));
  }
  if (s->core->tx != nullptr) {
    return StatusOnlyPayload(
        Status::InvalidArgument("transaction already open on this session"));
  }

  bool mismatch = false;
  std::unique_ptr<SessionCore> old = TakeParked(token_id, secret, &mismatch);
  if (old == nullptr && !mismatch) {
    // Not parked. The predecessor connection may be half-open: the client
    // knows it is dead, the server does not yet. Close it and wait
    // (bounded) for its worker to park the core.
    SessionPtr victim;
    {
      MutexLock guard(parked_mu_);
      auto it = live_tokens_.find(token_id);
      if (it != live_tokens_.end()) victim = it->second;
    }
    if (victim != nullptr && victim != s) {
      BeginClose(victim);
      const TimePoint deadline = Now() + kResumeStealTimeout;
      for (;;) {
        old = TakeParked(token_id, secret, &mismatch);
        if (old != nullptr || mismatch) break;
        bool still_live;
        {
          MutexLock guard(parked_mu_);
          still_live = live_tokens_.count(token_id) > 0;
        }
        if (!still_live) {
          // Teardown ran and chose not to park (nothing worth keeping)
          // — unless it parked between our two probes.
          old = TakeParked(token_id, secret, &mismatch);
          break;
        }
        if (Now() >= deadline) {
          // The predecessor's worker is wedged in a slow operation (e.g.
          // a send timing out against the dead peer). Distinct from
          // kNotFound so the client retries instead of giving up.
          return StatusOnlyPayload(
              Status::ResourceExhausted("predecessor session still closing"));
        }
        SleepFor(kResumeStealPoll);
      }
    }
  }
  if (old == nullptr) {
    // Unknown token, wrong secret, or an expired lease: the state is
    // gone. (Wrong secret is deliberately indistinguishable.)
    return StatusOnlyPayload(
        Status::NotFound("session lease expired or token unknown"));
  }

  // Adopt: the fresh core this connection got at accept (and any token
  // its own Hello issued) is discarded in favor of the resumed one.
  {
    MutexLock guard(parked_mu_);
    if (s->core->token_id != 0) live_tokens_.erase(s->core->token_id);
    live_tokens_[token_id] = s;
  }
  s->core = std::move(old);
  s->tx_id.store(s->core->tx != nullptr ? s->core->tx->id() : 0,
                 std::memory_order_release);
  stats_.Add(&ServerStats::sessions_resumed);

  WireWriter w;
  PutStatus(&w, Status::OK());
  w.U8(s->core->tx != nullptr ? 1 : 0);
  return std::move(w.str());
}

// --- Leases ---------------------------------------------------------------

void Server::ParkOrAbort(Session* s) {
  SessionCore* core = s->core.get();
  const bool worth_keeping =
      core->token_id != 0 &&
      (core->tx != nullptr || !core->outcomes.empty());
  if (!LeasesActive() || !worth_keeping) {
    AbortSessionTx(s);
    MutexLock guard(parked_mu_);
    if (core->token_id != 0) {
      auto it = live_tokens_.find(core->token_id);
      if (it != live_tokens_.end() && it->second.get() == s) {
        live_tokens_.erase(it);
      }
    }
    return;
  }
  s->tx_id.store(0, std::memory_order_release);
  {
    MutexLock guard(parked_mu_);
    auto it = live_tokens_.find(core->token_id);
    if (it != live_tokens_.end() && it->second.get() == s) {
      live_tokens_.erase(it);
    }
    parked_[core->token_id] =
        ParkedCore{std::move(s->core), Now() + options_.session_lease};
  }
  s->core = std::make_unique<SessionCore>();
  stats_.Add(&ServerStats::sessions_parked);
}

std::unique_ptr<Server::SessionCore> Server::TakeParked(uint64_t token_id,
                                                        uint64_t secret,
                                                        bool* mismatch) {
  *mismatch = false;
  MutexLock guard(parked_mu_);
  auto it = parked_.find(token_id);
  if (it == parked_.end()) return nullptr;
  if (it->second.core->token_secret != secret) {
    *mismatch = true;
    return nullptr;
  }
  std::unique_ptr<SessionCore> core = std::move(it->second.core);
  parked_.erase(it);
  return core;
}

void Server::ExpireLeases() {
  if (options_.session_lease <= Duration::zero()) return;
  const TimePoint now = Now();
  std::vector<std::unique_ptr<SessionCore>> expired;
  {
    MutexLock guard(parked_mu_);
    for (auto it = parked_.begin(); it != parked_.end();) {
      if (now >= it->second.expiry) {
        expired.push_back(std::move(it->second.core));
        it = parked_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // The abort runs on the event loop — an exception to its "never touch
  // the engine" rule, but a parked transaction has no thread waiting on
  // anything (its owner is gone), so the abort cannot block on a lock
  // wait; it only releases.
  for (std::unique_ptr<SessionCore>& core : expired) {
    stats_.Add(&ServerStats::leases_expired);
    if (core->last_error.ok()) {
      core->last_error = Status::TxAborted("session lease expired");
    }
    AbortCore(core.get());
  }
}

void Server::AbortAllParked() {
  std::vector<std::unique_ptr<SessionCore>> all;
  {
    MutexLock guard(parked_mu_);
    for (auto& [token, parked] : parked_) all.push_back(std::move(parked.core));
    parked_.clear();
  }
  for (std::unique_ptr<SessionCore>& core : all) AbortCore(core.get());
}

std::string Server::HandleDomOp(const SessionPtr& s, const Frame& frame,
                                WireReader& r) {
  if (s->core->tx == nullptr) {
    return StatusOnlyPayload(
        Status::InvalidArgument("no open transaction on this session"));
  }
  LocalDom dom(deps_.nm, s->core->tx.get());
  WireWriter w;
  // Remembers the last operation failure so a teardown abort is
  // classified like the in-process coordinator would classify it.
  const auto put_status = [&](const Status& st) {
    PutStatus(&w, st);
    if (!st.ok()) s->core->last_error = st;
  };
  switch (static_cast<MsgType>(frame.type)) {
    case MsgType::kGetElementById: {
      std::string id;
      if (!r.Str(&id) || !r.AtEnd()) return {};
      auto res = dom.GetElementById(id);
      put_status(res.status());
      if (res.ok()) {
        w.U8(res->has_value() ? 1 : 0);
        if (res->has_value()) w.SplidVal(**res);
      }
      break;
    }
    case MsgType::kGetAttributes: {
      Splid node;
      if (!r.SplidVal(&node) || !r.AtEnd()) return {};
      auto res = dom.GetAttributes(node);
      put_status(res.status());
      if (res.ok()) {
        w.U32(static_cast<uint32_t>(res->size()));
        for (const auto& [k, v] : *res) {
          w.Str(k);
          w.Str(v);
        }
      }
      break;
    }
    case MsgType::kGetFirstChild:
    case MsgType::kGetLastChild:
    case MsgType::kGetNextSibling: {
      Splid node;
      if (!r.SplidVal(&node) || !r.AtEnd()) return {};
      const MsgType t = static_cast<MsgType>(frame.type);
      auto res = t == MsgType::kGetFirstChild  ? dom.GetFirstChild(node)
                 : t == MsgType::kGetLastChild ? dom.GetLastChild(node)
                                               : dom.GetNextSibling(node);
      put_status(res.status());
      if (res.ok()) {
        w.U8(res->has_value() ? 1 : 0);
        if (res->has_value()) {
          PutNode(&w, WireNode{(*res)->splid.Encode(),
                               static_cast<uint8_t>((*res)->kind),
                               (*res)->name});
        }
      }
      break;
    }
    case MsgType::kGetChildNodes: {
      Splid node;
      if (!r.SplidVal(&node) || !r.AtEnd()) return {};
      auto res = dom.GetChildNodes(node);
      put_status(res.status());
      if (res.ok()) {
        w.U32(static_cast<uint32_t>(res->size()));
        for (const DomNode& n : *res) {
          PutNode(&w, WireNode{n.splid.Encode(), static_cast<uint8_t>(n.kind),
                               n.name});
        }
      }
      break;
    }
    case MsgType::kGetTextContent: {
      Splid node;
      if (!r.SplidVal(&node) || !r.AtEnd()) return {};
      auto res = dom.GetTextContent(node);
      put_status(res.status());
      if (res.ok()) w.Str(*res);
      break;
    }
    case MsgType::kDeclareUpdateIntent: {
      Splid node;
      if (!r.SplidVal(&node) || !r.AtEnd()) return {};
      put_status(dom.DeclareUpdateIntent(node));
      break;
    }
    case MsgType::kUpdateText: {
      Splid node;
      std::string content;
      if (!r.SplidVal(&node) || !r.Str(&content) || !r.AtEnd()) return {};
      put_status(dom.UpdateText(node, content));
      break;
    }
    case MsgType::kSetAttribute: {
      Splid node;
      std::string name, value;
      if (!r.SplidVal(&node) || !r.Str(&name) || !r.Str(&value) || !r.AtEnd()) {
        return {};
      }
      put_status(dom.SetAttribute(node, name, value));
      break;
    }
    case MsgType::kAppendSubtree: {
      Splid parent;
      SubtreeSpec spec;
      if (!r.SplidVal(&parent) || !r.Spec(&spec) || !r.AtEnd()) return {};
      auto res = dom.AppendSubtree(parent, spec);
      put_status(res.status());
      if (res.ok()) w.SplidVal(*res);
      break;
    }
    case MsgType::kDeleteSubtree: {
      Splid node;
      if (!r.SplidVal(&node) || !r.AtEnd()) return {};
      put_status(dom.DeleteSubtree(node));
      break;
    }
    case MsgType::kRename: {
      Splid node;
      std::string name;
      if (!r.SplidVal(&node) || !r.Str(&name) || !r.AtEnd()) return {};
      put_status(dom.Rename(node, name));
      break;
    }
    default:
      return {};
  }
  return std::move(w.str());
}

MetricSet Server::Metrics() const {
  RunStats run = metrics_.Snapshot();
  run.lock_stats = deps_.table->GetStats();
  if (deps_.wal != nullptr) run.wal = deps_.wal->stats();
  run.net_server = stats();
  return CollectRunMetrics(run);
}

std::string Server::HandleStats() {
  WireWriter w;
  PutStatus(&w, Status::OK());
  PutMetrics(&w, Metrics());
  return std::move(w.str());
}

std::string Server::HandleWorkloadInfo() {
  WireWriter w;
  if (deps_.info == nullptr) {
    PutStatus(&w, Status::NotFound("server has no workload loaded"));
    return std::move(w.str());
  }
  PutStatus(&w, Status::OK());
  w.U64(deps_.info->num_nodes);
  const auto put_list = [&w](const std::vector<std::string>& v) {
    w.U32(static_cast<uint32_t>(v.size()));
    for (const std::string& s : v) w.Str(s);
  };
  put_list(deps_.info->book_ids);
  put_list(deps_.info->topic_ids);
  put_list(deps_.info->person_ids);
  return std::move(w.str());
}

void Server::AbortCore(SessionCore* core) {
  if (core->tx == nullptr) return;
  if (!deps_.txm->Abort(*core->tx).ok()) {
    metrics_.RecordUndoFailure(core->tx_type);
  }
  metrics_.RecordAbort(core->tx_type,
                       core->last_error.ok()
                           ? Status::TxAborted("session closed")
                           : core->last_error);
  stats_.Add(&ServerStats::tx_aborted);
  core->tx.reset();
  active_tx_.fetch_sub(1, std::memory_order_acq_rel);
}

void Server::AbortSessionTx(Session* s) {
  AbortCore(s->core.get());
  s->tx_id.store(0, std::memory_order_release);
}

// --- Shutdown -------------------------------------------------------------

void Server::Drain() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (draining_.exchange(true)) return;
  accepting_.store(false, std::memory_order_release);
  WakeLoop();

  // Parked cores hold active_tx_ slots but no client will ever finish
  // them now (accepting_ is off) — abort them up front so phase 1 only
  // waits on genuinely in-flight work.
  AbortAllParked();

  // Phase 1: wait for in-flight transactions to finish on their own.
  const TimePoint deadline = Now() + options_.drain_timeout;
  while (active_tx_.load(std::memory_order_acquire) > 0 && Now() < deadline) {
    SleepFor(kDrainPollInterval);
  }

  // Phase 2: evict stragglers. Closing cancels any parked lock waits and
  // aborts each session's transaction (immediately, or via its worker).
  std::vector<SessionPtr> remaining;
  {
    MutexLock guard(sessions_mu_);
    for (const auto& [id, s] : sessions_) remaining.push_back(s);
  }
  for (const SessionPtr& s : remaining) BeginClose(s);
  const TimePoint hard_deadline = Now() + options_.drain_timeout;
  while (active_tx_.load(std::memory_order_acquire) > 0 &&
         Now() < hard_deadline) {
    SleepFor(kDrainPollInterval);
  }
  // A teardown that raced the draining_ flag may have parked after the
  // first flush; nothing new can park from here (LeasesActive is false).
  AbortAllParked();

  // Phase 3: everything committed or aborted is made durable.
  if (deps_.wal != nullptr) (void)deps_.wal->Sync();
}

void Server::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  Drain();
  if (stopping_.exchange(true)) return;
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(stop_fd_, &one, sizeof(one));
  WakeLoop();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  if (loop_thread_.joinable()) loop_thread_.join();

  // Single-threaded from here: release every remaining resource.
  std::vector<SessionPtr> remaining;
  {
    MutexLock guard(sessions_mu_);
    for (const auto& [id, s] : sessions_) remaining.push_back(s);
    sessions_.clear();
  }
  for (const SessionPtr& s : remaining) {
    AbortSessionTx(s.get());
    ::close(s->fd);
    stats_.Add(&ServerStats::sessions_closed);
  }
  AbortAllParked();
  {
    MutexLock guard(parked_mu_);
    live_tokens_.clear();
  }
  CloseDeadFds();
  for (int fd :
       {listen_fd_, event_fd_, epoll_fd_, stop_fd_, worker_epoll_fd_}) {
    if (fd >= 0) ::close(fd);
  }
  listen_fd_ = event_fd_ = epoll_fd_ = stop_fd_ = worker_epoll_fd_ = -1;
}

ServerStats Server::stats() const {
  ServerStats s = stats_.Load();
  {
    MutexLock guard(sessions_mu_);
    s.active_sessions = sessions_.size();
  }
  s.active_tx = active_tx_.load(std::memory_order_acquire);
  {
    MutexLock guard(parked_mu_);
    s.parked_sessions = parked_.size();
  }
  return s;
}

}  // namespace net
}  // namespace xtc
