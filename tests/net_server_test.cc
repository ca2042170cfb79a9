// Socket front-end tests (DESIGN.md §8), over real loopback sockets:
// transaction lifecycle through the wire, the malformed-bytes battery
// (garbage, truncation, bad CRC, oversized length, mid-frame disconnect),
// admission control, idle reaping, disconnect-aborts-transaction, drain
// cancelling a parked lock waiter, and remote execution of the TaMix
// bodies. The invariant every test ends on: no transaction leaks — the
// engine is quiescent no matter what the client did.

#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/chaos_proxy.h"
#include "net/client.h"
#include "net/wire.h"
#include "protocols/protocol_registry.h"
#include "tamix/coordinator.h"
#include "tamix/transactions.h"
#include "util/crc32.h"
#include "util/fault_injector.h"

namespace xtc {
namespace net {
namespace {

/// Spins until `pred` holds (session teardown is asynchronous: the event
/// loop notices the disconnect, a worker aborts the transaction).
template <typename Pred>
bool PollUntil(Pred pred, Duration timeout = std::chrono::seconds(10)) {
  const TimePoint deadline = Now() + timeout;
  while (!pred()) {
    if (Now() > deadline) return false;
    SleepFor(Millis(5));
  }
  return true;
}

/// Raw TCP connection for speaking deliberately broken bytes.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() { Close(); }

  bool ok() const { return fd_ >= 0; }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  /// Orderly EOF towards the server; responses can still be read.
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  bool Send(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one whole response frame; empty payload pointer result means
  /// EOF / error / timeout.
  bool RecvFrame(FrameHeader* header, std::string* payload) {
    std::string hdr(kHeaderSize, '\0');
    if (!RecvExactly(hdr.data(), kHeaderSize)) return false;
    if (!DecodeHeader(hdr, header).ok()) return false;
    payload->resize(header->payload_len);
    if (header->payload_len > 0 &&
        !RecvExactly(payload->data(), payload->size())) {
      return false;
    }
    return CheckPayload(*header, *payload).ok();
  }

  /// True when the server closed the connection (recv returns 0) within
  /// the socket timeout.
  bool AwaitEof() {
    char buf[256];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;  // timeout/error: connection still open
    }
  }

 private:
  bool RecvExactly(char* buf, size_t n) {
    size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd_, buf + got, n - got, 0);
      if (r <= 0) return false;
      got += static_cast<size_t>(r);
    }
    return true;
  }

  int fd_ = -1;
};

std::string BeginPayload(IsolationLevel isolation = IsolationLevel::kRepeatable,
                         int lock_depth = 7,
                         TxType type = TxType::kQueryBook) {
  WireWriter w;
  w.U8(static_cast<uint8_t>(isolation));
  w.U8(static_cast<uint8_t>(lock_depth));
  w.U8(static_cast<uint8_t>(type));
  return w.str();
}

// --- Exact stream offsets for the torn-frame batteries --------------------
// The chaos proxy shapes raw bytes, so the batteries compute every cut
// point from the wire encoding itself instead of hard-coding offsets
// that would silently rot when the protocol changes.

size_t OkStatusBytes() {
  WireWriter w;
  PutStatus(&w, Status::OK());
  return w.str().size();
}

size_t HelloRequestBytes() {
  WireWriter w;
  w.Str("xtc-tamix-client");
  return kHeaderSize + w.str().size();
}

/// Hello response: status, version, token id, token secret, lease ms.
size_t HelloResponseBytes() {
  return kHeaderSize + OkStatusBytes() + 1 + 8 + 8 + 4;
}

size_t BeginRequestBytes() { return kHeaderSize + BeginPayload().size(); }

/// Begin response: status, transaction id.
size_t BeginResponseBytes() { return kHeaderSize + OkStatusBytes() + 8; }

size_t CommitRequestBytes() {
  WireWriter w;
  w.Str("");  // empty wal_payload, as Client::Commit() sends by default
  return kHeaderSize + w.str().size();
}

/// Commit response: status, commit sequence number.
size_t CommitResponseBytes() { return kHeaderSize + OkStatusBytes() + 8; }

/// A client that reconnects, resumes and retries; short deadlines so the
/// half-open scenarios resolve in test time.
ClientOptions ResilientOptions() {
  ClientOptions o;
  o.io_timeout = Millis(400);
  o.max_reconnect_attempts = 10;
  o.backoff = Millis(5);
  o.backoff_max = Millis(40);
  o.seed = 7;
  return o;
}

ServerOptions LeaseOptions() {
  ServerOptions o;
  o.session_lease = std::chrono::seconds(30);
  return o;
}

class NetServerTest : public ::testing::Test {
 protected:
  void BuildEngine(Duration wait_timeout = Millis(2000),
                   FaultInjector* tx_faults = nullptr,
                   FaultInjector* lock_faults = nullptr) {
    auto info = GenerateBib(&doc_, BibConfig::Tiny());
    ASSERT_TRUE(info.ok());
    info_ = std::move(*info);
    LockTableOptions lock_options;
    lock_options.wait_timeout = wait_timeout;
    lock_options.fault_injector = lock_faults;
    protocol_ = CreateProtocol("taDOM3+", lock_options);
    ASSERT_NE(protocol_, nullptr);
    lm_ = std::make_unique<LockManager>(protocol_.get());
    tm_ = std::make_unique<TransactionManager>(lm_.get(), tx_faults);
    nm_ = std::make_unique<NodeManager>(&doc_, lm_.get());
  }

  void StartServer(ServerOptions options = {},
                   FaultInjector* faults = nullptr) {
    if (nm_ == nullptr) BuildEngine();
    server_ = std::make_unique<Server>(
        Server::Deps{nm_.get(), tm_.get(), &protocol_->table(), &info_,
                     nullptr, faults},
        options);
    ASSERT_TRUE(server_->Start().ok());
  }

  /// The one invariant every scenario must restore: no leaked
  /// transactions, no leaked sessions.
  void ExpectQuiescent() {
    EXPECT_TRUE(PollUntil([&] { return tm_->num_active() == 0; }))
        << tm_->num_active() << " transactions still active";
  }

  Document doc_;
  BibInfo info_;
  std::unique_ptr<XmlProtocol> protocol_;
  std::unique_ptr<LockManager> lm_;
  std::unique_ptr<TransactionManager> tm_;
  std::unique_ptr<NodeManager> nm_;
  std::unique_ptr<Server> server_;  // last member: destroyed first
};

TEST_F(NetServerTest, BeginNavigateCommit) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  auto tx_id = client.Begin(IsolationLevel::kRepeatable, 7,
                            TxType::kQueryBook);
  ASSERT_TRUE(tx_id.ok());
  EXPECT_GT(*tx_id, 0u);

  RemoteDom dom(&client);
  auto book = dom.GetElementById(info_.book_ids[0]);
  ASSERT_TRUE(book.ok());
  ASSERT_TRUE(book->has_value());
  auto children = dom.GetChildNodes(**book);
  ASSERT_TRUE(children.ok());
  EXPECT_FALSE(children->empty());
  auto attrs = dom.GetAttributes(**book);
  ASSERT_TRUE(attrs.ok());
  auto missing = dom.GetElementById("no-such-id");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->has_value());

  auto seq = client.Commit();
  ASSERT_TRUE(seq.ok());
  client.Close();

  ExpectQuiescent();
  EXPECT_EQ(server_->stats().tx_committed, 1u);
}

TEST_F(NetServerTest, AbortCountsUndoFailure) {
  // An undo action failing inside a client's Abort shows up in the
  // server's own metrics, as it does in an in-process run.
  FaultInjector faults(1);
  BuildEngine(Millis(2000), &faults);
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      client.Begin(IsolationLevel::kRepeatable, 7, TxType::kChapter).ok());
  // The first text node under a book (its title's content).
  auto book = doc_.LookupId(info_.book_ids[0]);
  ASSERT_TRUE(book.has_value());
  auto title = doc_.FirstChild(*book);
  ASSERT_TRUE(title.ok() && title->has_value());
  auto text = doc_.FirstChild((*title)->splid);
  ASSERT_TRUE(text.ok() && text->has_value());
  ASSERT_EQ((*text)->record.kind, NodeKind::kText);
  RemoteDom dom(&client);
  ASSERT_TRUE(dom.UpdateText((*text)->splid, "rewritten").ok());

  FaultPointConfig undo;
  undo.probability = 1.0;
  faults.Arm(fault_points::kTxUndo, undo);
  ASSERT_TRUE(client.Abort().ok());
  client.Close();
  ExpectQuiescent();
  server_->Stop();

  double undo_failures = -1;
  for (const Metric& m : server_->Metrics()) {
    if (m.name == "tx.TAchapter.undo_failures") undo_failures = m.value;
  }
  EXPECT_EQ(undo_failures, 1);
}

TEST_F(NetServerTest, AbortIsClassifiedByTheFailedOpStatus) {
  // The client aborts after a DOM op failed with kLockTimeout; the
  // server counts that abort as a timeout abort, as an in-process run
  // would.
  FaultInjector faults(1);
  BuildEngine(Millis(2000), nullptr, &faults);
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
  FaultPointConfig timeout;
  timeout.probability = 1.0;
  faults.Arm(fault_points::kLockTimeout, timeout);
  RemoteDom dom(&client);
  EXPECT_EQ(dom.GetElementById(info_.book_ids[0]).status().code(),
            StatusCode::kLockTimeout);
  ASSERT_TRUE(client.Abort().ok());
  client.Close();
  ExpectQuiescent();
  server_->Stop();

  double timeout_aborts = -1;
  for (const Metric& m : server_->Metrics()) {
    if (m.name == "tx.TAqueryBook.timeout_aborts") timeout_aborts = m.value;
  }
  EXPECT_EQ(timeout_aborts, 1);
}

TEST_F(NetServerTest, LifecycleErrorsKeepConnectionUsable) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  // Commit without a transaction: an error, not a disconnect.
  EXPECT_EQ(client.Commit().status().code(), StatusCode::kInvalidArgument);
  // Abort without a transaction: a no-op.
  EXPECT_TRUE(client.Abort().ok());
  // Begin twice: second fails, the open transaction survives.
  ASSERT_TRUE(
      client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
  EXPECT_EQ(client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.Commit().ok());
  client.Close();
  ExpectQuiescent();
}

TEST_F(NetServerTest, DomOpWithoutTransactionIsError) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  RemoteDom dom(&client);
  EXPECT_EQ(dom.GetElementById(info_.book_ids[0]).status().code(),
            StatusCode::kInvalidArgument);
  // Still usable afterwards.
  ASSERT_TRUE(
      client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
  EXPECT_TRUE(client.Abort().ok());
  ExpectQuiescent();
}

// --- Worker ownership of sessions ----------------------------------------

TEST_F(NetServerTest, OneWorkerInterleavesOpenTransactions) {
  // A worker owns a session only while it runs the frames one read
  // delivered. With a single worker, two sessions that each hold an open
  // transaction must take turns call by call; a worker that stayed with
  // one session between frames would leave the other unanswered (think
  // time between DOM calls would then cost a worker).
  ServerOptions options;
  options.num_workers = 1;
  StartServer(options);
  ClientOptions client_options;
  client_options.io_timeout = std::chrono::seconds(1);
  Client first(client_options), second(client_options);
  ASSERT_TRUE(first.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(second.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      first.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
  ASSERT_TRUE(
      second.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
  RemoteDom doms[2] = {RemoteDom(&first), RemoteDom(&second)};
  for (int call = 0; call < 50; ++call) {
    for (RemoteDom& dom : doms) {
      const TimePoint start = Now();
      auto book =
          dom.GetElementById(info_.book_ids[call % info_.book_ids.size()]);
      ASSERT_TRUE(book.ok()) << "call " << call << ": "
                             << book.status().ToString();
      EXPECT_TRUE(book->has_value());
      EXPECT_LT(Now() - start, std::chrono::seconds(1)) << "call " << call;
    }
  }
  ASSERT_TRUE(first.Commit().ok());
  ASSERT_TRUE(second.Commit().ok());
  ExpectQuiescent();
  EXPECT_EQ(server_->stats().tx_committed, 2u);
}

TEST_F(NetServerTest, PipelinedFramesThenEofAllExecuteInOrder) {
  // Four requests in one send, then an orderly EOF. The worker reads once
  // per wake-up and re-arms, so the EOF arrives on a later wake-up than
  // the frames; every frame that preceded it must still run, in order,
  // and the session closes only afterwards.
  StartServer();
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  WireWriter hello, lookup, commit;
  hello.Str("pipeliner");
  lookup.Str(info_.book_ids[0]);
  commit.Str("");
  const MsgType types[] = {MsgType::kHello, MsgType::kBegin,
                           MsgType::kGetElementById, MsgType::kCommit};
  const std::string payloads[] = {hello.str(), BeginPayload(), lookup.str(),
                                  commit.str()};
  std::string stream;
  for (uint32_t i = 0; i < 4; ++i) {
    stream += EncodeFrame(static_cast<uint8_t>(types[i]), i + 1, payloads[i]);
  }
  ASSERT_TRUE(conn.Send(stream));
  conn.ShutdownWrite();

  for (uint32_t i = 0; i < 4; ++i) {
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(conn.RecvFrame(&header, &payload)) << "response " << i;
    EXPECT_EQ(header.request_id, i + 1);
    EXPECT_EQ(header.type, static_cast<uint8_t>(types[i]) | kResponseBit);
    WireReader r(payload);
    Status st;
    ASSERT_TRUE(GetStatus(&r, &st));
    EXPECT_TRUE(st.ok()) << "response " << i << ": " << st.ToString();
  }
  EXPECT_TRUE(conn.AwaitEof());
  EXPECT_EQ(server_->stats().tx_committed, 1u);
  ExpectQuiescent();
}

// --- Malformed-bytes battery ---------------------------------------------

TEST_F(NetServerTest, GarbageBytesDisconnectCleanly) {
  StartServer();
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  std::string junk(64, '\0');
  for (size_t i = 0; i < junk.size(); ++i) {
    junk[i] = static_cast<char>(i * 37 + 11);
  }
  ASSERT_TRUE(conn.Send(junk));
  EXPECT_TRUE(conn.AwaitEof());
  ExpectQuiescent();
  EXPECT_TRUE(PollUntil([&] { return server_->stats().protocol_errors >= 1; }));
  // The server must survive it: a clean client still works.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
  EXPECT_TRUE(client.Commit().ok());
}

TEST_F(NetServerTest, MidFrameDisconnectAbortsOpenTransaction) {
  StartServer();
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());

  // A well-formed Begin opens a server-side transaction...
  const std::string begin =
      EncodeFrame(static_cast<uint8_t>(MsgType::kBegin), 1, BeginPayload());
  ASSERT_TRUE(conn.Send(begin));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn.RecvFrame(&header, &payload));
  {
    WireReader r(payload);
    Status st;
    ASSERT_TRUE(GetStatus(&r, &st));
    ASSERT_TRUE(st.ok());
  }
  ASSERT_TRUE(PollUntil([&] { return tm_->num_active() == 1; }));

  // ...then the client dies mid-frame (half a header on the wire).
  ASSERT_TRUE(conn.Send(begin.substr(0, kHeaderSize / 2)));
  conn.Close();

  // The abandoned transaction must be aborted, not leaked.
  ExpectQuiescent();
  EXPECT_TRUE(PollUntil([&] { return server_->stats().tx_aborted >= 1; }));
}

TEST_F(NetServerTest, BadPayloadCrcGetsErrorResponseThenDisconnect) {
  StartServer();
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());

  std::string frame =
      EncodeFrame(static_cast<uint8_t>(MsgType::kBegin), 9, BeginPayload());
  frame[kHeaderSize] = static_cast<char>(frame[kHeaderSize] ^ 1);
  ASSERT_TRUE(conn.Send(frame));

  // The header was sound, so the server can still answer: an error
  // response (echoing request_id), then the connection closes.
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn.RecvFrame(&header, &payload));
  EXPECT_EQ(header.request_id, 9u);
  WireReader r(payload);
  Status st;
  ASSERT_TRUE(GetStatus(&r, &st));
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(conn.AwaitEof());
  ExpectQuiescent();
}

TEST_F(NetServerTest, CorruptHeaderDisconnectsSilently) {
  StartServer();
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  std::string frame =
      EncodeFrame(static_cast<uint8_t>(MsgType::kBegin), 1, BeginPayload());
  frame[2] = static_cast<char>(frame[2] ^ 0x40);  // breaks the header CRC
  ASSERT_TRUE(conn.Send(frame));
  // A corrupted header means the stream cannot be resynchronized: no
  // response (type/request_id are untrustworthy), just a close.
  EXPECT_TRUE(conn.AwaitEof());
  ExpectQuiescent();
}

TEST_F(NetServerTest, OversizedDeclaredLengthDisconnects) {
  StartServer();
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  // Honest header CRC over a hostile payload_len: the cap check fires.
  std::string frame = EncodeFrame(static_cast<uint8_t>(MsgType::kBegin), 1,
                                  BeginPayload());
  const uint32_t len = kMaxPayload + 1;
  std::memcpy(frame.data(), &len, sizeof(len));
  const uint32_t crc = Crc32(frame.data(), 16);
  std::memcpy(frame.data() + 16, &crc, sizeof(crc));
  ASSERT_TRUE(conn.Send(frame));
  EXPECT_TRUE(conn.AwaitEof());
  ExpectQuiescent();
}

TEST_F(NetServerTest, ResponseBitOnRequestRejected) {
  StartServer();
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  const std::string frame =
      EncodeFrame(static_cast<uint8_t>(MsgType::kBegin) | kResponseBit, 3,
                  BeginPayload());
  ASSERT_TRUE(conn.Send(frame));
  // Framing is intact, so the server answers before disconnecting.
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn.RecvFrame(&header, &payload));
  WireReader r(payload);
  Status st;
  ASSERT_TRUE(GetStatus(&r, &st));
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(conn.AwaitEof());
  ExpectQuiescent();
}

TEST_F(NetServerTest, MalformedRequestPayloadDisconnects) {
  StartServer();
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  // Structurally valid frame, garbage Begin payload (1 byte short).
  const std::string frame = EncodeFrame(static_cast<uint8_t>(MsgType::kBegin),
                                        4, BeginPayload().substr(0, 2));
  ASSERT_TRUE(conn.Send(frame));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn.RecvFrame(&header, &payload));
  WireReader r(payload);
  Status st;
  ASSERT_TRUE(GetStatus(&r, &st));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(conn.AwaitEof());
  ExpectQuiescent();
}

// --- Admission control ----------------------------------------------------

TEST_F(NetServerTest, InFlightTransactionCapRejectsBegin) {
  ServerOptions options;
  options.max_in_flight_tx = 1;
  StartServer(options);

  Client first, second;
  ASSERT_TRUE(first.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(second.Connect("127.0.0.1", server_->port()).ok());

  ASSERT_TRUE(
      first.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
  // Over the cap: clean kResourceExhausted, connection intact.
  EXPECT_EQ(second.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(first.Commit().ok());
  // Capacity freed: the rejected client can begin now.
  EXPECT_TRUE(
      second.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
  EXPECT_TRUE(second.Commit().ok());
  ExpectQuiescent();
  EXPECT_GE(server_->stats().admission_rejected, 1u);
}

/// A RemoteSession that tallies what every Begin answered.
class TallyingSession : public TaMixSession {
 public:
  TallyingSession(uint16_t port, const std::atomic<bool>* stop)
      : session_("127.0.0.1", port, ClientOptions{}, stop), stop_(stop) {}

  Status Begin(IsolationLevel isolation, int lock_depth,
               TxType type) override {
    Status st = session_.Begin(isolation, lock_depth, type);
    if (st.ok()) {
      ++admitted;
    } else if (st.code() == StatusCode::kResourceExhausted) {
      ++shed;
    } else if (!stop_->load()) {  // at stop, an unconnected Begin cancels
      unexpected.push_back(st.ToString());
    }
    return st;
  }
  TaMixDom& dom() override { return session_.dom(); }
  StatusOr<uint64_t> Commit(std::string_view payload) override {
    return session_.Commit(payload);
  }
  Status Abort() override { return session_.Abort(); }

  uint64_t admitted = 0;
  uint64_t shed = 0;
  std::vector<std::string> unexpected;

 private:
  RemoteSession session_;
  const std::atomic<bool>* stop_;
};

TEST_F(NetServerTest, AdmissionCapHoldsUnderAStampede) {
  // Twelve zero-think closed-loop TaMix workers against a cap of four:
  // many Begins race HandleBegin's optimistic increment-and-undo at once.
  ServerOptions options;
  options.max_in_flight_tx = 4;
  StartServer(options);

  RunConfig config;
  config.time_scale = 1.0 / 100;  // pushback backs off 1 ms
  config.wait_after_commit = Duration::zero();
  config.wait_after_operation = Duration::zero();
  config.max_initial_wait = Duration::zero();
  MetricsCollector metrics;
  std::atomic<bool> stop{false};
  const WorkerShared shared{&config, &info_, &stop, &metrics, nullptr};
  const TxType kTypes[] = {TxType::kQueryBook, TxType::kChapter,
                           TxType::kRenameTopic, TxType::kLendAndReturn};
  std::vector<std::unique_ptr<TallyingSession>> sessions;
  std::vector<std::thread> workers;
  for (uint64_t i = 0; i < 12; ++i) {
    sessions.push_back(
        std::make_unique<TallyingSession>(server_->port(), &stop));
    workers.emplace_back([&shared, &kTypes, i, s = sessions.back().get()] {
      RunTaMixWorker(shared, *s, kTypes[i % 4], i);
    });
  }
  // An engine transaction takes its admission slot before it begins and
  // gives it back after it ends, so the cap bounds them at every instant.
  size_t peak = 0;
  for (const TimePoint end = Now() + Millis(500); Now() < end;) {
    peak = std::max(peak, tm_->num_active());
    SleepFor(Micros(200));
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  EXPECT_LE(peak, options.max_in_flight_tx);

  uint64_t admitted = 0;
  uint64_t shed = 0;
  for (const auto& s : sessions) {
    EXPECT_TRUE(s->unexpected.empty()) << s->unexpected.front();
    admitted += s->admitted;
    shed += s->shed;
  }
  sessions.clear();  // closes every connection
  ExpectQuiescent();
  // Every undo leaves the in-flight count where it found it.
  EXPECT_TRUE(PollUntil([&] { return server_->stats().active_tx == 0; }));
  const ServerStats stats = server_->stats();
  EXPECT_GT(stats.tx_committed, 0u);
  EXPECT_GT(stats.admission_rejected, 0u);
  EXPECT_EQ(stats.tx_begun, admitted);
  EXPECT_EQ(stats.admission_rejected, shed);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST_F(NetServerTest, SessionCapClosesExtraConnections) {
  ServerOptions options;
  options.max_sessions = 1;
  StartServer(options);
  Client keeper;
  ASSERT_TRUE(keeper.Connect("127.0.0.1", server_->port()).ok());
  // Over the cap: accepted and immediately closed, so either the hello
  // round trip or the connect itself fails.
  Client extra;
  EXPECT_FALSE(extra.Connect("127.0.0.1", server_->port()).ok());
  EXPECT_TRUE(
      PollUntil([&] { return server_->stats().sessions_rejected >= 1; }));
}

// --- Lifecycle: reap, disconnect, drain -----------------------------------

TEST_F(NetServerTest, IdleSessionIsReaped) {
  ServerOptions options;
  options.idle_timeout = Millis(300);
  StartServer(options);
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  // Say nothing: the reaper must close us (loop ticks every 250 ms).
  EXPECT_TRUE(conn.AwaitEof());
  EXPECT_TRUE(PollUntil([&] { return server_->stats().idle_reaped >= 1; }));
}

TEST_F(NetServerTest, DisconnectReleasesLocksForOtherClients) {
  StartServer();
  Client holder;
  ASSERT_TRUE(holder.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      holder.Begin(IsolationLevel::kRepeatable, 7, TxType::kRenameTopic)
          .ok());
  RemoteDom holder_dom(&holder);
  auto book = holder_dom.GetElementById(info_.book_ids[0]);
  ASSERT_TRUE(book.ok() && book->has_value());
  ASSERT_TRUE(holder_dom.DeclareUpdateIntent(**book).ok());
  ASSERT_TRUE(holder_dom.Rename(**book, "book").ok());  // exclusive lock

  // Vanish without commit/abort. The server must abort the orphan and
  // release its locks, or this second client times out below.
  holder.Close();

  Client next;
  ASSERT_TRUE(next.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      next.Begin(IsolationLevel::kRepeatable, 7, TxType::kRenameTopic).ok());
  RemoteDom next_dom(&next);
  auto same = next_dom.GetElementById(info_.book_ids[0]);
  ASSERT_TRUE(same.ok() && same->has_value());
  ASSERT_TRUE(next_dom.DeclareUpdateIntent(**same).ok());
  EXPECT_TRUE(next_dom.Rename(**same, "book").ok());
  EXPECT_TRUE(next.Commit().ok());
  ExpectQuiescent();
}

TEST_F(NetServerTest, DrainCancelsParkedLockWaiter) {
  // Long lock waits: without cancellation, drain would sit the full
  // wait_timeout behind the parked waiter.
  BuildEngine(/*wait_timeout=*/std::chrono::seconds(60));
  ServerOptions options;
  options.drain_timeout = Millis(300);
  StartServer(options);

  Client holder;
  ASSERT_TRUE(holder.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      holder.Begin(IsolationLevel::kRepeatable, 7, TxType::kRenameTopic)
          .ok());
  RemoteDom holder_dom(&holder);
  auto book = holder_dom.GetElementById(info_.book_ids[0]);
  ASSERT_TRUE(book.ok() && book->has_value());
  ASSERT_TRUE(holder_dom.DeclareUpdateIntent(**book).ok());
  ASSERT_TRUE(holder_dom.Rename(**book, "book").ok());

  // A second client parks inside LockTable::Lock() on the same node (its
  // first read of the renamed book conflicts with the holder's X lock).
  std::atomic<bool> waiter_returned{false};
  std::thread waiter([&] {
    Client blocked;
    if (blocked.Connect("127.0.0.1", server_->port()).ok() &&
        blocked.Begin(IsolationLevel::kRepeatable, 7, TxType::kRenameTopic)
            .ok()) {
      RemoteDom dom(&blocked);
      auto same = dom.GetElementById(info_.book_ids[0]);  // parks here
      if (same.ok() && same->has_value()) {
        (void)dom.DeclareUpdateIntent(**same);
        (void)dom.Rename(**same, "book");
      }
    }
    waiter_returned.store(true);
  });
  SleepFor(Millis(300));  // let the waiter actually park

  const TimePoint drain_start = Now();
  server_->Drain();
  const Duration drain_took = Now() - drain_start;
  // Both transactions were in flight, so the drain burned its bounded
  // timeout then cancelled — far below the 60 s lock wait.
  EXPECT_LT(ToMillis(drain_took), 10000);

  waiter.join();
  EXPECT_TRUE(waiter_returned.load());
  ExpectQuiescent();
  EXPECT_GE(protocol_->table().GetStats().cancelled, 1u);
}

// --- Remote workload ------------------------------------------------------

TEST_F(NetServerTest, AllTaMixBodiesRunRemotely) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  RemoteDom dom(&client);
  TaMixBodyRunner bodies(&info_, Duration::zero());
  Rng rng(1234);

  // Single-threaded, so every body must commit (no contention).
  for (TxType type :
       {TxType::kQueryBook, TxType::kChapter, TxType::kLendAndReturn,
        TxType::kRenameTopic, TxType::kDelBook}) {
    ASSERT_TRUE(client.Begin(IsolationLevel::kRepeatable, 7, type).ok())
        << TxTypeName(type);
    Rng body_rng(rng.Next());
    ASSERT_TRUE(bodies.RunBody(type, dom, body_rng).ok()) << TxTypeName(type);
    ASSERT_TRUE(client.Commit().ok()) << TxTypeName(type);
  }
  ExpectQuiescent();
  EXPECT_EQ(server_->stats().tx_committed, 5u);

  // The server-side metrics saw them, looked up by name: live snapshot
  // mid-run (the MarkRunStart fix) and per-type latency percentiles.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  double committed = 0;
  std::map<std::string, double> by_name;
  for (const Metric& m : *stats) {
    EXPECT_TRUE(by_name.emplace(m.name, m.value).second) << m.name;
    if (m.name.starts_with("tx.TA") && m.name.ends_with(".committed")) {
      committed += m.value;
    }
  }
  EXPECT_EQ(committed, 5.0);
  EXPECT_GT(by_name["run.duration_ms"], 0.0);
  EXPECT_GT(by_name["tx.TAqueryBook.p99_ms"], 0.0);
  EXPECT_EQ(by_name["net.server.tx_committed"], 5.0);
}

TEST_F(NetServerTest, WorkloadInfoShipsTheCatalog) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto remote = client.WorkloadInfo();
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(remote->book_ids, info_.book_ids);
  EXPECT_EQ(remote->topic_ids, info_.topic_ids);
  EXPECT_EQ(remote->person_ids, info_.person_ids);
  EXPECT_EQ(remote->num_nodes, info_.num_nodes);
}

TEST_F(NetServerTest, StopWithConnectedIdleClientsIsClean) {
  ServerOptions options;
  options.drain_timeout = Millis(300);  // an open tx burns the full wait
  StartServer(options);
  Client a, b;
  ASSERT_TRUE(a.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      a.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
  server_->Stop();
  EXPECT_EQ(tm_->num_active(), 0u);
}

// --- Network resilience: deadlines, leases, resume, exactly-once ----------

TEST_F(NetServerTest, IoDeadlineFiresAgainstHalfOpenPeer) {
  // A peer that acks the connection and then goes silent mid-response
  // header: without poll deadlines the client would block in recv
  // forever. The stall swallows everything past byte 10 of the hello
  // response (half a header) while keeping the connection open.
  StartServer();
  ChaosPlan plan;
  plan.stall_server_to_client = 10;
  ChaosProxy proxy(server_->port(), plan);
  ASSERT_TRUE(proxy.Start().ok());

  ClientOptions opts;
  opts.io_timeout = Millis(250);
  Client client(opts);
  const TimePoint t0 = Now();
  const Status st = client.Connect("127.0.0.1", proxy.port());
  const Duration elapsed = Now() - t0;

  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  EXPECT_LT(ToMillis(elapsed), 5000) << "deadline did not bound the recv";
  EXPECT_GE(client.net_stats().io_timeouts, 1u);
  proxy.Stop();
  ExpectQuiescent();
}

TEST_F(NetServerTest, TornCommitResponseEveryByteResolvesExactlyOnce) {
  // The commit executed; its response is cut off the wire at byte k, for
  // every k across the response header and payload (k == full size cuts
  // right after the last byte). Every cut must resolve to the SAME
  // commit, exactly once, through reconnect + resume + the outcome
  // table — never a second application, never kUnknown.
  //
  // k = 0 is unreachable by byte-cutting (the proxy's cut fires at the
  // end of the preceding chunk, severing before the commit request is
  // even sent); the zero-response-bytes case is exactly what
  // OutcomeRecordedBeforeResponseWrite covers via the net.send fault.
  const size_t pre = HelloResponseBytes() + BeginResponseBytes();
  const size_t resp = CommitResponseBytes();
  for (size_t k = 1; k <= resp; ++k) {
    SCOPED_TRACE("commit response cut at byte " + std::to_string(k));
    StartServer(LeaseOptions());
    ChaosPlan plan;
    plan.cut_server_to_client = static_cast<int64_t>(pre + k);
    plan.shape_conn_index = 0;  // the reconnect goes through untouched
    ChaosProxy proxy(server_->port(), plan);
    ASSERT_TRUE(proxy.Start().ok());

    Client client(ResilientOptions());
    ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()).ok());
    ASSERT_TRUE(
        client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
    auto seq = client.Commit();
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();

    const ServerStats ss = server_->stats();
    EXPECT_EQ(ss.tx_committed, 1u);
    EXPECT_EQ(ss.tx_aborted, 0u);
    if (k < resp) {
      // The torn response forced the resolution path.
      EXPECT_GE(ss.sessions_parked, 1u);
      EXPECT_EQ(ss.sessions_resumed, 1u);
      EXPECT_EQ(ss.dedup_hits, 1u);
      EXPECT_GE(client.net_stats().reconnects, 1u);
      EXPECT_GE(client.net_stats().retried_requests, 1u);
      EXPECT_FALSE(client.resumed_tx_open())
          << "commit had executed; resume must not find an open tx";
    }
    client.Close();
    proxy.Stop();
    ExpectQuiescent();
    server_->Stop();
  }
}

TEST_F(NetServerTest, TornCommitRequestEveryByteCommitsExactlyOnce) {
  // The commit request is cut off the wire at byte k before the server
  // could assemble it: the transaction parks OPEN under its lease, the
  // resumed client retries, and the commit executes exactly once — this
  // time for real, since the server never saw the original.
  const size_t pre = HelloRequestBytes() + BeginRequestBytes();
  const size_t req = CommitRequestBytes();
  // k = 0 would cut at the end of the Begin request (a different
  // scenario, covered by TornBeginResponseResolvesFromOutcomeTable).
  for (size_t k = 1; k <= req; ++k) {
    SCOPED_TRACE("commit request cut at byte " + std::to_string(k));
    StartServer(LeaseOptions());
    ChaosPlan plan;
    plan.cut_client_to_server = static_cast<int64_t>(pre + k);
    plan.shape_conn_index = 0;
    ChaosProxy proxy(server_->port(), plan);
    ASSERT_TRUE(proxy.Start().ok());

    Client client(ResilientOptions());
    ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()).ok());
    ASSERT_TRUE(
        client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
    auto seq = client.Commit();
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();

    const ServerStats ss = server_->stats();
    EXPECT_EQ(ss.tx_committed, 1u);
    EXPECT_EQ(ss.tx_aborted, 0u);
    if (k < req) {
      // The server never executed the original: the retry is a fresh
      // execution against the resumed open transaction, not a replay.
      EXPECT_EQ(ss.dedup_hits, 0u);
      EXPECT_EQ(ss.sessions_resumed, 1u);
      EXPECT_TRUE(client.resumed_tx_open());
    }
    client.Close();
    proxy.Stop();
    ExpectQuiescent();
    server_->Stop();
  }
}

TEST_F(NetServerTest, TornBeginResponseResolvesFromOutcomeTable) {
  // Severing right after the full Begin request: the server begun the
  // transaction but the client never learned its id. The retried Begin
  // must be answered from the outcome table — a re-execution would fail
  // ("transaction already open") or, worse, leak a second transaction.
  StartServer(LeaseOptions());
  ChaosPlan plan;
  plan.cut_client_to_server =
      static_cast<int64_t>(HelloRequestBytes() + BeginRequestBytes());
  plan.shape_conn_index = 0;
  ChaosProxy proxy(server_->port(), plan);
  ASSERT_TRUE(proxy.Start().ok());

  Client client(ResilientOptions());
  ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()).ok());
  auto tx_id = client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook);
  ASSERT_TRUE(tx_id.ok()) << tx_id.status().ToString();
  EXPECT_TRUE(client.Commit().ok());

  const ServerStats ss = server_->stats();
  EXPECT_EQ(ss.tx_begun, 1u) << "retried Begin must not open a second tx";
  EXPECT_EQ(ss.tx_committed, 1u);
  EXPECT_GE(ss.dedup_hits, 1u);
  client.Close();
  proxy.Stop();
  ExpectQuiescent();
}

TEST_F(NetServerTest, HalfOpenStallMidCommitResponseResolvesExactlyOnce) {
  // Like the cut battery, but the connection stays open while the bytes
  // vanish (a NAT silently dropping one direction): detection is the
  // client's recv deadline, not EOF. Mid-header and mid-payload points.
  const size_t pre = HelloResponseBytes() + BeginResponseBytes();
  for (size_t k : {size_t{10}, size_t{28}}) {
    SCOPED_TRACE("commit response stalled at byte " + std::to_string(k));
    StartServer(LeaseOptions());
    ChaosPlan plan;
    plan.stall_server_to_client = static_cast<int64_t>(pre + k);
    plan.shape_conn_index = 0;
    ChaosProxy proxy(server_->port(), plan);
    ASSERT_TRUE(proxy.Start().ok());

    Client client(ResilientOptions());
    ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()).ok());
    ASSERT_TRUE(
        client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
    auto seq = client.Commit();
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();

    const ServerStats ss = server_->stats();
    EXPECT_EQ(ss.tx_committed, 1u);
    EXPECT_EQ(ss.dedup_hits, 1u);
    EXPECT_GE(client.net_stats().io_timeouts, 1u);
    client.Close();
    proxy.Stop();
    ExpectQuiescent();
    server_->Stop();
  }
}

TEST_F(NetServerTest, OutcomeRecordedBeforeResponseWrite) {
  // The ordering invariant behind all of the above, tested at the fault
  // point itself: net.send fires on the commit response (the third send
  // of the session), so the bytes never leave the server — yet the
  // retried commit must still be answered from the outcome table. If
  // recording happened after the write, the retry would find no open
  // transaction and fail.
  FaultInjector faults(42);
  FaultPointConfig fp;
  fp.probability = 1.0;
  fp.one_shot = true;
  fp.skip_first = 2;  // let the hello and begin responses through
  faults.Arm(fault_points::kNetSend, fp);
  StartServer(LeaseOptions(), &faults);

  Client client(ResilientOptions());
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      client.Begin(IsolationLevel::kRepeatable, 7, TxType::kQueryBook).ok());
  auto seq = client.Commit();
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();

  EXPECT_EQ(faults.injections(fault_points::kNetSend), 1u);
  const ServerStats ss = server_->stats();
  EXPECT_EQ(ss.tx_committed, 1u);
  EXPECT_EQ(ss.dedup_hits, 1u);
  client.Close();
  ExpectQuiescent();
  server_->Stop();
}

TEST_F(NetServerTest, DuplicatedCommitFrameIsAnsweredFromOutcomeTable) {
  // A duplicated frame (retransmission, or the chaos proxy's duplicate
  // injury) replays a request_id the server already executed on the SAME
  // connection. The response must be byte-identical and the commit must
  // not run twice.
  StartServer();
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());

  ASSERT_TRUE(conn.Send(
      EncodeFrame(static_cast<uint8_t>(MsgType::kBegin), 2, BeginPayload())));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn.RecvFrame(&header, &payload));

  WireWriter cw;
  cw.Str("");
  const std::string commit =
      EncodeFrame(static_cast<uint8_t>(MsgType::kCommit), 3, cw.str());
  ASSERT_TRUE(conn.Send(commit));
  std::string first;
  ASSERT_TRUE(conn.RecvFrame(&header, &first));
  {
    WireReader r(first);
    Status st;
    ASSERT_TRUE(GetStatus(&r, &st));
    ASSERT_TRUE(st.ok());
  }

  ASSERT_TRUE(conn.Send(commit));  // byte-identical duplicate
  std::string second;
  ASSERT_TRUE(conn.RecvFrame(&header, &second));
  EXPECT_EQ(header.request_id, 3u);
  EXPECT_EQ(first, second) << "replay must return the recorded response";

  const ServerStats ss = server_->stats();
  EXPECT_EQ(ss.tx_committed, 1u);
  EXPECT_GE(ss.dedup_hits, 1u);
  conn.Close();
  ExpectQuiescent();
}

TEST_F(NetServerTest, OutcomeTableKeepsOnlyTheNewestEntries) {
  // The table is a ring of kOutcomeTableEntries outcomes per session. A
  // retried request_id still among the newest is answered from it; one
  // evicted by later requests executes again.
  StartServer();
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn.Send(
      EncodeFrame(static_cast<uint8_t>(MsgType::kBegin), 1, BeginPayload())));
  ASSERT_TRUE(conn.RecvFrame(&header, &payload));

  // Begin plus lookups 2..N+2 record N+2 outcomes: ids 3..N+2 remain.
  WireWriter lookup;
  lookup.Str(info_.book_ids[0]);
  const uint32_t last = static_cast<uint32_t>(kOutcomeTableEntries) + 2;
  std::map<uint32_t, std::string> responses;
  for (uint32_t id = 2; id <= last; ++id) {
    ASSERT_TRUE(conn.Send(EncodeFrame(
        static_cast<uint8_t>(MsgType::kGetElementById), id, lookup.str())));
    ASSERT_TRUE(conn.RecvFrame(&header, &responses[id]));
  }
  EXPECT_EQ(server_->stats().dedup_hits, 0u);

  const uint32_t oldest_kept = 3;
  ASSERT_TRUE(conn.Send(EncodeFrame(
      static_cast<uint8_t>(MsgType::kGetElementById), oldest_kept,
      lookup.str())));
  ASSERT_TRUE(conn.RecvFrame(&header, &payload));
  EXPECT_EQ(header.request_id, oldest_kept);
  EXPECT_EQ(payload, responses[oldest_kept]);
  EXPECT_EQ(server_->stats().dedup_hits, 1u);

  const uint32_t evicted = 2;
  ASSERT_TRUE(conn.Send(EncodeFrame(
      static_cast<uint8_t>(MsgType::kGetElementById), evicted, lookup.str())));
  ASSERT_TRUE(conn.RecvFrame(&header, &payload));
  EXPECT_EQ(header.request_id, evicted);
  {
    WireReader r(payload);
    Status st;
    ASSERT_TRUE(GetStatus(&r, &st));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_EQ(server_->stats().dedup_hits, 1u)
      << "an evicted request_id must execute again";
  conn.Close();
  ExpectQuiescent();
}

TEST_F(NetServerTest, LeaseParksDisconnectAndKeepsLocksHeld) {
  // With a lease, a disconnect is presumed transient: the transaction
  // parks with its locks HELD (a conflicting writer times out) instead
  // of aborting — the opposite of DisconnectReleasesLocksForOtherClients.
  BuildEngine(/*wait_timeout=*/Millis(250));
  StartServer(LeaseOptions());

  Client holder;
  ASSERT_TRUE(holder.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      holder.Begin(IsolationLevel::kRepeatable, 7, TxType::kRenameTopic).ok());
  RemoteDom holder_dom(&holder);
  auto book = holder_dom.GetElementById(info_.book_ids[0]);
  ASSERT_TRUE(book.ok() && book->has_value());
  ASSERT_TRUE(holder_dom.DeclareUpdateIntent(**book).ok());
  ASSERT_TRUE(holder_dom.Rename(**book, "book").ok());  // exclusive lock
  holder.Close();

  ASSERT_TRUE(
      PollUntil([&] { return server_->stats().sessions_parked >= 1; }));
  EXPECT_EQ(tm_->num_active(), 1u) << "lease must keep the tx alive";

  Client probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      probe.Begin(IsolationLevel::kRepeatable, 7, TxType::kRenameTopic).ok());
  RemoteDom probe_dom(&probe);
  auto same = probe_dom.GetElementById(info_.book_ids[0]);
  EXPECT_FALSE(same.ok()) << "parked tx must still hold its exclusive lock";
  EXPECT_TRUE(probe.Abort().ok());
  probe.Close();

  server_->Stop();  // drain aborts the parked core
  EXPECT_EQ(tm_->num_active(), 0u);
}

TEST_F(NetServerTest, LeaseExpiryAbortsParkedTransactionAndReleasesLocks) {
  ServerOptions options;
  options.session_lease = Millis(200);
  StartServer(options);

  Client holder;
  ASSERT_TRUE(holder.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      holder.Begin(IsolationLevel::kRepeatable, 7, TxType::kRenameTopic).ok());
  RemoteDom holder_dom(&holder);
  auto book = holder_dom.GetElementById(info_.book_ids[0]);
  ASSERT_TRUE(book.ok() && book->has_value());
  ASSERT_TRUE(holder_dom.DeclareUpdateIntent(**book).ok());
  ASSERT_TRUE(holder_dom.Rename(**book, "book").ok());
  holder.Close();

  ASSERT_TRUE(
      PollUntil([&] { return server_->stats().sessions_parked >= 1; }));
  // Nobody resumes: the lease ages out and the abort path releases the
  // locks just as an immediate disconnect-abort would have.
  ASSERT_TRUE(PollUntil([&] { return server_->stats().leases_expired >= 1; }));
  ExpectQuiescent();
  EXPECT_GE(server_->stats().tx_aborted, 1u);

  Client next;
  ASSERT_TRUE(next.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      next.Begin(IsolationLevel::kRepeatable, 7, TxType::kRenameTopic).ok());
  RemoteDom next_dom(&next);
  auto same = next_dom.GetElementById(info_.book_ids[0]);
  ASSERT_TRUE(same.ok() && same->has_value());
  ASSERT_TRUE(next_dom.DeclareUpdateIntent(**same).ok());
  EXPECT_TRUE(next_dom.Rename(**same, "book").ok());
  EXPECT_TRUE(next.Commit().ok());
  ExpectQuiescent();
}

TEST_F(NetServerTest, ResumeWithWrongSecretIsNotFound) {
  StartServer(LeaseOptions());

  // First connection: handshake for a token, open a transaction, vanish.
  RawConn first(server_->port());
  ASSERT_TRUE(first.ok());
  WireWriter hw;
  hw.Str("xtc-tamix-client");
  ASSERT_TRUE(first.Send(
      EncodeFrame(static_cast<uint8_t>(MsgType::kHello), 1, hw.str())));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(first.RecvFrame(&header, &payload));
  uint64_t token_id = 0, secret = 0;
  uint32_t lease_ms = 0;
  {
    WireReader r(payload);
    Status st;
    uint8_t version;
    ASSERT_TRUE(GetStatus(&r, &st) && st.ok());
    ASSERT_TRUE(r.U8(&version) && r.U64(&token_id) && r.U64(&secret) &&
                r.U32(&lease_ms));
  }
  EXPECT_NE(token_id, 0u);
  EXPECT_EQ(lease_ms, 30000u);
  ASSERT_TRUE(first.Send(
      EncodeFrame(static_cast<uint8_t>(MsgType::kBegin), 2, BeginPayload())));
  ASSERT_TRUE(first.RecvFrame(&header, &payload));
  first.Close();
  ASSERT_TRUE(
      PollUntil([&] { return server_->stats().sessions_parked >= 1; }));

  // Second connection: a wrong secret must be indistinguishable from an
  // expired lease (kNotFound), and must NOT burn the parked core.
  RawConn second(server_->port());
  ASSERT_TRUE(second.ok());
  {
    WireWriter w;
    w.U64(token_id);
    w.U64(secret ^ 1);
    ASSERT_TRUE(second.Send(
        EncodeFrame(static_cast<uint8_t>(MsgType::kResume), 1, w.str())));
    ASSERT_TRUE(second.RecvFrame(&header, &payload));
    WireReader r(payload);
    Status st;
    ASSERT_TRUE(GetStatus(&r, &st));
    EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
  }
  {
    WireWriter w;
    w.U64(token_id);
    w.U64(secret);
    ASSERT_TRUE(second.Send(
        EncodeFrame(static_cast<uint8_t>(MsgType::kResume), 2, w.str())));
    ASSERT_TRUE(second.RecvFrame(&header, &payload));
    WireReader r(payload);
    Status st;
    uint8_t tx_open = 0;
    ASSERT_TRUE(GetStatus(&r, &st) && st.ok());
    ASSERT_TRUE(r.U8(&tx_open));
    EXPECT_EQ(tx_open, 1u) << "the parked transaction must still be open";
  }
  ASSERT_TRUE(
      second.Send(EncodeFrame(static_cast<uint8_t>(MsgType::kAbort), 3, "")));
  ASSERT_TRUE(second.RecvFrame(&header, &payload));
  EXPECT_EQ(server_->stats().sessions_resumed, 1u);
  second.Close();
  ExpectQuiescent();
}

TEST_F(NetServerTest, ResumeWithoutLeasesIsNotSupported) {
  StartServer();  // session_lease = 0: the pre-lease server
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.ok());
  WireWriter w;
  w.U64(1);
  w.U64(1);
  ASSERT_TRUE(conn.Send(
      EncodeFrame(static_cast<uint8_t>(MsgType::kResume), 1, w.str())));
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(conn.RecvFrame(&header, &payload));
  WireReader r(payload);
  Status st;
  ASSERT_TRUE(GetStatus(&r, &st));
  EXPECT_EQ(st.code(), StatusCode::kNotSupported) << st.ToString();
  ExpectQuiescent();
}

// --- Coordinator integration ----------------------------------------------

TEST(NetCoordinatorTest, SocketFrontendRunsCluster1) {
  // The full CLUSTER1 harness with every worker on its own socket: 72
  // remote TaMix clients over loopback against an embedded server. The
  // coordinator's own quiescence checks (lock table empty, zero active
  // transactions) run after the internal server stops.
  RunConfig config;
  config.time_scale = 1.0 / 200.0;  // 5 paper-minutes -> 1.5 s
  config.bib = BibConfig::Tiny();
  config.frontend = Frontend::kSocket;
  auto stats = RunCluster1(config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->total_committed(), 0u);
  // Read after Stop: clean clients cause no protocol error, and nothing
  // is left open.
  ASSERT_TRUE(stats->net_server.has_value());
  EXPECT_EQ(stats->net_server->protocol_errors, 0u);
  EXPECT_EQ(stats->net_server->active_tx, 0u);
  EXPECT_EQ(stats->net_server->active_sessions, 0u);
  EXPECT_EQ(stats->net_server->parked_sessions, 0u);
}

}  // namespace
}  // namespace net
}  // namespace xtc
