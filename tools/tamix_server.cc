// tamix_server: stand-alone XDBMS socket server (DESIGN.md §8).
//
// Builds the engine stack (bib document, lock protocol, transaction
// manager), starts the socket front-end on loopback and serves remote
// TaMix clients (tools/tamix_client) until stdin reaches EOF or
// --seconds elapses. Prints "listening on port N" on stdout (flushed)
// so scripts can grab the ephemeral port.
//
// Usage:
//   tamix_server [--port N] [--seconds S] [--protocol P]
//                [--isolation-cap] [--books N] [--topics N]
//                [--workers N] [--max-tx N] [--wait-timeout-ms N] [--json]
//
// --port N             listen port (default 0 = kernel-assigned)
// --seconds S          serve for S seconds then drain (default 0 = until
//                      stdin EOF)
// --protocol P         lock protocol (default taDOM3+)
// --books/--topics N   bib document size (default bench-sized)
// --workers N          request worker threads (default 32)
// --max-tx N           admission cap on in-flight transactions (default 64)
// --wait-timeout-ms N  lock wait timeout (default 3000)
// --json               print the final server metrics as JSON, not text

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "net/server.h"
#include "node/node_manager.h"
#include "protocols/protocol_registry.h"
#include "tamix/bib_generator.h"
#include "tx/transaction_manager.h"

using namespace xtc;

namespace {

int64_t ArgInt(int argc, char** argv, const char* flag, int64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::atoll(argv[i + 1]);
  }
  return fallback;
}

const char* ArgStr(int argc, char** argv, const char* flag,
                   const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const auto port = static_cast<uint16_t>(ArgInt(argc, argv, "--port", 0));
  const int64_t seconds = ArgInt(argc, argv, "--seconds", 0);
  const char* protocol_name = ArgStr(argc, argv, "--protocol", "taDOM3+");
  const bool json = HasFlag(argc, argv, "--json");

  Document doc;
  BibConfig bib = BibConfig::Bench();
  bib.num_books =
      static_cast<size_t>(ArgInt(argc, argv, "--books",
                                 static_cast<int64_t>(bib.num_books)));
  bib.num_topics =
      static_cast<size_t>(ArgInt(argc, argv, "--topics",
                                 static_cast<int64_t>(bib.num_topics)));
  auto info = GenerateBib(&doc, bib);
  if (!info.ok()) {
    std::fprintf(stderr, "bib generation failed: %s\n",
                 info.status().ToString().c_str());
    return 1;
  }

  LockTableOptions lock_options;
  lock_options.wait_timeout =
      Millis(ArgInt(argc, argv, "--wait-timeout-ms", 3000));
  std::unique_ptr<XmlProtocol> protocol =
      CreateProtocol(protocol_name, lock_options);
  if (protocol == nullptr) {
    std::fprintf(stderr, "unknown protocol: %s\n", protocol_name);
    return 1;
  }
  LockManager lock_manager(protocol.get());
  TransactionManager tx_manager(&lock_manager);
  NodeManager node_manager(&doc, &lock_manager);

  net::ServerOptions options;
  options.port = port;
  options.num_workers = static_cast<int>(ArgInt(argc, argv, "--workers", 32));
  options.max_in_flight_tx =
      static_cast<size_t>(ArgInt(argc, argv, "--max-tx", 64));
  net::Server server(
      net::Server::Deps{&node_manager, &tx_manager, &protocol->table(),
                        &*info, nullptr},
      options);
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("listening on port %u\n", server.port());
  std::fflush(stdout);

  if (seconds > 0) {
    SleepFor(std::chrono::seconds(seconds));
  } else {
    // Serve until the parent closes our stdin (clean scripted shutdown).
    char buf[256];
    while (std::fgets(buf, sizeof(buf), stdin) != nullptr) {
    }
  }
  server.Stop();

  const MetricSet metrics = server.Metrics();
  std::fputs((json ? ToJson(metrics) : ToText(metrics)).c_str(), stdout);
  // A leaked transaction here means a session teardown path lost one.
  if (tx_manager.num_active() != 0) {
    std::fprintf(stderr, "FAIL: %zu transactions still active after stop\n",
                 tx_manager.num_active());
    return 1;
  }
  return 0;
}
