// Figure 11: CLUSTER2 — execution time of TAdelBook (single-user,
// isolation level repeatable) under all 11 protocols.
//
// The *-2PL group must traverse the doomed subtree through the node
// manager and IDX-lock every element owning an ID attribute before it
// may delete (§5.3); all intention-lock protocols cover the subtree with
// one subtree lock plus the ancestor path. The paper measured roughly a
// 2x execution-time penalty for the *-2PL group.

#include <string>
#include <vector>

#include "bench_common.h"
#include "protocols/protocol_registry.h"

using namespace xtc;
using namespace xtc::bench;

int main() {
  PrintHeader("Figure 11", "CLUSTER2: TAdelBook execution time, single-user");

  const int deletions = FullSize() ? 40 : 12;
  std::vector<std::string> protocols;
  std::vector<Cluster2Result> results;
  for (std::string_view name : AllProtocolNames()) {
    RunConfig config = Cluster1Config();
    config.protocol = std::string(name);
    // Model the paper's disk: small pool + per-page latency, so the
    // *-2PL pre-deletion scans pay for their extra page accesses.
    config.storage.buffer_pool_pages = 512;
    config.storage.io_latency_us = 25;
    auto result = RunCluster2(config, deletions);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", config.protocol.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    protocols.push_back(config.protocol);
    results.push_back(*result);
  }
  auto us_per_deletion = [&](size_t p) {
    return 1000 * results[p].ms_per_deletion();
  };
  PrintGrid("TAdelBook execution time and lock requests", "protocol",
            protocols, {"us/TAdelBook", "lock requests"},
            [&](size_t r, size_t c) {
              return c == 0 ? us_per_deletion(r)
                            : static_cast<double>(results[r].lock_requests);
            });

  // Group 0: the *-2PL group; group 1: every intention-lock protocol.
  double sum[2] = {0, 0};
  int n[2] = {0, 0};
  for (size_t p = 0; p < protocols.size(); ++p) {
    const bool is_two_pl = protocols[p] == "Node2PL" ||
                           protocols[p] == "NO2PL" || protocols[p] == "OO2PL";
    const int g = is_two_pl ? 0 : 1;
    sum[g] += us_per_deletion(p);
    ++n[g];
  }
  const double avg[2] = {sum[0] / n[0], sum[1] / n[1]};
  PrintGrid("group averages", "group",
            {"*-2PL (Node2PL/NO2PL/OO2PL)", "intention-lock protocols"},
            {"us/TAdelBook", "% of intention-lock"}, [&](size_t r, size_t c) {
              return c == 0 ? avg[r] : 100 * avg[r] / avg[1];
            });
  std::printf(
      "# expected shape (paper): the *-2PL group needs roughly twice the "
      "time of all other protocols.\n");
  return 0;
}
