// The fuzz harness (docs/robustness.md): one seed = one short,
// serializable, WAL-attached CLUSTER1 run with one seeded injury, after
// which a single durability contract is checked against whatever
// survived the injury. Three injuries share it:
//
//   kCrash  a crash.* point hard-kills the instance mid-run; restart
//           recovery rebuilds the database from the durable images
//           (every 8th seed kills the recovery too, and a second, clean
//           recovery must converge). Truth: the recovered database.
//   kPair   a log-shipping follower tails the primary and the kill site
//           rotates over every crash point, follower side included; the
//           surviving log is drained into the follower, which is then
//           promoted. Truth: the drained follower, then the promoted
//           database.
//   kNet    the run goes over the socket frontend under a rotating
//           network injury (proxy chaos, net.* faults, or both) with
//           resilient clients. Truth: the server's durable WAL.
//
// The contract (CheckFuzzContract): commit seqs are unique; the durable
// (seq, type, body_seed) set equals the worker-observed one exactly; the
// surviving document equals a single-threaded replay of those commits,
// passes its structural audit and holds no pinned frames. kNet adds zero
// kUnknown commits and zero leaked sessions after drain.

#ifndef XTC_TAMIX_FUZZ_H_
#define XTC_TAMIX_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "node/document.h"
#include "tamix/coordinator.h"
#include "util/status.h"
#include "wal/recovery.h"

namespace xtc {

enum class Injury { kCrash, kPair, kNet };
inline constexpr Injury kAllInjuries[] = {Injury::kCrash, Injury::kPair,
                                          Injury::kNet};
const char* InjuryName(Injury injury);

/// The run one seed of `injury` starts from. All injuries share a tiny
/// bib, the 2-client mix and a 25 s × 1/50 serializable run with the WAL
/// and a checkpoint every 8 commits; each then adds its own deltas:
///   kCrash  small buffer pool, crash switch, a one-shot kill rotating
///           over crash.wal / crash.page / crash.commit by seed;
///   kPair   the same, rotating over all of AllCrashPoints() (crash.apply
///           seeds leave this plan empty: the kill arms in the follower);
///   kNet    socket frontend, resilient clients with a generous lease,
///           and the seed's chaos mode's net.* fault points.
/// Kills are staggered deeper into the run as seeds grow.
RunConfig FuzzRunConfig(Injury injury, uint64_t seed);

struct FuzzOutcome {
  /// Whether the seed's injury happened: its kill fired (kCrash, kPair)
  /// or the network was injured at least once (kNet). A miss still
  /// passes — the run ended cleanly and RunCluster1's invariant suite
  /// ran — but a sweep of misses is not testing anything.
  bool fired = false;
  bool primary_crashed = false;   // a crash.* point froze the primary
  bool recovery_crashed = false;  // kCrash: the first recovery died too
  bool follower_killed = false;   // kPair: crash.apply fired in the follower
  uint64_t commits = 0;           // commits checked against durable truth
  uint64_t injuries = 0;          // kNet: proxy injuries + net.* faults
  std::string detail;             // one line of per-seed counters
};

/// One seed of `injury`, run from `run` (normally FuzzRunConfig). Derived
/// from the seed: crash-during-recovery (kCrash, seed % 8 == 0), the redo
/// pool size (1 + seed % 4), the follower kill (kPair, crash.apply seeds)
/// and the chaos proxy plan (kNet). Errors mean a broken contract or a
/// failed run, not an expected outcome.
StatusOr<FuzzOutcome> RunFuzzSeed(Injury injury, uint64_t seed,
                                  const RunConfig& run);

/// The contract on one durable truth: `durable` must hold exactly the
/// `observed` commits (unique seqs, equal (seq, type, body_seed) sets,
/// with lost/phantom diagnostics naming `who`), and `doc`, when given,
/// must equal a single-threaded replay of them, pass Validate() and
/// hold no pinned frames.
Status CheckFuzzContract(const RunConfig& run,
                         const std::vector<CommittedTx>& observed,
                         const std::vector<RecoveredCommit>& durable,
                         const std::string& who, const Document* doc);

}  // namespace xtc

#endif  // XTC_TAMIX_FUZZ_H_
