// The anomaly oracle: order-free history records plus their evaluation.
//
// The enumerator records every read as (tx, item, observed version,
// writer-uncommitted-at-read-time) and every write as (tx, item, new
// version, overwritten version), plus each transaction's fate. Because
// versions carry execution-global sequence numbers, the *sets* of these
// records — with no ordering — determine every property we check:
//
//  * classic anomalies (dirty read, lost update, non-repeatable read,
//    navigation phantom), attributed only to transactions that commit;
//  * conflict-serializability of the committed projection: the relative
//    order of any two conflicting operations by committed transactions
//    is recoverable from sequence numbers alone (committed versions of
//    one item advance monotonically in time; a read's observed version
//    separates the committed writes before it from those after it).
//
// Order-freeness is what makes the enumerator's state-hash memoization
// sound: two executions reaching the same lock/document state with the same
// record sets have identical futures AND identical pending-anomaly
// status, so one subtree can stand in for the other.

#ifndef XTC_VERIFY_ORACLE_H_
#define XTC_VERIFY_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "splid/splid.h"

namespace xtc::verify {

/// A data-item version: the transaction that wrote it plus a sequence
/// number from one execution-global counter (0 = the initial document).
struct Version {
  uint64_t writer = 0;
  uint32_t seq = 0;
  bool operator==(const Version&) const = default;
};

/// The three item kinds the oracle tracks per node: the text content,
/// the node record (name/kind — what navigation observes and rename
/// writes), and the child set (the predicate item behind phantoms).
enum class ItemKind : uint8_t { kContent = 0, kName = 1, kChildSet = 2 };

/// Stable item key, e.g. "C:1.3.3" / "R:1.3.3" / "K:1.3.3".
std::string ItemName(ItemKind kind, const Splid& node);
ItemKind ItemKindOf(const std::string& item);

/// One item write: the version it produced and the version it replaced.
struct ItemWrite {
  std::string item;
  Version version;
  Version overwritten;
};

enum class Anomaly : int {
  kDirtyRead = 0,         // read a version whose writer had not committed
  kLostUpdate = 1,        // overwrote a committed version never observed
  kNonRepeatableRead = 2, // one tx read two versions of a content/record item
  kPhantom = 3,           // one tx read two versions of a child-set item
};
inline constexpr int kNumAnomalies = 4;
std::string_view AnomalyName(Anomaly a);

using AnomalyMask = uint32_t;
inline AnomalyMask Bit(Anomaly a) { return 1u << static_cast<int>(a); }
std::string AnomalyMaskToString(AnomalyMask mask);  // "dirty-read+phantom"

enum class TxFate : uint8_t { kActive = 0, kCommitted = 1, kAborted = 2 };

struct ReadRecord {
  uint64_t tx = 0;
  std::string item;
  Version version;
  /// The observed version's writer was another transaction that had not
  /// committed at read time.
  bool dirty = false;
};

struct WriteRecord {
  uint64_t tx = 0;
  std::string item;
  Version version;
  Version overwritten;
};

class History {
 public:
  void AddRead(uint64_t tx, std::string item, Version v, bool dirty);
  void AddWrite(uint64_t tx, const ItemWrite& w);
  void SetFate(uint64_t tx, TxFate fate);
  TxFate Fate(uint64_t tx) const;

  const std::vector<ReadRecord>& reads() const { return reads_; }
  const std::vector<WriteRecord>& writes() const { return writes_; }

  /// Order-free fingerprint: identical for executions whose record sets
  /// and fates match, regardless of recording order.
  std::string Canonical() const;

 private:
  std::vector<ReadRecord> reads_;
  std::vector<WriteRecord> writes_;
  std::map<uint64_t, TxFate> fates_;
};

struct HistoryEvaluation {
  AnomalyMask anomalies = 0;
  /// Conflict-serializability of the committed projection.
  bool serializable = true;
};

HistoryEvaluation EvaluateHistory(const History& h);

}  // namespace xtc::verify

#endif  // XTC_VERIFY_ORACLE_H_
