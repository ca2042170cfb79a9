// The five TaMix transaction types (paper §4.2), implemented against the
// transaction-implicit TaMixDom interface so the same bodies drive both
// the in-process testbed (LocalDom) and the socket front-end (RemoteDom).

#ifndef XTC_TAMIX_TRANSACTIONS_H_
#define XTC_TAMIX_TRANSACTIONS_H_

#include <string_view>

#include "tamix/bib_generator.h"
#include "tamix/dom_api.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/status.h"

namespace xtc {

enum class TxType {
  kQueryBook = 0,
  kChapter = 1,
  kDelBook = 2,
  kLendAndReturn = 3,
  kRenameTopic = 4,
};
inline constexpr int kNumTxTypes = 5;

std::string_view TxTypeName(TxType type);

/// Executes transaction bodies against any TaMixDom. Thread-compatible:
/// one instance may be shared by all workers (it holds no mutable state
/// besides config). The dom carries the transaction; callers own the
/// begin/commit/abort lifecycle — a TaMixSession (dom_api.h), or for a
/// one-off in-process body a LocalDom over the caller's Transaction.
class TaMixBodyRunner {
 public:
  TaMixBodyRunner(const BibInfo* info, Duration wait_after_operation)
      : info_(info), wait_after_operation_(wait_after_operation) {}

  /// Runs the body of one transaction. A returned retryable status
  /// (deadlock/timeout) means: abort and count it.
  Status RunBody(TxType type, TaMixDom& dom, Rng& rng);

  Status QueryBook(TaMixDom& dom, Rng& rng);
  Status Chapter(TaMixDom& dom, Rng& rng);
  Status DelBook(TaMixDom& dom, Rng& rng);
  Status LendAndReturn(TaMixDom& dom, Rng& rng);
  Status RenameTopic(TaMixDom& dom, Rng& rng);

 private:
  /// Client think time between DOM operations (paper: waitAfterOperation).
  void Think() const { SleepFor(wait_after_operation_); }

  /// Navigationally reads the whole subtree under `root`: children chain
  /// per level, attributes of elements, content of text nodes.
  Status ReadSubtreeNavigationally(TaMixDom& dom, const Splid& root,
                                   int max_depth);

  const std::string& RandomBookId(Rng& rng) const {
    return info_->book_ids[rng.Uniform(info_->book_ids.size())];
  }
  const std::string& RandomTopicId(Rng& rng) const {
    return info_->topic_ids[rng.Uniform(info_->topic_ids.size())];
  }

  const BibInfo* info_;
  Duration wait_after_operation_;
};

}  // namespace xtc

#endif  // XTC_TAMIX_TRANSACTIONS_H_
