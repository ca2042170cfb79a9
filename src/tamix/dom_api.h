// Transaction-implicit DOM interface the TaMix bodies run against.
//
// The paper drove TaMix from remote client machines against an XTC
// server; our bodies were written directly against NodeManager, which
// binds them to an in-process Transaction. TaMixDom factors out exactly
// the operation set the five bodies use, with the transaction held by
// the implementation — LocalDom wraps (NodeManager, Transaction) for
// in-process runs, RemoteDom (src/net/client.h) speaks the wire protocol
// to a server that owns the transaction — so one body implementation
// serves both and the remote runs are the *same workload*, not a port.
//
// DomNode resolves the vocabulary surrogate into the element name on the
// owning side: the bodies compare names ("chapters", "summary", "book"),
// and shipping the resolved string saves a name-lookup round trip per
// node on the remote path.
//
// TaMixSession is the transaction lifecycle around a TaMixDom — begin,
// commit, abort — so one worker loop (tamix/coordinator.h) drives both
// transports: LocalSession here, RemoteSession in src/net/client.h.

#ifndef XTC_TAMIX_DOM_API_H_
#define XTC_TAMIX_DOM_API_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "node/node_manager.h"
#include "splid/splid.h"
#include "tx/transaction_manager.h"
#include "util/status.h"

namespace xtc {

enum class TxType;  // tamix/transactions.h

/// One node as the bodies see it: label, kind, resolved name.
struct DomNode {
  Splid splid;
  NodeKind kind = NodeKind::kElement;
  std::string name;  // vocabulary-resolved; "" for non-named kinds
};

class TaMixDom {
 public:
  virtual ~TaMixDom() = default;

  virtual StatusOr<std::optional<Splid>> GetElementById(
      std::string_view id) = 0;
  virtual StatusOr<std::vector<std::pair<std::string, std::string>>>
  GetAttributes(const Splid& element) = 0;
  virtual StatusOr<std::optional<DomNode>> GetFirstChild(
      const Splid& parent) = 0;
  virtual StatusOr<std::optional<DomNode>> GetLastChild(
      const Splid& parent) = 0;
  virtual StatusOr<std::optional<DomNode>> GetNextSibling(
      const Splid& node) = 0;
  virtual StatusOr<std::vector<DomNode>> GetChildNodes(
      const Splid& parent) = 0;
  virtual StatusOr<std::string> GetTextContent(const Splid& text) = 0;

  virtual Status DeclareUpdateIntent(const Splid& node) = 0;
  virtual Status UpdateText(const Splid& text, std::string_view content) = 0;
  virtual Status SetAttribute(const Splid& element, std::string_view name,
                              std::string_view value) = 0;
  virtual StatusOr<Splid> AppendSubtree(const Splid& parent,
                                        const SubtreeSpec& spec) = 0;
  virtual Status DeleteSubtree(const Splid& root) = 0;
  virtual Status Rename(const Splid& element, std::string_view new_name) = 0;
};

/// In-process implementation: forwards to NodeManager under the caller's
/// transaction. Cheap to construct per body run.
class LocalDom : public TaMixDom {
 public:
  LocalDom(NodeManager* nm, Transaction* tx) : nm_(nm), tx_(tx) {}

  StatusOr<std::optional<Splid>> GetElementById(std::string_view id) override;
  StatusOr<std::vector<std::pair<std::string, std::string>>> GetAttributes(
      const Splid& element) override;
  StatusOr<std::optional<DomNode>> GetFirstChild(const Splid& parent) override;
  StatusOr<std::optional<DomNode>> GetLastChild(const Splid& parent) override;
  StatusOr<std::optional<DomNode>> GetNextSibling(const Splid& node) override;
  StatusOr<std::vector<DomNode>> GetChildNodes(const Splid& parent) override;
  StatusOr<std::string> GetTextContent(const Splid& text) override;

  Status DeclareUpdateIntent(const Splid& node) override;
  Status UpdateText(const Splid& text, std::string_view content) override;
  Status SetAttribute(const Splid& element, std::string_view name,
                      std::string_view value) override;
  StatusOr<Splid> AppendSubtree(const Splid& parent,
                                const SubtreeSpec& spec) override;
  Status DeleteSubtree(const Splid& root) override;
  Status Rename(const Splid& element, std::string_view new_name) override;

 private:
  DomNode Resolve(const Node& node) const;

  NodeManager* nm_;
  Transaction* tx_;
};

/// One client's transactions, one at a time: Begin opens a transaction
/// that dom() then operates in, Commit or Abort ends it.
class TaMixSession {
 public:
  virtual ~TaMixSession() = default;

  /// `type` is a workload hint (a server attributes its metrics by it).
  virtual Status Begin(IsolationLevel isolation, int lock_depth,
                       TxType type) = 0;
  virtual TaMixDom& dom() = 0;
  /// Returns the commit sequence number. `payload` rides the WAL commit
  /// record when the engine has a log.
  virtual StatusOr<uint64_t> Commit(std::string_view payload) = 0;
  /// Non-OK: an undo action failed (the transaction still ended).
  virtual Status Abort() = 0;
};

/// In-process session over TransactionManager + LocalDom.
class LocalSession : public TaMixSession {
 public:
  LocalSession(TransactionManager* txm, NodeManager* nm)
      : txm_(txm), nm_(nm) {}

  Status Begin(IsolationLevel isolation, int lock_depth,
               TxType type) override;
  TaMixDom& dom() override { return *dom_; }
  StatusOr<uint64_t> Commit(std::string_view payload) override;
  Status Abort() override;

 private:
  TransactionManager* txm_;
  NodeManager* nm_;
  std::unique_ptr<Transaction> tx_;
  std::optional<LocalDom> dom_;
};

}  // namespace xtc

#endif  // XTC_TAMIX_DOM_API_H_
