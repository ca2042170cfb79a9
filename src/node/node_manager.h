// NodeManager: the transactional DOM API of the XDBMS.
//
// Every operation (1) issues the meta-lock requests the paper prescribes
// (§2: lock the accessed node, its ancestor path, and the traversed
// logical navigation edge), (2) performs the physical operation on the
// Document, (3) registers the UndoOp that operation logged in the
// transaction's undo log — abort runs it through Document::ApplyUndo,
// exactly as restart recovery undoes a loser — and (4) signals
// end-of-operation to the lock manager (which releases short locks under
// isolation level committed).
//
// A failed lock request (deadlock victim / timeout) surfaces as the
// operation's Status; the caller must abort the transaction.

#ifndef XTC_NODE_NODE_MANAGER_H_
#define XTC_NODE_NODE_MANAGER_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lock/lock_manager.h"
#include "node/document.h"
#include "node/node.h"
#include "tx/transaction.h"
#include "util/fault_injector.h"
#include "util/status.h"

namespace xtc {

class NodeManager {
 public:
  /// `faults` (optional) evaluates "node.iud" after each IUD operation has
  /// performed its physical change and registered its undo action — the
  /// surfaced error leaves work for the abort path to compensate.
  NodeManager(Document* doc, LockManager* locks,
              FaultInjector* faults = nullptr);

  Document& document() { return *doc_; }
  LockManager& locks() { return *locks_; }

  // --- Read operations ----------------------------------------------------

  /// Reads one node (navigational access).
  StatusOr<std::optional<Node>> GetNode(Transaction& tx, const Splid& splid);

  /// Direct jump via the ID index (paper: getElementById()).
  StatusOr<std::optional<Splid>> GetElementById(Transaction& tx,
                                                std::string_view id);

  StatusOr<std::optional<Node>> GetFirstChild(Transaction& tx,
                                              const Splid& parent);
  StatusOr<std::optional<Node>> GetLastChild(Transaction& tx,
                                             const Splid& parent);
  StatusOr<std::optional<Node>> GetNextSibling(Transaction& tx,
                                               const Splid& node);
  StatusOr<std::optional<Node>> GetPreviousSibling(Transaction& tx,
                                                   const Splid& node);
  StatusOr<std::optional<Node>> GetParent(Transaction& tx, const Splid& node);

  /// getChildNodes(): one level lock instead of per-child locks.
  StatusOr<std::vector<Node>> GetChildNodes(Transaction& tx,
                                            const Splid& parent);

  /// getAttributes(): level lock on the attribute root (paper §2.3).
  StatusOr<std::vector<std::pair<std::string, std::string>>> GetAttributes(
      Transaction& tx, const Splid& element);

  /// The value of element/@name ("" if absent).
  StatusOr<std::string> GetAttributeValue(Transaction& tx,
                                          const Splid& element,
                                          std::string_view name);

  /// Concatenated string content of a text node.
  StatusOr<std::string> GetTextContent(Transaction& tx, const Splid& text);

  /// Fetches a whole subtree under one subtree read lock (the paper's
  /// getFragmentNodes()-style access, §5.2).
  StatusOr<std::vector<Node>> GetFragment(Transaction& tx, const Splid& root);

  /// All elements with the given tag name, in document order (index
  /// scan; each hit is locked like a direct jump).
  StatusOr<std::vector<Splid>> GetElementsByTagName(Transaction& tx,
                                                    std::string_view name);

  // --- Write operations (IUD) ----------------------------------------------

  /// Declares update intent on a node (acquires a U-class lock) before a
  /// later UpdateText/Rename — protocols with U modes convert without
  /// deadlock.
  Status DeclareUpdateIntent(Transaction& tx, const Splid& node);

  /// Replaces the content of the text node's string child.
  Status UpdateText(Transaction& tx, const Splid& text,
                    std::string_view content);

  /// DOM3 renameNode() on an element.
  Status Rename(Transaction& tx, const Splid& element,
                std::string_view new_name);

  /// setAttribute(): updates the value in place, or creates the
  /// attribute (and attribute root) when absent. Index- and
  /// undo-maintaining; id attributes take ID-value predicate locks under
  /// isolation level serializable.
  Status SetAttribute(Transaction& tx, const Splid& element,
                      std::string_view name, std::string_view value);

  /// removeAttribute(); kNotFound when absent.
  Status RemoveAttribute(Transaction& tx, const Splid& element,
                         std::string_view name);

  /// Appends `spec` as the new last child of `parent`; returns its label.
  StatusOr<Splid> AppendSubtree(Transaction& tx, const Splid& parent,
                                const SubtreeSpec& spec);

  /// Inserts `spec` as the sibling directly before/after `sibling`
  /// (DOM insertBefore); exercises the SPLID overflow labeling.
  StatusOr<Splid> InsertBefore(Transaction& tx, const Splid& sibling,
                               const SubtreeSpec& spec);
  StatusOr<Splid> InsertAfter(Transaction& tx, const Splid& sibling,
                              const SubtreeSpec& spec);

  /// Deletes the subtree rooted at `root` (including root).
  Status DeleteSubtree(Transaction& tx, const Splid& root);

 private:
  /// RAII: signals end-of-operation on scope exit.
  class OpScope {
   public:
    OpScope(LockManager* lm, const TxLockView& view) : lm_(lm), view_(view) {}
    ~OpScope() { lm_->EndOperation(view_); }

   private:
    LockManager* lm_;
    TxLockView view_;
  };

  /// ID-value predicate locks for isolation level serializable: every id
  /// the subtree spec / node set carries is locked exclusively.
  Status LockSpecIds(const TxLockView& view, const SubtreeSpec& spec);
  Status LockNodeIds(const TxLockView& view, const std::vector<Node>& nodes);

  /// Registers `undo` (filled by a Document mutation) as the
  /// transaction's compensation for that mutation.
  void AddDocumentUndo(Transaction& tx, UndoOp undo);

  /// Shared insertion path for Append/InsertBefore/InsertAfter.
  StatusOr<Splid> InsertSubtreeCommon(Transaction& tx, const Splid& anchor,
                                      const SubtreeSpec& spec, int placement);

  Document* doc_;
  LockManager* locks_;
  FaultInjector* faults_;
  DocumentAccessorImpl accessor_;
};

}  // namespace xtc

#endif  // XTC_NODE_NODE_MANAGER_H_
