// Document: the physical XML store (paper §3.1/3.2) — one B+-tree in
// document order keyed by encoded SPLIDs, plus element index, ID index
// and vocabulary, all over one buffer pool.
//
// Concurrency model: every public method takes a short reader/writer
// latch internally; latches are never held across lock waits.
// Transactional isolation is entirely the lock protocols' concern
// (NodeManager acquires locks *before* calling into Document).

#ifndef XTC_NODE_DOCUMENT_H_
#define XTC_NODE_DOCUMENT_H_

#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "lock/xml_protocol.h"
#include "node/element_index.h"
#include "node/id_index.h"
#include "node/node.h"
#include "splid/splid.h"
#include "storage/bplus_tree.h"
#include "storage/buffer_manager.h"
#include "storage/page_file.h"
#include "storage/vocabulary.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "wal/wal.h"

namespace xtc {

class WalScope;

/// Declarative description of a subtree to build (used by insertion
/// operations, the TaMix bib generator and the XML loader).
struct SubtreeSpec {
  std::string name;  // element name
  std::vector<std::pair<std::string, std::string>> attributes;
  std::string text;  // if non-empty: a single text child with this value
  std::vector<SubtreeSpec> children;
};

/// Document::Open's input: page images, vocabulary entries, attach points.
struct DocumentSnapshot {
  PageFileImage pages;
  std::vector<std::pair<NameSurrogate, std::string>> vocab;
  WalTreeMeta meta;
};

class Document {
 public:
  explicit Document(const StorageOptions& options = {}, uint32_t dist = 2);

  /// The one way to reopen a document from stored bytes. kDataLoss on a
  /// contradictory vocabulary or incomplete attach points.
  static StatusOr<std::unique_ptr<Document>> Open(
      const StorageOptions& options, const DocumentSnapshot& snapshot,
      uint32_t dist = 2);

  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  Vocabulary& vocabulary() { return vocab_; }
  const Vocabulary& vocabulary() const { return vocab_; }
  const SplidGenerator& splid_generator() const { return gen_; }

  // --- Write operations (physical) --------------------------------------
  //
  // The mutations NodeManager calls take an optional `undo`: on success it
  // holds the operation's logical inverse — the very UndoOp the WAL
  // record carries — for ApplyUndo to run at abort.

  /// Stores one node. Maintains the element index (element nodes) and the
  /// ID index (string values under an "id" attribute).
  Status Store(const Splid& splid, const NodeRecord& record)
      XTC_EXCLUDES(mu_);

  /// Removes one node (must have no children). Index-maintaining.
  Status Remove(const Splid& splid) XTC_EXCLUDES(mu_);

  /// Removes the whole subtree rooted at `root` (including `root`).
  Status RemoveSubtree(const Splid& root, UndoOp* undo = nullptr)
      XTC_EXCLUDES(mu_);

  /// Replaces the content of a string node (index-maintaining for id
  /// values).
  Status UpdateContent(const Splid& string_node, std::string_view content,
                       UndoOp* undo = nullptr) XTC_EXCLUDES(mu_);

  /// Renames an element (element-index maintaining).
  Status RenameElement(const Splid& element, NameSurrogate new_name,
                       UndoOp* undo = nullptr) XTC_EXCLUDES(mu_);

  /// The attribute node element/@name, if present.
  StatusOr<std::optional<Splid>> FindAttribute(const Splid& element,
                                               NameSurrogate name) const
      XTC_EXCLUDES(mu_);

  /// Adds a new attribute (creating the attribute root if needed);
  /// fails with kInvalidArgument if the name already exists. Returns the
  /// attribute node's label.
  StatusOr<Splid> AddAttribute(const Splid& element, NameSurrogate name,
                               std::string_view value, UndoOp* undo = nullptr)
      XTC_EXCLUDES(mu_);

  /// Creates the document root element (document must be empty).
  StatusOr<Splid> CreateRoot(std::string_view name) XTC_EXCLUDES(mu_);

  /// Bulk-loads a whole document from a spec (document must be empty).
  StatusOr<Splid> BuildFromSpec(const SubtreeSpec& spec) XTC_EXCLUDES(mu_);

  /// Appends `spec` as the new last child of `parent`, atomically under
  /// one latch (label assignment + all stores). `label_hint` (optional)
  /// is the label the caller locked; if it is stale — possible only when
  /// running without write locks — the actual label is recomputed.
  /// Returns the new subtree root's label.
  StatusOr<Splid> AppendSubtree(const Splid& parent, const SubtreeSpec& spec,
                                const Splid* label_hint = nullptr,
                                UndoOp* undo = nullptr) XTC_EXCLUDES(mu_);

  /// The label AppendSubtree would use right now (for pre-locking).
  StatusOr<Splid> PeekAppendLabel(const Splid& parent) const
      XTC_EXCLUDES(mu_);

  /// Inserts `spec` as a sibling ordered directly before/after
  /// `sibling`, atomically under one latch (uses the overflow labeling
  /// of §3.2 — existing labels never change). Returns the new root.
  StatusOr<Splid> InsertSibling(const Splid& sibling, const SubtreeSpec& spec,
                                bool after, const Splid* label_hint = nullptr,
                                UndoOp* undo = nullptr) XTC_EXCLUDES(mu_);

  /// The label InsertSibling would use right now (for pre-locking).
  StatusOr<Splid> PeekSiblingLabel(const Splid& sibling, bool after) const
      XTC_EXCLUDES(mu_);

  /// Re-inserts previously removed nodes (abort compensation).
  Status RestoreNodes(const std::vector<Node>& nodes) XTC_EXCLUDES(mu_);

  /// Removes individually stored nodes in reverse of the given order
  /// (the logged inverse of RestoreNodes / Store).
  Status RemoveNodes(const std::vector<Splid>& splids) XTC_EXCLUDES(mu_);

  // --- write-ahead logging & restart recovery (DESIGN.md §6) -------------

  /// Wires the log into the storage substrate: the buffer manager starts
  /// enforcing WAL-before-data, every mutating operation appends an
  /// update record, and new vocabulary assignments are logged. Setup
  /// only, before concurrent use; bib generation typically runs *before*
  /// attach so the base document rides the initial checkpoint, not the
  /// log.
  void AttachWal(Wal* wal) XTC_EXCLUDES(mu_);
  Wal* wal() const { return wal_; }

  /// Applies one logged inverse operation — runtime abort and restart
  /// recovery's undo pass alike. The caller brackets it with ScopedWalTx
  /// so the compensation is logged under the undone transaction's id.
  Status ApplyUndo(const UndoOp& undo) XTC_EXCLUDES(mu_);

  /// Points the three B+-trees at the given attach points: in Open, and
  /// on every update record a follower applies (it may move roots/counts,
  /// and its page images may invalidate the trees' last-leaf hints). No
  /// operation may be mid-flight (the exclusive latch makes the swap
  /// atomic against readers).
  Status ReattachTrees(const WalTreeMeta& meta) XTC_EXCLUDES(mu_);

  /// Flushes the pool and returns what Open reopens. Setup only.
  StatusOr<DocumentSnapshot> Snapshot() XTC_EXCLUDES(mu_);

  /// Takes a fuzzy checkpoint: dirty-page table, vocabulary snapshot and
  /// tree attach points, appended and forced under the exclusive latch
  /// so no operation is mid-flight.
  Status LogCheckpoint() XTC_EXCLUDES(mu_);

  /// Rebuilds the page-file free list from a walk of the three trees
  /// (recovery: the free list is volatile state the crash discarded).
  Status RebuildFreeList() XTC_EXCLUDES(mu_);

  // --- Read operations ----------------------------------------------------

  StatusOr<NodeRecord> Get(const Splid& splid) const XTC_EXCLUDES(mu_);
  bool Exists(const Splid& splid) const XTC_EXCLUDES(mu_);

  /// First/last child in document order. By default attribute roots are
  /// skipped (DOM semantics); pass include_attribute_root for taDOM-level
  /// traversal.
  StatusOr<std::optional<Node>> FirstChild(
      const Splid& parent, bool include_attribute_root = false) const
      XTC_EXCLUDES(mu_);
  StatusOr<std::optional<Node>> LastChild(const Splid& parent) const
      XTC_EXCLUDES(mu_);
  StatusOr<std::optional<Node>> NextSibling(const Splid& node) const
      XTC_EXCLUDES(mu_);
  StatusOr<std::optional<Node>> PreviousSibling(const Splid& node) const
      XTC_EXCLUDES(mu_);

  StatusOr<std::vector<Node>> Children(
      const Splid& parent, bool include_attribute_root = false) const
      XTC_EXCLUDES(mu_);

  /// The whole subtree including the root, in document order.
  StatusOr<std::vector<Node>> Subtree(const Splid& root) const
      XTC_EXCLUDES(mu_);

  std::optional<Splid> LookupId(std::string_view id) const XTC_EXCLUDES(mu_);
  std::vector<Splid> ElementsByName(std::string_view name) const
      XTC_EXCLUDES(mu_);
  std::optional<Splid> NthElementByName(std::string_view name,
                                        size_t index) const XTC_EXCLUDES(mu_);

  uint64_t num_nodes() const XTC_EXCLUDES(mu_);
  const PageFile& page_file() const { return file_; }
  PageFile& page_file() { return file_; }
  const BufferManager& buffer() const { return *buffer_; }
  BufferManager& buffer() { return *buffer_; }

  /// Storage occupancy of the document tree (paper §3.1).
  BplusTree::Occupancy MeasureOccupancy() const XTC_EXCLUDES(mu_);

  /// Full structural audit (tests / debugging): every non-root node has
  /// a stored parent, taDOM layering holds (strings under text or
  /// attribute, attributes under attribute roots, ...), and the element
  /// and ID indexes agree exactly with a document scan.
  Status Validate() const XTC_EXCLUDES(mu_);

 private:
  Document(const StorageOptions& options, const PageFileImage& image,
           uint32_t dist);

  // WalScope (document.cc) brackets each mutating operation: it opens a
  // buffer-pool capture in its constructor and logs the captured pages +
  // logical undo from its destructor, still under the writer latch.
  friend class WalScope;

  // mu_ must be held by callers of these helpers: shared suffices for the
  // readers, the store/remove ones mutate the tree and need it exclusive.
  StatusOr<std::optional<Node>> FirstChildLocked(const Splid& parent,
                                                 bool include_attr) const
      XTC_REQUIRES_SHARED(mu_);
  StatusOr<std::optional<Node>> PreviousSiblingLocked(const Splid& node) const
      XTC_REQUIRES_SHARED(mu_);
  StatusOr<Splid> AppendLabelLocked(const Splid& parent) const
      XTC_REQUIRES_SHARED(mu_);
  StatusOr<Splid> SiblingLabelLocked(const Splid& sibling, bool after) const
      XTC_REQUIRES_SHARED(mu_);
  Status StoreOneLocked(const Splid& splid, const NodeRecord& record)
      XTC_REQUIRES(mu_);
  Status StoreSpecLocked(const Splid& at, const SubtreeSpec& spec)
      XTC_REQUIRES(mu_);
  StatusOr<std::optional<Node>> NextSiblingLocked(const Splid& node) const
      XTC_REQUIRES_SHARED(mu_);
  StatusOr<std::vector<Node>> SubtreeLocked(const Splid& root) const
      XTC_REQUIRES_SHARED(mu_);
  Status RemoveOneLocked(const Splid& splid, const NodeRecord& record)
      XTC_REQUIRES(mu_);
  // If `splid` is the string child of an id attribute, returns the owning
  // element.
  std::optional<Splid> IdOwnerElement(const Splid& string_node) const
      XTC_REQUIRES_SHARED(mu_);

  WalTreeMeta TreeMetaLocked() const XTC_REQUIRES_SHARED(mu_);

  StorageOptions options_;
  PageFile file_;
  std::unique_ptr<BufferManager> buffer_;
  Vocabulary vocab_;
  SplidGenerator gen_;
  /// Set once at setup (AttachWal), before concurrent use; null = no
  /// logging (the default, preserving pre-WAL behaviour exactly).
  Wal* wal_ = nullptr;
  // The document latch (never held across lock-table waits; see file
  // header). vocab_/gen_/buffer_/file_ are internally synchronized and
  // deliberately not guarded by it.
  mutable SharedMutex mu_;
  std::unique_ptr<BplusTree> doc_ XTC_GUARDED_BY(mu_) XTC_PT_GUARDED_BY(mu_);
  std::unique_ptr<ElementIndex> elements_ XTC_GUARDED_BY(mu_)
      XTC_PT_GUARDED_BY(mu_);
  std::unique_ptr<IdIndex> ids_ XTC_GUARDED_BY(mu_) XTC_PT_GUARDED_BY(mu_);
  NameSurrogate id_attr_name_;  // surrogate of "id"
};

/// DocumentAccessor implementation handed to protocols: each call does
/// real traversal work through the document store.
class DocumentAccessorImpl : public DocumentAccessor {
 public:
  explicit DocumentAccessorImpl(Document* doc) : doc_(doc) {}

  StatusOr<std::vector<Splid>> NodesInSubtree(const Splid& root) override;
  StatusOr<std::vector<Splid>> ElementsWithIdInSubtree(
      const Splid& root) override;
  StatusOr<std::vector<Splid>> ChildrenOf(const Splid& node) override;

 private:
  Document* doc_;
};

}  // namespace xtc

#endif  // XTC_NODE_DOCUMENT_H_
