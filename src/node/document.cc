#include "node/document.h"

#include <algorithm>

#include "util/check.h"
#include "util/fault_injector.h"

namespace xtc {

// Brackets one mutating document operation for the WAL. Constructed
// right after the writer latch (and fault suppression, so the logging
// work itself is never injected), it opens a buffer-pool capture; every
// page the operation dirties is recorded and pinned out of eviction's
// reach. The destructor — still under the latch — appends one update
// record carrying the logical undo, the tree attach points and full
// after-images of the captured pages, stamping the record's end LSN into
// each page so redo can compare. Operations that fail mid-way still log
// their page images (physical redo must reproduce whatever bytes
// changed) with an empty undo.
//
// The undo lives in the caller's UndoOp when it passed one (NodeManager
// registers that same op as the transaction's compensation), so the
// logged description and the runtime abort's are one object.
//
// The destructor runs while the document latch is held; the analysis
// cannot see that from a destructor, hence the escape hatch.
class WalScope {
 public:
  WalScope(Document* doc, UndoOp* undo)
      : doc_(doc), wal_(doc->wal_), undo_(undo != nullptr ? undo : &own_) {
    *undo_ = UndoOp{};
    if (wal_ != nullptr) doc_->buffer_->BeginCapture();
  }
  WalScope(const WalScope&) = delete;
  WalScope& operator=(const WalScope&) = delete;

  /// Arms the logical undo; call just before a successful return.
  void SetUndo(UndoOp undo) { *undo_ = std::move(undo); }

  ~WalScope() XTC_NO_THREAD_SAFETY_ANALYSIS {
    if (wal_ == nullptr) return;
    const std::vector<PageId> pages = doc_->buffer_->CapturedPages();
    if (!pages.empty() || undo_->kind != UndoKind::kNone) {
      wal_->AppendUpdate(
          ScopedWalTx::Current(), *undo_, doc_->TreeMetaLocked(), pages,
          doc_->options_.page_size,
          [this](PageId id, Lsn end_lsn, std::string* out) {
            // Captured pages are protected from eviction until
            // EndCapture, so this is a guaranteed buffer hit — no I/O
            // happens under the log mutex.
            auto guard = doc_->buffer_->Fetch(id);
            XTC_CHECK(guard.ok(), "captured page vanished from the pool");
            StampPageLsn(guard->page(), end_lsn);
            guard->MarkDirty();
            out->append(
                reinterpret_cast<const char*>(guard->page()->data()),
                guard->page()->size());
          });
    }
    doc_->buffer_->EndCapture();
  }

 private:
  Document* doc_;
  Wal* wal_;
  UndoOp own_;  // the undo when the caller passed none
  UndoOp* undo_;
};

namespace {

UndoOp RemoveSubtreeUndo(const Splid& root) {
  UndoOp undo;
  undo.kind = UndoKind::kRemoveSubtree;
  undo.splid = root.Encode();
  return undo;
}

UndoOp RemoveNodesUndo(const std::vector<Splid>& splids) {
  UndoOp undo;
  undo.kind = UndoKind::kRemoveNodes;
  undo.nodes.reserve(splids.size());
  for (const Splid& s : splids) {
    undo.nodes.push_back(UndoNode{s.Encode(), 0, 0, {}});
  }
  return undo;
}

UndoOp RestoreNodesUndo(const std::vector<Node>& nodes) {
  UndoOp undo;
  undo.kind = UndoKind::kRestoreNodes;
  undo.nodes.reserve(nodes.size());
  for (const Node& n : nodes) {
    undo.nodes.push_back(UndoNode{n.splid.Encode(),
                                  static_cast<uint8_t>(n.record.kind),
                                  n.record.name, n.record.content});
  }
  return undo;
}

std::string_view KindName(NodeKind k) {
  switch (k) {
    case NodeKind::kElement:
      return "element";
    case NodeKind::kAttributeRoot:
      return "attributeRoot";
    case NodeKind::kAttribute:
      return "attribute";
    case NodeKind::kText:
      return "text";
    case NodeKind::kString:
      return "string";
  }
  return "?";
}

}  // namespace

std::string_view NodeKindName(NodeKind kind) { return KindName(kind); }

Document::Document(const StorageOptions& options, uint32_t dist)
    : options_(options), file_(options), gen_(dist) {
  buffer_ = std::make_unique<BufferManager>(&file_, options_);
  doc_ = std::make_unique<BplusTree>(buffer_.get());
  elements_ = std::make_unique<ElementIndex>(buffer_.get());
  ids_ = std::make_unique<IdIndex>(buffer_.get());
  id_attr_name_ = vocab_.Intern("id");
}

Document::Document(const StorageOptions& options, const PageFileImage& image,
                   uint32_t dist)
    : options_(options), file_(options, image), gen_(dist) {
  buffer_ = std::make_unique<BufferManager>(&file_, options_);
  // Open attaches the trees. "id" is re-interned as the original's
  // constructor did; Open's RestoreEntry checks the surrogates agree.
  id_attr_name_ = vocab_.Intern("id");
}

StatusOr<std::unique_ptr<Document>> Document::Open(
    const StorageOptions& options, const DocumentSnapshot& snapshot,
    uint32_t dist) {
  std::unique_ptr<Document> doc(new Document(options, snapshot.pages, dist));
  for (const auto& [surrogate, name] : snapshot.vocab) {
    XTC_RETURN_IF_ERROR(doc->vocab_.RestoreEntry(surrogate, name));
  }
  XTC_RETURN_IF_ERROR(doc->ReattachTrees(snapshot.meta));
  return doc;
}

StatusOr<DocumentSnapshot> Document::Snapshot() {
  XTC_RETURN_IF_ERROR(buffer_->FlushAll());
  ReaderMutexLock latch(mu_);
  return DocumentSnapshot{file_.CloneImage(), vocab_.Snapshot(),
                          TreeMetaLocked()};
}

void Document::AttachWal(Wal* wal) {
  WriterMutexLock latch(mu_);
  wal_ = wal;
  buffer_->AttachWal(wal);
  // Logged under the vocabulary mutex the moment a new surrogate is
  // handed out, so the assignment precedes any update record that uses
  // it. Names interned before attach ("id", the bib vocabulary) ride the
  // initial checkpoint's snapshot instead.
  vocab_.SetNewNameCallback(
      [wal](NameSurrogate surrogate, const std::string& name) {
        wal->AppendVocab(surrogate, name);
      });
}

WalTreeMeta Document::TreeMetaLocked() const {
  WalTreeMeta meta;
  meta.doc_root = doc_->root();
  meta.doc_count = doc_->size();
  meta.elem_root = elements_->tree().root();
  meta.elem_count = elements_->size();
  meta.id_root = ids_->tree().root();
  meta.id_count = ids_->size();
  return meta;
}

Status Document::ReattachTrees(const WalTreeMeta& meta) {
  WriterMutexLock latch(mu_);
  if (meta.doc_root == kInvalidPageId || meta.elem_root == kInvalidPageId ||
      meta.id_root == kInvalidPageId) {
    return Status::DataLoss("tree metadata is incomplete");
  }
  doc_ = std::make_unique<BplusTree>(buffer_.get(), meta.doc_root,
                                     meta.doc_count);
  elements_ = std::make_unique<ElementIndex>(buffer_.get(), meta.elem_root,
                                             meta.elem_count);
  ids_ = std::make_unique<IdIndex>(buffer_.get(), meta.id_root, meta.id_count);
  return Status::OK();
}

Status Document::LogCheckpoint() {
  WriterMutexLock latch(mu_);
  if (wal_ == nullptr) {
    return Status::InvalidArgument("no WAL attached");
  }
  // The exclusive latch means no operation is mid-flight: the dirty-page
  // table, vocabulary snapshot and tree attach points are mutually
  // consistent. The checkpoint stays fuzzy towards earlier operations
  // still in the group-commit buffer — redo handles those by starting at
  // the minimum recovery LSN.
  return wal_->AppendCheckpoint(buffer_->DirtyPageTable(), vocab_.Snapshot(),
                                TreeMetaLocked());
}

Status Document::RebuildFreeList() {
  ReaderMutexLock latch(mu_);
  std::vector<PageId> reachable;
  XTC_RETURN_IF_ERROR(doc_->CollectPages(&reachable));
  XTC_RETURN_IF_ERROR(elements_->tree().CollectPages(&reachable));
  XTC_RETURN_IF_ERROR(ids_->tree().CollectPages(&reachable));
  std::vector<bool> live;
  for (PageId id : reachable) {
    if (id == kInvalidPageId) continue;
    if (live.size() < id) live.resize(id, false);
    live[id - 1] = true;
  }
  file_.ResetFreeList(live);
  return Status::OK();
}

Status Document::ApplyUndo(const UndoOp& undo) {
  switch (undo.kind) {
    case UndoKind::kNone:
      return Status::OK();
    case UndoKind::kUpdateContent: {
      auto splid = Splid::Decode(undo.splid);
      if (!splid.has_value()) return Status::Internal("corrupt undo splid");
      return UpdateContent(*splid, undo.content);
    }
    case UndoKind::kRenameElement: {
      auto splid = Splid::Decode(undo.splid);
      if (!splid.has_value()) return Status::Internal("corrupt undo splid");
      return RenameElement(*splid, undo.name);
    }
    case UndoKind::kRemoveSubtree: {
      auto splid = Splid::Decode(undo.splid);
      if (!splid.has_value()) return Status::Internal("corrupt undo splid");
      return RemoveSubtree(*splid);
    }
    case UndoKind::kRestoreNodes: {
      std::vector<Node> nodes;
      nodes.reserve(undo.nodes.size());
      for (const UndoNode& n : undo.nodes) {
        auto splid = Splid::Decode(n.splid);
        if (!splid.has_value()) return Status::Internal("corrupt undo splid");
        NodeRecord rec;
        rec.kind = static_cast<NodeKind>(n.kind);
        rec.name = n.name;
        rec.content = n.content;
        nodes.push_back(Node{*splid, std::move(rec)});
      }
      return RestoreNodes(nodes);
    }
    case UndoKind::kRemoveNodes: {
      std::vector<Splid> splids;
      splids.reserve(undo.nodes.size());
      for (const UndoNode& n : undo.nodes) {
        auto splid = Splid::Decode(n.splid);
        if (!splid.has_value()) return Status::Internal("corrupt undo splid");
        splids.push_back(*splid);
      }
      return RemoveNodes(splids);
    }
  }
  return Status::Internal("unknown undo kind");
}

std::optional<Splid> Document::IdOwnerElement(const Splid& string_node) const {
  // element / attributeRoot / attribute(id) / string
  if (string_node.Level() < 4) return std::nullopt;
  const Splid attribute = string_node.Parent();
  if (!attribute.valid() || string_node.LastDivision() != kAttributeDivision) {
    return std::nullopt;
  }
  auto attr_rec = doc_->Get(attribute.Encode());
  if (!attr_rec.ok()) return std::nullopt;
  auto rec = NodeRecord::Decode(*attr_rec);
  if (!rec.has_value() || rec->kind != NodeKind::kAttribute ||
      rec->name != id_attr_name_) {
    return std::nullopt;
  }
  const Splid attr_root = attribute.Parent();
  if (!attr_root.valid()) return std::nullopt;
  const Splid element = attr_root.Parent();
  if (!element.valid()) return std::nullopt;
  return element;
}

Status Document::StoreOneLocked(const Splid& splid, const NodeRecord& record) {
  XTC_RETURN_IF_ERROR(doc_->Insert(splid.Encode(), record.Encode()));
  if (record.kind == NodeKind::kElement) {
    XTC_RETURN_IF_ERROR(elements_->Add(record.name, splid));
  } else if (record.kind == NodeKind::kString && !record.content.empty()) {
    auto owner = IdOwnerElement(splid);
    if (owner.has_value()) {
      // Duplicate ids are the application's problem; last writer wins.
      (void)ids_->Remove(record.content);
      XTC_RETURN_IF_ERROR(ids_->Add(record.content, *owner));
    }
  }
  return Status::OK();
}

Status Document::Store(const Splid& splid, const NodeRecord& record) {
  WriterMutexLock latch(mu_);
  FaultInjector::ScopedSuppress no_faults;  // mutation is not failure-atomic
  WalScope wal(this, nullptr);
  XTC_RETURN_IF_ERROR(StoreOneLocked(splid, record));
  wal.SetUndo(RemoveNodesUndo({splid}));
  return Status::OK();
}

StatusOr<Splid> Document::CreateRoot(std::string_view name) {
  WriterMutexLock latch(mu_);
  FaultInjector::ScopedSuppress no_faults;  // mutation is not failure-atomic
  if (doc_->size() != 0) {
    return Status::InvalidArgument("document is not empty");
  }
  WalScope wal(this, nullptr);
  Splid root = Splid::Root();
  XTC_RETURN_IF_ERROR(
      StoreOneLocked(root, NodeRecord::Element(vocab_.Intern(name))));
  wal.SetUndo(RemoveNodesUndo({root}));
  return root;
}

StatusOr<Splid> Document::BuildFromSpec(const SubtreeSpec& spec) {
  WriterMutexLock latch(mu_);
  FaultInjector::ScopedSuppress no_faults;  // mutation is not failure-atomic
  if (doc_->size() != 0) {
    return Status::InvalidArgument("document is not empty");
  }
  WalScope wal(this, nullptr);
  Splid root = Splid::Root();
  XTC_RETURN_IF_ERROR(StoreSpecLocked(root, spec));
  wal.SetUndo(RemoveSubtreeUndo(root));
  return root;
}

StatusOr<Splid> Document::AppendLabelLocked(const Splid& parent) const {
  auto it = doc_->NewIterator();
  it.SeekForPrev(parent.EncodedSubtreeUpperBound());
  XTC_RETURN_IF_ERROR(it.status());
  if (!it.Valid()) return Status::NotFound("append parent not found");
  auto last_deep = Splid::Decode(it.key());
  if (!last_deep.has_value()) return Status::Internal("corrupt splid key");
  if (*last_deep == parent) return gen_.FirstChild(parent);
  if (!parent.IsSelfOrAncestorOf(*last_deep)) {
    return Status::NotFound("append parent not found");
  }
  Splid last_child = last_deep->AncestorAtLevel(parent.Level() + 1);
  if (last_child.LastDivision() == kAttributeDivision) {
    // Only attributes below: the new element child is the first "real"
    // child; division 1 is reserved, so start at dist+1.
    return gen_.FirstChild(parent);
  }
  return gen_.After(parent, last_child);
}

StatusOr<Splid> Document::PeekAppendLabel(const Splid& parent) const {
  ReaderMutexLock latch(mu_);
  return AppendLabelLocked(parent);
}

Status Document::StoreSpecLocked(const Splid& at, const SubtreeSpec& spec) {
  XTC_RETURN_IF_ERROR(
      StoreOneLocked(at, NodeRecord::Element(vocab_.Intern(spec.name))));
  if (!spec.attributes.empty()) {
    const Splid attr_root = at.AttributeChild();
    XTC_RETURN_IF_ERROR(StoreOneLocked(attr_root, NodeRecord::AttributeRoot()));
    for (size_t i = 0; i < spec.attributes.size(); ++i) {
      const auto& [name, value] = spec.attributes[i];
      const Splid attr = gen_.InitialAttribute(attr_root, i);
      XTC_RETURN_IF_ERROR(
          StoreOneLocked(attr, NodeRecord::Attribute(vocab_.Intern(name))));
      XTC_RETURN_IF_ERROR(
          StoreOneLocked(attr.AttributeChild(), NodeRecord::String(value)));
    }
  }
  size_t child_index = 0;
  if (!spec.text.empty()) {
    const Splid text = gen_.InitialChild(at, child_index++);
    XTC_RETURN_IF_ERROR(StoreOneLocked(text, NodeRecord::Text()));
    XTC_RETURN_IF_ERROR(
        StoreOneLocked(text.AttributeChild(), NodeRecord::String(spec.text)));
  }
  for (const SubtreeSpec& child : spec.children) {
    XTC_RETURN_IF_ERROR(
        StoreSpecLocked(gen_.InitialChild(at, child_index++), child));
  }
  return Status::OK();
}

StatusOr<Splid> Document::AppendSubtree(const Splid& parent,
                                        const SubtreeSpec& spec,
                                        const Splid* label_hint,
                                        UndoOp* undo) {
  WriterMutexLock latch(mu_);
  FaultInjector::ScopedSuppress no_faults;  // mutation is not failure-atomic
  WalScope wal(this, undo);
  XTC_ASSIGN_OR_RETURN(Splid label, AppendLabelLocked(parent));
  if (label_hint != nullptr && *label_hint != label &&
      !doc_->Contains(label_hint->Encode())) {
    // The caller pre-locked a label that is still free; prefer it so the
    // locks cover the stored nodes (only reachable without write locks).
    label = *label_hint;
  }
  XTC_RETURN_IF_ERROR(StoreSpecLocked(label, spec));
  wal.SetUndo(RemoveSubtreeUndo(label));
  return label;
}

StatusOr<std::optional<Splid>> Document::FindAttribute(
    const Splid& element, NameSurrogate name) const {
  ReaderMutexLock latch(mu_);
  const Splid attr_root = element.AttributeChild();
  const std::string enc = attr_root.Encode();
  auto it = doc_->NewIterator();
  for (it.Seek(enc + '\0'); it.Valid(); it.Next()) {
    if (it.key().size() <= enc.size() ||
        it.key().compare(0, enc.size(), enc) != 0) {
      break;
    }
    auto splid = Splid::Decode(it.key());
    if (!splid.has_value()) return Status::Internal("corrupt splid key");
    if (splid->Level() != attr_root.Level() + 1) continue;  // skip strings
    auto rec = NodeRecord::Decode(it.value());
    if (!rec.has_value()) return Status::Internal("corrupt node record");
    if (rec->kind == NodeKind::kAttribute && rec->name == name) {
      return std::optional<Splid>(*splid);
    }
  }
  XTC_RETURN_IF_ERROR(it.status());
  return std::optional<Splid>(std::nullopt);
}

StatusOr<Splid> Document::AddAttribute(const Splid& element,
                                       NameSurrogate name,
                                       std::string_view value,
                                       UndoOp* undo) {
  WriterMutexLock latch(mu_);
  FaultInjector::ScopedSuppress no_faults;  // mutation is not failure-atomic
  if (!doc_->Contains(element.Encode())) {
    return Status::NotFound("element not found");
  }
  WalScope wal(this, undo);
  const Splid attr_root = element.AttributeChild();
  if (!doc_->Contains(attr_root.Encode())) {
    XTC_RETURN_IF_ERROR(StoreOneLocked(attr_root, NodeRecord::AttributeRoot()));
  }
  // Find the last attribute to pick the next odd division; also reject
  // duplicates.
  Splid last_attr;
  {
    const std::string enc = attr_root.Encode();
    auto it = doc_->NewIterator();
    for (it.Seek(enc + '\0'); it.Valid(); it.Next()) {
      if (it.key().size() <= enc.size() ||
          it.key().compare(0, enc.size(), enc) != 0) {
        break;
      }
      auto splid = Splid::Decode(it.key());
      if (!splid.has_value()) return Status::Internal("corrupt splid key");
      if (splid->Level() != attr_root.Level() + 1) continue;
      auto rec = NodeRecord::Decode(it.value());
      if (rec.has_value() && rec->kind == NodeKind::kAttribute &&
          rec->name == name) {
        return Status::InvalidArgument("attribute already exists");
      }
      last_attr = *splid;
    }
    XTC_RETURN_IF_ERROR(it.status());
  }
  const Splid attr = last_attr.valid() ? gen_.After(attr_root, last_attr)
                                       : gen_.InitialAttribute(attr_root, 0);
  XTC_RETURN_IF_ERROR(StoreOneLocked(attr, NodeRecord::Attribute(name)));
  XTC_RETURN_IF_ERROR(StoreOneLocked(attr.AttributeChild(),
                                     NodeRecord::String(std::string(value))));
  // A freshly created attribute root is deliberately not undone: an
  // empty attribute root is structurally valid.
  wal.SetUndo(RemoveSubtreeUndo(attr));
  return attr;
}

StatusOr<Splid> Document::SiblingLabelLocked(const Splid& sibling,
                                             bool after) const {
  const Splid parent = sibling.Parent();
  if (!parent.valid()) {
    return Status::InvalidArgument("root has no siblings");
  }
  if (!doc_->Contains(sibling.Encode())) {
    return Status::NotFound("sibling not found");
  }
  if (after) {
    auto next = NextSiblingLocked(sibling);
    if (!next.ok()) return next.status();
    if (next->has_value()) {
      return gen_.Between(parent, sibling, (*next)->splid);
    }
    return gen_.After(parent, sibling);
  }
  auto prev = PreviousSiblingLocked(sibling);
  if (!prev.ok()) return prev.status();
  if (prev->has_value()) {
    return gen_.Between(parent, (*prev)->splid, sibling);
  }
  return gen_.Before(parent, sibling);
}

StatusOr<Splid> Document::PeekSiblingLabel(const Splid& sibling,
                                           bool after) const {
  ReaderMutexLock latch(mu_);
  return SiblingLabelLocked(sibling, after);
}

StatusOr<Splid> Document::InsertSibling(const Splid& sibling,
                                        const SubtreeSpec& spec, bool after,
                                        const Splid* label_hint,
                                        UndoOp* undo) {
  WriterMutexLock latch(mu_);
  FaultInjector::ScopedSuppress no_faults;  // mutation is not failure-atomic
  WalScope wal(this, undo);
  XTC_ASSIGN_OR_RETURN(Splid label, SiblingLabelLocked(sibling, after));
  if (label_hint != nullptr && *label_hint != label &&
      !doc_->Contains(label_hint->Encode())) {
    label = *label_hint;
  }
  XTC_RETURN_IF_ERROR(StoreSpecLocked(label, spec));
  wal.SetUndo(RemoveSubtreeUndo(label));
  return label;
}

Status Document::RestoreNodes(const std::vector<Node>& nodes) {
  WriterMutexLock latch(mu_);
  FaultInjector::ScopedSuppress no_faults;  // mutation is not failure-atomic
  WalScope wal(this, nullptr);
  std::vector<Splid> stored;
  stored.reserve(nodes.size());
  for (const Node& n : nodes) {
    XTC_RETURN_IF_ERROR(StoreOneLocked(n.splid, n.record));
    stored.push_back(n.splid);
  }
  wal.SetUndo(RemoveNodesUndo(stored));
  return Status::OK();
}

Status Document::RemoveNodes(const std::vector<Splid>& splids) {
  WriterMutexLock latch(mu_);
  FaultInjector::ScopedSuppress no_faults;  // mutation is not failure-atomic
  WalScope wal(this, nullptr);
  // Reverse of the given (document) order: children before parents, as
  // in RemoveSubtree.
  std::vector<Node> removed;
  removed.reserve(splids.size());
  for (auto it = splids.rbegin(); it != splids.rend(); ++it) {
    auto raw = doc_->Get(it->Encode());
    if (!raw.ok()) return raw.status();
    auto rec = NodeRecord::Decode(*raw);
    if (!rec.has_value()) return Status::Internal("corrupt node record");
    XTC_RETURN_IF_ERROR(RemoveOneLocked(*it, *rec));
    removed.push_back(Node{*it, std::move(*rec)});
  }
  std::reverse(removed.begin(), removed.end());  // back to document order
  wal.SetUndo(RestoreNodesUndo(removed));
  return Status::OK();
}

Status Document::RemoveOneLocked(const Splid& splid,
                                 const NodeRecord& record) {
  XTC_RETURN_IF_ERROR(doc_->Delete(splid.Encode()));
  if (record.kind == NodeKind::kElement) {
    XTC_RETURN_IF_ERROR(elements_->Remove(record.name, splid));
  } else if (record.kind == NodeKind::kString && !record.content.empty()) {
    if (IdOwnerElement(splid).has_value()) {
      (void)ids_->Remove(record.content);
    }
  }
  return Status::OK();
}

Status Document::Remove(const Splid& splid) {
  WriterMutexLock latch(mu_);
  FaultInjector::ScopedSuppress no_faults;  // mutation is not failure-atomic
  auto raw = doc_->Get(splid.Encode());
  if (!raw.ok()) return raw.status();
  auto rec = NodeRecord::Decode(*raw);
  if (!rec.has_value()) return Status::Internal("corrupt node record");
  // Must be a leaf of the taDOM tree.
  auto it = doc_->NewIterator();
  std::string enc = splid.Encode();
  it.Seek(enc + '\0');
  XTC_RETURN_IF_ERROR(it.status());
  if (it.Valid() && it.key().size() > enc.size() &&
      it.key().compare(0, enc.size(), enc) == 0) {
    return Status::InvalidArgument("Remove() on a node with children");
  }
  WalScope wal(this, nullptr);
  XTC_RETURN_IF_ERROR(RemoveOneLocked(splid, *rec));
  wal.SetUndo(RestoreNodesUndo({Node{splid, *rec}}));
  return Status::OK();
}

Status Document::RemoveSubtree(const Splid& root, UndoOp* undo) {
  WriterMutexLock latch(mu_);
  FaultInjector::ScopedSuppress no_faults;  // mutation is not failure-atomic
  auto nodes = SubtreeLocked(root);
  if (!nodes.ok()) return nodes.status();
  if (nodes->empty()) return Status::NotFound("subtree root not found");
  WalScope wal(this, undo);
  // Reverse document order: children before parents, so ID-index
  // maintenance can still inspect the owning attribute node.
  for (auto it = nodes->rbegin(); it != nodes->rend(); ++it) {
    XTC_RETURN_IF_ERROR(RemoveOneLocked(it->splid, it->record));
  }
  wal.SetUndo(RestoreNodesUndo(*nodes));
  return Status::OK();
}

Status Document::UpdateContent(const Splid& string_node,
                               std::string_view content, UndoOp* undo) {
  WriterMutexLock latch(mu_);
  FaultInjector::ScopedSuppress no_faults;  // mutation is not failure-atomic
  auto raw = doc_->Get(string_node.Encode());
  if (!raw.ok()) return raw.status();
  auto rec = NodeRecord::Decode(*raw);
  if (!rec.has_value() || rec->kind != NodeKind::kString) {
    return Status::InvalidArgument("UpdateContent on a non-string node");
  }
  WalScope wal(this, undo);
  UndoOp inverse;
  inverse.kind = UndoKind::kUpdateContent;
  inverse.splid = string_node.Encode();
  inverse.content = rec->content;
  auto owner = IdOwnerElement(string_node);
  if (owner.has_value()) {
    if (!rec->content.empty()) (void)ids_->Remove(rec->content);
    if (!content.empty()) {
      (void)ids_->Remove(std::string(content));
      XTC_RETURN_IF_ERROR(ids_->Add(content, *owner));
    }
  }
  rec->content = std::string(content);
  XTC_RETURN_IF_ERROR(doc_->Update(string_node.Encode(), rec->Encode()));
  wal.SetUndo(std::move(inverse));
  return Status::OK();
}

Status Document::RenameElement(const Splid& element, NameSurrogate new_name,
                               UndoOp* undo) {
  WriterMutexLock latch(mu_);
  FaultInjector::ScopedSuppress no_faults;  // mutation is not failure-atomic
  auto raw = doc_->Get(element.Encode());
  if (!raw.ok()) return raw.status();
  auto rec = NodeRecord::Decode(*raw);
  if (!rec.has_value() || rec->kind != NodeKind::kElement) {
    return Status::InvalidArgument("RenameElement on a non-element");
  }
  WalScope wal(this, undo);
  UndoOp inverse;
  inverse.kind = UndoKind::kRenameElement;
  inverse.splid = element.Encode();
  inverse.name = rec->name;
  XTC_RETURN_IF_ERROR(elements_->Remove(rec->name, element));
  rec->name = new_name;
  XTC_RETURN_IF_ERROR(elements_->Add(new_name, element));
  XTC_RETURN_IF_ERROR(doc_->Update(element.Encode(), rec->Encode()));
  wal.SetUndo(std::move(inverse));
  return Status::OK();
}

StatusOr<NodeRecord> Document::Get(const Splid& splid) const {
  ReaderMutexLock latch(mu_);
  auto raw = doc_->Get(splid.Encode());
  if (!raw.ok()) return raw.status();
  auto rec = NodeRecord::Decode(*raw);
  if (!rec.has_value()) return Status::Internal("corrupt node record");
  return *rec;
}

bool Document::Exists(const Splid& splid) const {
  ReaderMutexLock latch(mu_);
  // A bool answer cannot report an I/O error, and a fault surfacing as
  // "does not exist" would silently change caller control flow.
  FaultInjector::ScopedSuppress no_faults;
  return doc_->Contains(splid.Encode());
}

StatusOr<std::optional<Node>> Document::FirstChildLocked(
    const Splid& parent, bool include_attr) const {
  const std::string enc = parent.Encode();
  auto it = doc_->NewIterator();
  it.Seek(enc + '\0');
  for (;;) {
    XTC_RETURN_IF_ERROR(it.status());
    if (!it.Valid() || it.key().size() <= enc.size() ||
        it.key().compare(0, enc.size(), enc) != 0) {
      return std::optional<Node>(std::nullopt);
    }
    auto child = Splid::Decode(it.key());
    if (!child.has_value()) return Status::Internal("corrupt splid key");
    // The first key inside the subtree is always a direct child; a deeper
    // key here means an orphan (stored descendant without its ancestors),
    // and sibling navigation built on it would silently skip nodes.
    XTC_CHECK(child->Level() == parent.Level() + 1,
              "first key in subtree is not a direct child (orphan node)");
    if (!include_attr && child->LastDivision() == kAttributeDivision) {
      // Skip the attribute root and its whole subtree.
      it.Seek(child->EncodedSubtreeUpperBound());
      continue;
    }
    auto rec = NodeRecord::Decode(it.value());
    if (!rec.has_value()) return Status::Internal("corrupt node record");
    return std::optional<Node>(Node{*child, *rec});
  }
}

StatusOr<std::optional<Node>> Document::FirstChild(const Splid& parent,
                                                   bool include_attr) const {
  ReaderMutexLock latch(mu_);
  return FirstChildLocked(parent, include_attr);
}

StatusOr<std::optional<Node>> Document::LastChild(const Splid& parent) const {
  ReaderMutexLock latch(mu_);
  auto it = doc_->NewIterator();
  it.SeekForPrev(parent.EncodedSubtreeUpperBound());
  XTC_RETURN_IF_ERROR(it.status());
  if (!it.Valid()) return std::optional<Node>(std::nullopt);
  auto last = Splid::Decode(it.key());
  if (!last.has_value()) return Status::Internal("corrupt splid key");
  if (*last == parent || !parent.IsAncestorOf(*last)) {
    return std::optional<Node>(std::nullopt);
  }
  Splid child = last->AncestorAtLevel(parent.Level() + 1);
  if (child.LastDivision() == kAttributeDivision) {
    // Only the attribute root exists below this parent.
    return std::optional<Node>(std::nullopt);
  }
  auto raw = doc_->Get(child.Encode());
  if (!raw.ok()) return raw.status();
  auto rec = NodeRecord::Decode(*raw);
  if (!rec.has_value()) return Status::Internal("corrupt node record");
  return std::optional<Node>(Node{child, *rec});
}

StatusOr<std::optional<Node>> Document::NextSiblingLocked(
    const Splid& node) const {
  const Splid parent = node.Parent();
  if (!parent.valid()) return std::optional<Node>(std::nullopt);
  auto it = doc_->NewIterator();
  it.Seek(node.EncodedSubtreeUpperBound());
  XTC_RETURN_IF_ERROR(it.status());
  if (!it.Valid()) return std::optional<Node>(std::nullopt);
  auto next = Splid::Decode(it.key());
  if (!next.has_value()) return Status::Internal("corrupt splid key");
  if (next->Parent() != parent) return std::optional<Node>(std::nullopt);
  auto rec = NodeRecord::Decode(it.value());
  if (!rec.has_value()) return Status::Internal("corrupt node record");
  return std::optional<Node>(Node{*next, *rec});
}

StatusOr<std::optional<Node>> Document::NextSibling(const Splid& node) const {
  ReaderMutexLock latch(mu_);
  return NextSiblingLocked(node);
}

StatusOr<std::optional<Node>> Document::PreviousSibling(
    const Splid& node) const {
  ReaderMutexLock latch(mu_);
  return PreviousSiblingLocked(node);
}

StatusOr<std::optional<Node>> Document::PreviousSiblingLocked(
    const Splid& node) const {
  const Splid parent = node.Parent();
  if (!parent.valid()) return std::optional<Node>(std::nullopt);
  auto it = doc_->NewIterator();
  it.SeekForPrev(node.Encode());
  if (it.Valid() && it.key() == node.Encode()) it.Prev();
  XTC_RETURN_IF_ERROR(it.status());
  if (!it.Valid()) return std::optional<Node>(std::nullopt);
  auto prev_deep = Splid::Decode(it.key());
  if (!prev_deep.has_value()) return Status::Internal("corrupt splid key");
  if (*prev_deep == parent || !parent.IsAncestorOf(*prev_deep)) {
    return std::optional<Node>(std::nullopt);
  }
  Splid prev = prev_deep->AncestorAtLevel(node.Level());
  if (prev.LastDivision() == kAttributeDivision) {
    // The attribute root is not a DOM sibling.
    return std::optional<Node>(std::nullopt);
  }
  auto raw = doc_->Get(prev.Encode());
  if (!raw.ok()) return raw.status();
  auto rec = NodeRecord::Decode(*raw);
  if (!rec.has_value()) return Status::Internal("corrupt node record");
  return std::optional<Node>(Node{prev, *rec});
}

StatusOr<std::vector<Node>> Document::Children(const Splid& parent,
                                               bool include_attr) const {
  ReaderMutexLock latch(mu_);
  std::vector<Node> out;
  auto child = FirstChildLocked(parent, include_attr);
  if (!child.ok()) return child.status();
  while (child->has_value()) {
    out.push_back(**child);
    // Advance: attribute roots have no DOM siblings; walk in document
    // order via the subtree upper bound of the current child.
    Splid current = (*child)->splid;
    auto next = NextSiblingLocked(current);
    if (!next.ok()) return next.status();
    if (!next->has_value() && include_attr &&
        current.LastDivision() == kAttributeDivision) {
      // After the attribute root, continue with the first element child.
      child = FirstChildLocked(parent, /*include_attr=*/false);
      continue;
    }
    child = std::move(next);
  }
  return out;
}

StatusOr<std::vector<Node>> Document::SubtreeLocked(const Splid& root) const {
  std::vector<Node> out;
  const std::string enc = root.Encode();
  auto it = doc_->NewIterator();
  for (it.Seek(enc); it.Valid(); it.Next()) {
    if (it.key().size() < enc.size() ||
        it.key().compare(0, enc.size(), enc) != 0) {
      break;
    }
    auto splid = Splid::Decode(it.key());
    auto rec = NodeRecord::Decode(it.value());
    if (!splid.has_value() || !rec.has_value()) {
      return Status::Internal("corrupt subtree entry");
    }
    out.push_back(Node{*splid, *rec});
  }
  XTC_RETURN_IF_ERROR(it.status());
  return out;
}

StatusOr<std::vector<Node>> Document::Subtree(const Splid& root) const {
  ReaderMutexLock latch(mu_);
  return SubtreeLocked(root);
}

std::optional<Splid> Document::LookupId(std::string_view id) const {
  ReaderMutexLock latch(mu_);
  // See Exists(): an optional answer cannot report an I/O error.
  FaultInjector::ScopedSuppress no_faults;
  return ids_->Lookup(id);
}

std::vector<Splid> Document::ElementsByName(std::string_view name) const {
  NameSurrogate s = vocab_.Lookup(name);
  if (s == kInvalidSurrogate) return {};
  ReaderMutexLock latch(mu_);
  FaultInjector::ScopedSuppress no_faults;  // see Exists()
  return elements_->List(s);
}

std::optional<Splid> Document::NthElementByName(std::string_view name,
                                                size_t index) const {
  NameSurrogate s = vocab_.Lookup(name);
  if (s == kInvalidSurrogate) return std::nullopt;
  ReaderMutexLock latch(mu_);
  FaultInjector::ScopedSuppress no_faults;  // see Exists()
  return elements_->Nth(s, index);
}

uint64_t Document::num_nodes() const {
  ReaderMutexLock latch(mu_);
  return doc_->size();
}

BplusTree::Occupancy Document::MeasureOccupancy() const {
  ReaderMutexLock latch(mu_);
  return doc_->MeasureOccupancy();
}

Status Document::Validate() const {
  ReaderMutexLock latch(mu_);
  std::vector<std::pair<Splid, NodeRecord>> all;
  {
    auto it = doc_->NewIterator();
    for (it.SeekToFirst(); it.Valid(); it.Next()) {
      auto splid = Splid::Decode(it.key());
      auto rec = NodeRecord::Decode(it.value());
      if (!splid.has_value() || !rec.has_value()) {
        return Status::Internal("corrupt entry in document tree");
      }
      all.emplace_back(*splid, *rec);
    }
    XTC_RETURN_IF_ERROR(it.status());
  }
  uint64_t element_entries = 0;
  uint64_t id_entries = 0;
  for (const auto& [splid, rec] : all) {
    // Parent must exist (except for the root).
    const Splid parent = splid.Parent();
    if (parent.valid() && !doc_->Contains(parent.Encode())) {
      return Status::Internal("orphan node " + splid.ToString());
    }
    // taDOM layering.
    auto parent_kind = [&]() -> NodeKind {
      auto raw = doc_->Get(parent.Encode());
      auto p = NodeRecord::Decode(*raw);
      return p->kind;
    };
    switch (rec.kind) {
      case NodeKind::kElement:
        if (parent.valid() && parent_kind() != NodeKind::kElement) {
          return Status::Internal("element under non-element at " +
                                  splid.ToString());
        }
        // The element index must hold this exact (name, element) entry;
        // with the cardinality check below, it holds nothing else.
        if (!elements_->Contains(rec.name, splid)) {
          return Status::Internal("element index misses " + splid.ToString());
        }
        ++element_entries;
        break;
      case NodeKind::kAttributeRoot:
        if (splid.LastDivision() != kAttributeDivision ||
            parent_kind() != NodeKind::kElement) {
          return Status::Internal("misplaced attribute root at " +
                                  splid.ToString());
        }
        break;
      case NodeKind::kAttribute:
        if (parent_kind() != NodeKind::kAttributeRoot) {
          return Status::Internal("attribute under non-attribute-root at " +
                                  splid.ToString());
        }
        break;
      case NodeKind::kText:
        if (parent_kind() != NodeKind::kElement) {
          return Status::Internal("text under non-element at " +
                                  splid.ToString());
        }
        break;
      case NodeKind::kString:
        if (splid.LastDivision() != kAttributeDivision) {
          return Status::Internal("string node without division 1 at " +
                                  splid.ToString());
        }
        if (parent_kind() != NodeKind::kText &&
            parent_kind() != NodeKind::kAttribute) {
          return Status::Internal("string under non-text/attribute at " +
                                  splid.ToString());
        }
        break;
    }
    // ID-index agreement for id attribute values.
    if (rec.kind == NodeKind::kString && !rec.content.empty()) {
      auto owner = IdOwnerElement(splid);
      if (owner.has_value()) {
        auto indexed = ids_->Lookup(rec.content);
        if (!indexed.has_value() || *indexed != *owner) {
          return Status::Internal("id index disagrees for value '" +
                                  rec.content + "'");
        }
        ++id_entries;
      }
    }
  }
  // Exact index cardinalities.
  if (elements_->size() != element_entries) {
    return Status::Internal("element index cardinality mismatch");
  }
  if (ids_->size() != id_entries) {
    return Status::Internal("id index cardinality mismatch");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DocumentAccessorImpl
// ---------------------------------------------------------------------------

StatusOr<std::vector<Splid>> DocumentAccessorImpl::NodesInSubtree(
    const Splid& root) {
  auto nodes = doc_->Subtree(root);
  if (!nodes.ok()) return nodes.status();
  std::vector<Splid> out;
  out.reserve(nodes->size());
  for (const Node& n : *nodes) out.push_back(n.splid);
  return out;
}

StatusOr<std::vector<Splid>> DocumentAccessorImpl::ElementsWithIdInSubtree(
    const Splid& root) {
  auto nodes = doc_->Subtree(root);
  if (!nodes.ok()) return nodes.status();
  const NameSurrogate id_name = doc_->vocabulary().Lookup("id");
  std::vector<Splid> out;
  for (const Node& n : *nodes) {
    if (n.record.kind == NodeKind::kAttribute && n.record.name == id_name) {
      // attribute -> attributeRoot -> element
      out.push_back(n.splid.Parent().Parent());
    }
  }
  return out;
}

StatusOr<std::vector<Splid>> DocumentAccessorImpl::ChildrenOf(
    const Splid& node) {
  auto children = doc_->Children(node, /*include_attribute_root=*/true);
  if (!children.ok()) return children.status();
  std::vector<Splid> out;
  out.reserve(children->size());
  for (const Node& n : *children) out.push_back(n.splid);
  return out;
}

}  // namespace xtc
