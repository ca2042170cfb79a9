#include "node/node_manager.h"

namespace xtc {

NodeManager::NodeManager(Document* doc, LockManager* locks,
                         FaultInjector* faults)
    : doc_(doc), locks_(locks), faults_(faults), accessor_(doc) {
  locks_->protocol().set_document_accessor(&accessor_);
}

void NodeManager::AddDocumentUndo(Transaction& tx, UndoOp undo) {
  tx.AddUndo(
      [doc = doc_, undo = std::move(undo)] { return doc->ApplyUndo(undo); });
}

StatusOr<std::optional<Node>> NodeManager::GetNode(Transaction& tx,
                                                   const Splid& splid) {
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  XTC_RETURN_IF_ERROR(locks_->NodeRead(view, splid));
  auto rec = doc_->Get(splid);
  if (!rec.ok()) {
    if (rec.status().IsNotFound()) return std::optional<Node>(std::nullopt);
    return rec.status();
  }
  return std::optional<Node>(Node{splid, *rec});
}

StatusOr<std::optional<Splid>> NodeManager::GetElementById(
    Transaction& tx, std::string_view id) {
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  // Serializable: the predicate "element with this id (not) present" is
  // locked before the index lookup, so misses cannot turn into phantoms.
  XTC_RETURN_IF_ERROR(locks_->IdShared(view, id));
  auto target = doc_->LookupId(id);
  if (!target.has_value()) return std::optional<Splid>(std::nullopt);
  XTC_RETURN_IF_ERROR(locks_->NodeRead(view, *target, AccessKind::kJump));
  // Re-check after a potential lock wait: the element may be gone.
  if (!doc_->Exists(*target)) return std::optional<Splid>(std::nullopt);
  return std::optional<Splid>(*target);
}

StatusOr<std::optional<Node>> NodeManager::GetFirstChild(Transaction& tx,
                                                         const Splid& parent) {
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  XTC_RETURN_IF_ERROR(locks_->EdgeShared(view, parent, EdgeKind::kFirstChild));
  auto child = doc_->FirstChild(parent);
  if (!child.ok()) return child.status();
  if (child->has_value()) {
    XTC_RETURN_IF_ERROR(locks_->NodeRead(view, (*child)->splid));
  }
  return child;
}

StatusOr<std::optional<Node>> NodeManager::GetLastChild(Transaction& tx,
                                                        const Splid& parent) {
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  XTC_RETURN_IF_ERROR(locks_->EdgeShared(view, parent, EdgeKind::kLastChild));
  auto child = doc_->LastChild(parent);
  if (!child.ok()) return child.status();
  if (child->has_value()) {
    XTC_RETURN_IF_ERROR(locks_->NodeRead(view, (*child)->splid));
  }
  return child;
}

StatusOr<std::optional<Node>> NodeManager::GetNextSibling(Transaction& tx,
                                                          const Splid& node) {
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  XTC_RETURN_IF_ERROR(locks_->EdgeShared(view, node, EdgeKind::kNextSibling));
  auto sibling = doc_->NextSibling(node);
  if (!sibling.ok()) return sibling.status();
  if (sibling->has_value()) {
    XTC_RETURN_IF_ERROR(locks_->NodeRead(view, (*sibling)->splid));
  }
  return sibling;
}

StatusOr<std::optional<Node>> NodeManager::GetPreviousSibling(
    Transaction& tx, const Splid& node) {
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  auto sibling = doc_->PreviousSibling(node);
  if (!sibling.ok()) return sibling.status();
  if (sibling->has_value()) {
    // The sibling edge is canonical on its left endpoint.
    XTC_RETURN_IF_ERROR(
        locks_->EdgeShared(view, (*sibling)->splid, EdgeKind::kNextSibling));
    XTC_RETURN_IF_ERROR(locks_->NodeRead(view, (*sibling)->splid));
  } else {
    // "node is the first child" is a fact about the first-child edge.
    const Splid parent = node.Parent();
    if (parent.valid()) {
      XTC_RETURN_IF_ERROR(
          locks_->EdgeShared(view, parent, EdgeKind::kFirstChild));
    }
  }
  return sibling;
}

StatusOr<std::optional<Node>> NodeManager::GetParent(Transaction& tx,
                                                     const Splid& node) {
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  const Splid parent = node.Parent();
  if (!parent.valid()) return std::optional<Node>(std::nullopt);
  XTC_RETURN_IF_ERROR(locks_->NodeRead(view, parent));
  auto rec = doc_->Get(parent);
  if (!rec.ok()) return rec.status();
  return std::optional<Node>(Node{parent, *rec});
}

StatusOr<std::vector<Node>> NodeManager::GetChildNodes(Transaction& tx,
                                                       const Splid& parent) {
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  XTC_RETURN_IF_ERROR(locks_->LevelRead(view, parent));
  return doc_->Children(parent);
}

StatusOr<std::vector<std::pair<std::string, std::string>>>
NodeManager::GetAttributes(Transaction& tx, const Splid& element) {
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  const Splid attr_root = element.AttributeChild();
  if (!doc_->Exists(attr_root)) {
    return std::vector<std::pair<std::string, std::string>>{};
  }
  // One LR on the attribute root locks all attributes implicitly
  // (paper §2.3); their string children count as attribute content.
  XTC_RETURN_IF_ERROR(locks_->LevelRead(view, attr_root));
  auto attrs = doc_->Children(attr_root);
  if (!attrs.ok()) return attrs.status();
  std::vector<std::pair<std::string, std::string>> out;
  for (const Node& attr : *attrs) {
    auto value = doc_->Get(attr.splid.AttributeChild());
    if (!value.ok()) return value.status();
    out.emplace_back(doc_->vocabulary().Name(attr.record.name),
                     value->content);
  }
  return out;
}

StatusOr<std::string> NodeManager::GetAttributeValue(Transaction& tx,
                                                     const Splid& element,
                                                     std::string_view name) {
  auto attrs = GetAttributes(tx, element);
  if (!attrs.ok()) return attrs.status();
  for (const auto& [attr_name, value] : *attrs) {
    if (attr_name == name) return value;
  }
  return std::string();
}

StatusOr<std::string> NodeManager::GetTextContent(Transaction& tx,
                                                  const Splid& text) {
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  // LR on the text node covers its string child.
  XTC_RETURN_IF_ERROR(locks_->LevelRead(view, text));
  auto value = doc_->Get(text.AttributeChild());
  if (!value.ok()) return value.status();
  return value->content;
}

Status NodeManager::DeclareUpdateIntent(Transaction& tx, const Splid& node) {
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  return locks_->NodeUpdate(view, node);
}

Status NodeManager::UpdateText(Transaction& tx, const Splid& text,
                               std::string_view content) {
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  ScopedWalTx wal_tx(tx.id());
  const Splid string_node = text.AttributeChild();
  XTC_RETURN_IF_ERROR(locks_->NodeWrite(view, string_node));
  UndoOp undo;
  XTC_RETURN_IF_ERROR(doc_->UpdateContent(string_node, content, &undo));
  AddDocumentUndo(tx, std::move(undo));
  return MaybeInject(faults_, fault_points::kNodeIud);
}

Status NodeManager::Rename(Transaction& tx, const Splid& element,
                           std::string_view new_name) {
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  ScopedWalTx wal_tx(tx.id());
  XTC_RETURN_IF_ERROR(locks_->NodeWrite(view, element));
  auto old = doc_->Get(element);
  if (!old.ok()) return old.status();
  if (old->kind != NodeKind::kElement) {
    return Status::InvalidArgument("Rename on a non-element");
  }
  UndoOp undo;
  XTC_RETURN_IF_ERROR(doc_->RenameElement(
      element, doc_->vocabulary().Intern(new_name), &undo));
  AddDocumentUndo(tx, std::move(undo));
  return MaybeInject(faults_, fault_points::kNodeIud);
}

Status NodeManager::LockSpecIds(const TxLockView& view,
                                const SubtreeSpec& spec) {
  if (view.isolation != IsolationLevel::kSerializable) return Status::OK();
  for (const auto& [name, value] : spec.attributes) {
    if (name == "id") {
      XTC_RETURN_IF_ERROR(locks_->IdExclusive(view, value));
    }
  }
  for (const SubtreeSpec& child : spec.children) {
    XTC_RETURN_IF_ERROR(LockSpecIds(view, child));
  }
  return Status::OK();
}

Status NodeManager::LockNodeIds(const TxLockView& view,
                                const std::vector<Node>& nodes) {
  if (view.isolation != IsolationLevel::kSerializable) return Status::OK();
  const NameSurrogate id_name = doc_->vocabulary().Lookup("id");
  for (const Node& n : nodes) {
    if (n.record.kind != NodeKind::kAttribute || n.record.name != id_name) {
      continue;
    }
    const Splid value_node = n.splid.AttributeChild();
    for (const Node& m : nodes) {
      if (m.splid == value_node) {
        XTC_RETURN_IF_ERROR(locks_->IdExclusive(view, m.record.content));
        break;
      }
    }
  }
  return Status::OK();
}

StatusOr<Splid> NodeManager::InsertSubtreeCommon(Transaction& tx,
                                                 const Splid& anchor,
                                                 const SubtreeSpec& spec,
                                                 int placement) {
  if (placement != 0 && anchor.IsRoot()) {
    return Status::InvalidArgument("the document root has no siblings");
  }
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  ScopedWalTx wal_tx(tx.id());
  StatusOr<Splid> label = Status::Internal("unset");
  switch (placement) {
    case 0: {  // append as last child of `anchor`
      XTC_RETURN_IF_ERROR(
          locks_->EdgeExclusive(view, anchor, EdgeKind::kLastChild));
      auto last = doc_->LastChild(anchor);
      if (!last.ok()) return last.status();
      if (last->has_value()) {
        XTC_RETURN_IF_ERROR(locks_->EdgeExclusive(view, (*last)->splid,
                                                  EdgeKind::kNextSibling));
      }
      label = doc_->PeekAppendLabel(anchor);
      break;
    }
    case 1: {  // insert before sibling `anchor`
      auto prev = doc_->PreviousSibling(anchor);
      if (!prev.ok()) return prev.status();
      if (prev->has_value()) {
        XTC_RETURN_IF_ERROR(locks_->EdgeExclusive(view, (*prev)->splid,
                                                  EdgeKind::kNextSibling));
      } else {
        XTC_RETURN_IF_ERROR(locks_->EdgeExclusive(view, anchor.Parent(),
                                                  EdgeKind::kFirstChild));
      }
      label = doc_->PeekSiblingLabel(anchor, /*after=*/false);
      break;
    }
    case 2: {  // insert after sibling `anchor`
      XTC_RETURN_IF_ERROR(
          locks_->EdgeExclusive(view, anchor, EdgeKind::kNextSibling));
      auto next = doc_->NextSibling(anchor);
      if (!next.ok()) return next.status();
      if (!next->has_value()) {
        XTC_RETURN_IF_ERROR(locks_->EdgeExclusive(view, anchor.Parent(),
                                                  EdgeKind::kLastChild));
      }
      label = doc_->PeekSiblingLabel(anchor, /*after=*/true);
      break;
    }
    default:
      return Status::Internal("bad placement");
  }
  if (!label.ok()) return label.status();
  XTC_RETURN_IF_ERROR(LockSpecIds(view, spec));
  XTC_RETURN_IF_ERROR(locks_->TreeWrite(view, *label));
  UndoOp undo;
  auto actual = placement == 0
                    ? doc_->AppendSubtree(anchor, spec, &*label, &undo)
                    : doc_->InsertSibling(anchor, spec, placement == 2,
                                          &*label, &undo);
  if (!actual.ok()) return actual.status();
  AddDocumentUndo(tx, std::move(undo));
  XTC_RETURN_IF_ERROR(MaybeInject(faults_, fault_points::kNodeIud));
  return *actual;
}

Status NodeManager::SetAttribute(Transaction& tx, const Splid& element,
                                 std::string_view name,
                                 std::string_view value) {
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  ScopedWalTx wal_tx(tx.id());
  const NameSurrogate surrogate = doc_->vocabulary().Intern(name);
  auto existing = doc_->FindAttribute(element, surrogate);
  if (!existing.ok()) return existing.status();
  UndoOp undo;
  if (existing->has_value()) {
    // In-place value update: exclusive lock on the attribute subtree
    // (attribute + string). The CX this puts on the attribute root
    // conflicts with the LR that getAttributes() readers hold — the
    // taDOM attribute isolation of §2.3.
    const Splid string_node = (**existing).AttributeChild();
    XTC_RETURN_IF_ERROR(locks_->TreeWrite(view, **existing));
    if (name == "id") {
      auto old = doc_->Get(string_node);
      if (!old.ok()) return old.status();
      XTC_RETURN_IF_ERROR(locks_->IdExclusive(view, old->content));
      XTC_RETURN_IF_ERROR(locks_->IdExclusive(view, value));
    }
    XTC_RETURN_IF_ERROR(doc_->UpdateContent(string_node, value, &undo));
    AddDocumentUndo(tx, std::move(undo));
    return MaybeInject(faults_, fault_points::kNodeIud);
  }
  // Fresh attribute: exclusive on the attribute root's child level.
  const Splid attr_root = element.AttributeChild();
  XTC_RETURN_IF_ERROR(locks_->EdgeExclusive(view, attr_root,
                                            EdgeKind::kLastChild));
  if (name == "id") {
    XTC_RETURN_IF_ERROR(locks_->IdExclusive(view, value));
  }
  auto added = doc_->AddAttribute(element, surrogate, value, &undo);
  if (!added.ok()) return added.status();
  // Registered before the lock below: a failing lock request must still
  // leave the new attribute for the abort to remove.
  AddDocumentUndo(tx, std::move(undo));
  XTC_RETURN_IF_ERROR(locks_->NodeWrite(view, *added));
  return MaybeInject(faults_, fault_points::kNodeIud);
}

Status NodeManager::RemoveAttribute(Transaction& tx, const Splid& element,
                                    std::string_view name) {
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  ScopedWalTx wal_tx(tx.id());
  const NameSurrogate surrogate = doc_->vocabulary().Lookup(name);
  if (surrogate == kInvalidSurrogate) {
    return Status::NotFound("attribute not found");
  }
  auto existing = doc_->FindAttribute(element, surrogate);
  if (!existing.ok()) return existing.status();
  if (!existing->has_value()) return Status::NotFound("attribute not found");
  XTC_RETURN_IF_ERROR(locks_->TreeWrite(view, **existing));
  auto nodes = doc_->Subtree(**existing);
  if (!nodes.ok()) return nodes.status();
  XTC_RETURN_IF_ERROR(LockNodeIds(view, *nodes));
  // LockNodeIds sees only the attribute+string pair; an id attribute's
  // value is the string's content.
  if (name == "id" && nodes->size() >= 2) {
    XTC_RETURN_IF_ERROR(locks_->IdExclusive(view, (*nodes)[1].record.content));
  }
  UndoOp undo;
  XTC_RETURN_IF_ERROR(doc_->RemoveSubtree(**existing, &undo));
  AddDocumentUndo(tx, std::move(undo));
  return MaybeInject(faults_, fault_points::kNodeIud);
}

StatusOr<Splid> NodeManager::AppendSubtree(Transaction& tx,
                                           const Splid& parent,
                                           const SubtreeSpec& spec) {
  return InsertSubtreeCommon(tx, parent, spec, /*placement=*/0);
}

StatusOr<Splid> NodeManager::InsertBefore(Transaction& tx,
                                          const Splid& sibling,
                                          const SubtreeSpec& spec) {
  return InsertSubtreeCommon(tx, sibling, spec, /*placement=*/1);
}

StatusOr<Splid> NodeManager::InsertAfter(Transaction& tx,
                                         const Splid& sibling,
                                         const SubtreeSpec& spec) {
  return InsertSubtreeCommon(tx, sibling, spec, /*placement=*/2);
}

StatusOr<std::vector<Node>> NodeManager::GetFragment(Transaction& tx,
                                                     const Splid& root) {
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  XTC_RETURN_IF_ERROR(locks_->TreeRead(view, root));
  return doc_->Subtree(root);
}

StatusOr<std::vector<Splid>> NodeManager::GetElementsByTagName(
    Transaction& tx, std::string_view name) {
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  std::vector<Splid> hits = doc_->ElementsByName(name);
  std::vector<Splid> out;
  out.reserve(hits.size());
  for (const Splid& hit : hits) {
    XTC_RETURN_IF_ERROR(locks_->NodeRead(view, hit, AccessKind::kJump));
    if (doc_->Exists(hit)) out.push_back(hit);
  }
  return out;
}

Status NodeManager::DeleteSubtree(Transaction& tx, const Splid& root) {
  const TxLockView view = tx.LockView();
  OpScope scope(locks_, view);
  ScopedWalTx wal_tx(tx.id());
  // Protocol-specific preparation (the *-2PL IDX scan happens here).
  XTC_RETURN_IF_ERROR(locks_->PrepareSubtreeDelete(view, root));

  // Lock the navigation edges the removal changes.
  const Splid parent = root.Parent();
  auto prev = doc_->PreviousSibling(root);
  if (!prev.ok()) return prev.status();
  if (prev->has_value()) {
    XTC_RETURN_IF_ERROR(
        locks_->EdgeExclusive(view, (*prev)->splid, EdgeKind::kNextSibling));
  } else if (parent.valid()) {
    XTC_RETURN_IF_ERROR(
        locks_->EdgeExclusive(view, parent, EdgeKind::kFirstChild));
  }
  auto next = doc_->NextSibling(root);
  if (!next.ok()) return next.status();
  XTC_RETURN_IF_ERROR(
      locks_->EdgeExclusive(view, root, EdgeKind::kNextSibling));
  if (!next->has_value() && parent.valid()) {
    XTC_RETURN_IF_ERROR(
        locks_->EdgeExclusive(view, parent, EdgeKind::kLastChild));
  }

  XTC_RETURN_IF_ERROR(locks_->TreeWrite(view, root));

  auto nodes = doc_->Subtree(root);
  if (!nodes.ok()) return nodes.status();
  if (nodes->empty()) return Status::NotFound("subtree root not found");
  // Serializable: ids disappearing with this subtree are predicates too.
  XTC_RETURN_IF_ERROR(LockNodeIds(view, *nodes));
  UndoOp undo;
  XTC_RETURN_IF_ERROR(doc_->RemoveSubtree(root, &undo));
  AddDocumentUndo(tx, std::move(undo));
  return MaybeInject(faults_, fault_points::kNodeIud);
}

}  // namespace xtc
