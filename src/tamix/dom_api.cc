#include "tamix/dom_api.h"

namespace xtc {

DomNode LocalDom::Resolve(const Node& node) const {
  DomNode out;
  out.splid = node.splid;
  out.kind = node.record.kind;
  if (node.record.name != kInvalidSurrogate) {
    out.name = nm_->document().vocabulary().Name(node.record.name);
  }
  return out;
}

StatusOr<std::optional<Splid>> LocalDom::GetElementById(std::string_view id) {
  return nm_->GetElementById(*tx_, id);
}

StatusOr<std::vector<std::pair<std::string, std::string>>>
LocalDom::GetAttributes(const Splid& element) {
  return nm_->GetAttributes(*tx_, element);
}

StatusOr<std::optional<DomNode>> LocalDom::GetFirstChild(const Splid& parent) {
  auto r = nm_->GetFirstChild(*tx_, parent);
  if (!r.ok()) return r.status();
  if (!r->has_value()) return std::optional<DomNode>();
  return std::optional<DomNode>(Resolve(**r));
}

StatusOr<std::optional<DomNode>> LocalDom::GetLastChild(const Splid& parent) {
  auto r = nm_->GetLastChild(*tx_, parent);
  if (!r.ok()) return r.status();
  if (!r->has_value()) return std::optional<DomNode>();
  return std::optional<DomNode>(Resolve(**r));
}

StatusOr<std::optional<DomNode>> LocalDom::GetNextSibling(const Splid& node) {
  auto r = nm_->GetNextSibling(*tx_, node);
  if (!r.ok()) return r.status();
  if (!r->has_value()) return std::optional<DomNode>();
  return std::optional<DomNode>(Resolve(**r));
}

StatusOr<std::vector<DomNode>> LocalDom::GetChildNodes(const Splid& parent) {
  auto r = nm_->GetChildNodes(*tx_, parent);
  if (!r.ok()) return r.status();
  std::vector<DomNode> out;
  out.reserve(r->size());
  for (const Node& n : *r) out.push_back(Resolve(n));
  return out;
}

StatusOr<std::string> LocalDom::GetTextContent(const Splid& text) {
  return nm_->GetTextContent(*tx_, text);
}

Status LocalDom::DeclareUpdateIntent(const Splid& node) {
  return nm_->DeclareUpdateIntent(*tx_, node);
}

Status LocalDom::UpdateText(const Splid& text, std::string_view content) {
  return nm_->UpdateText(*tx_, text, content);
}

Status LocalDom::SetAttribute(const Splid& element, std::string_view name,
                              std::string_view value) {
  return nm_->SetAttribute(*tx_, element, name, value);
}

StatusOr<Splid> LocalDom::AppendSubtree(const Splid& parent,
                                        const SubtreeSpec& spec) {
  return nm_->AppendSubtree(*tx_, parent, spec);
}

Status LocalDom::DeleteSubtree(const Splid& root) {
  return nm_->DeleteSubtree(*tx_, root);
}

Status LocalDom::Rename(const Splid& element, std::string_view new_name) {
  return nm_->Rename(*tx_, element, new_name);
}

Status LocalSession::Begin(IsolationLevel isolation, int lock_depth,
                           TxType /*type*/) {
  tx_ = txm_->Begin(isolation, lock_depth);
  dom_.emplace(nm_, tx_.get());
  return Status::OK();
}

StatusOr<uint64_t> LocalSession::Commit(std::string_view payload) {
  XTC_RETURN_IF_ERROR(txm_->Commit(*tx_, payload));
  return tx_->commit_seq();
}

Status LocalSession::Abort() { return txm_->Abort(*tx_); }

}  // namespace xtc
