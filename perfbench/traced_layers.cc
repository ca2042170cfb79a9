#include "traced_layers.h"

namespace xtc::perfbench {

Status TracedProtocol::NodeRead(uint64_t tx, const Splid& node,
                                AccessKind access, LockDuration dur) {
  Span span(tracer_, SpanKind::kLockCall, tx);
  return inner_->NodeRead(tx, node, access, dur);
}

Status TracedProtocol::NodeUpdate(uint64_t tx, const Splid& node,
                                  LockDuration dur) {
  Span span(tracer_, SpanKind::kLockCall, tx);
  return inner_->NodeUpdate(tx, node, dur);
}

Status TracedProtocol::NodeWrite(uint64_t tx, const Splid& node,
                                 AccessKind access, LockDuration dur) {
  Span span(tracer_, SpanKind::kLockCall, tx);
  return inner_->NodeWrite(tx, node, access, dur);
}

Status TracedProtocol::LevelRead(uint64_t tx, const Splid& node,
                                 LockDuration dur) {
  Span span(tracer_, SpanKind::kLockCall, tx);
  return inner_->LevelRead(tx, node, dur);
}

Status TracedProtocol::TreeRead(uint64_t tx, const Splid& root,
                                LockDuration dur) {
  Span span(tracer_, SpanKind::kLockCall, tx);
  return inner_->TreeRead(tx, root, dur);
}

Status TracedProtocol::TreeUpdate(uint64_t tx, const Splid& root,
                                  LockDuration dur) {
  Span span(tracer_, SpanKind::kLockCall, tx);
  return inner_->TreeUpdate(tx, root, dur);
}

Status TracedProtocol::TreeWrite(uint64_t tx, const Splid& root,
                                 LockDuration dur) {
  Span span(tracer_, SpanKind::kLockCall, tx);
  return inner_->TreeWrite(tx, root, dur);
}

Status TracedProtocol::EdgeLock(uint64_t tx, const Splid& anchor,
                                EdgeKind kind, bool exclusive,
                                LockDuration dur) {
  Span span(tracer_, SpanKind::kLockCall, tx);
  return inner_->EdgeLock(tx, anchor, kind, exclusive, dur);
}

Status TracedProtocol::PrepareSubtreeDelete(uint64_t tx, const Splid& root,
                                            LockDuration dur) {
  Span span(tracer_, SpanKind::kLockCall, tx);
  return inner_->PrepareSubtreeDelete(tx, root, dur);
}

Status TracedProtocol::IdValueLock(uint64_t tx, std::string_view id,
                                   bool exclusive, LockDuration dur) {
  Span span(tracer_, SpanKind::kLockCall, tx);
  return inner_->IdValueLock(tx, id, exclusive, dur);
}

void TracedProtocol::EndOperation(uint64_t tx) {
  Span span(tracer_, SpanKind::kLockEndOp, tx);
  inner_->EndOperation(tx);
}

void TracedProtocol::ReleaseAll(uint64_t tx) {
  Span span(tracer_, SpanKind::kLockReleaseAll, tx);
  inner_->ReleaseAll(tx);
}

StatusOr<std::optional<Splid>> TracedDom::GetElementById(std::string_view id) {
  Span span = Scope();
  return inner_->GetElementById(id);
}

StatusOr<std::vector<std::pair<std::string, std::string>>>
TracedDom::GetAttributes(const Splid& element) {
  Span span = Scope();
  return inner_->GetAttributes(element);
}

StatusOr<std::optional<DomNode>> TracedDom::GetFirstChild(
    const Splid& parent) {
  Span span = Scope();
  return inner_->GetFirstChild(parent);
}

StatusOr<std::optional<DomNode>> TracedDom::GetLastChild(const Splid& parent) {
  Span span = Scope();
  return inner_->GetLastChild(parent);
}

StatusOr<std::optional<DomNode>> TracedDom::GetNextSibling(const Splid& node) {
  Span span = Scope();
  return inner_->GetNextSibling(node);
}

StatusOr<std::vector<DomNode>> TracedDom::GetChildNodes(const Splid& parent) {
  Span span = Scope();
  return inner_->GetChildNodes(parent);
}

StatusOr<std::string> TracedDom::GetTextContent(const Splid& text) {
  Span span = Scope();
  return inner_->GetTextContent(text);
}

Status TracedDom::DeclareUpdateIntent(const Splid& node) {
  Span span = Scope();
  return inner_->DeclareUpdateIntent(node);
}

Status TracedDom::UpdateText(const Splid& text, std::string_view content) {
  Span span = Scope();
  return inner_->UpdateText(text, content);
}

Status TracedDom::SetAttribute(const Splid& element, std::string_view name,
                               std::string_view value) {
  Span span = Scope();
  return inner_->SetAttribute(element, name, value);
}

StatusOr<Splid> TracedDom::AppendSubtree(const Splid& parent,
                                         const SubtreeSpec& spec) {
  Span span = Scope();
  return inner_->AppendSubtree(parent, spec);
}

Status TracedDom::DeleteSubtree(const Splid& root) {
  Span span = Scope();
  return inner_->DeleteSubtree(root);
}

Status TracedDom::Rename(const Splid& element, std::string_view new_name) {
  Span span = Scope();
  return inner_->Rename(element, new_name);
}

}  // namespace xtc::perfbench
