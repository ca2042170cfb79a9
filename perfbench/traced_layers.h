// Tracing decorators for the traced run: each wraps one layer's public
// interface, forwards every call unchanged, and records a span around it.
// Untraced runs use the bare objects, so end-to-end numbers never pay for
// the indirection.

#ifndef XTC_PERFBENCH_TRACED_LAYERS_H_
#define XTC_PERFBENCH_TRACED_LAYERS_H_

#include <memory>

#include "lock/xml_protocol.h"
#include "tamix/dom_api.h"
#include "trace.h"

namespace xtc::perfbench {

/// XmlProtocol decorator around the object CreateProtocol returns: meta
/// lock requests record kLockCall, the release events kLockEndOp and
/// kLockReleaseAll.
class TracedProtocol : public XmlProtocol {
 public:
  TracedProtocol(std::unique_ptr<XmlProtocol> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string_view name() const override { return inner_->name(); }
  bool supports_lock_depth() const override {
    return inner_->supports_lock_depth();
  }
  LockTable& table() override { return inner_->table(); }
  void set_document_accessor(DocumentAccessor* accessor) override {
    inner_->set_document_accessor(accessor);
  }

  Status NodeRead(uint64_t tx, const Splid& node, AccessKind access,
                  LockDuration dur) override;
  Status NodeUpdate(uint64_t tx, const Splid& node, LockDuration dur) override;
  Status NodeWrite(uint64_t tx, const Splid& node, AccessKind access,
                   LockDuration dur) override;
  Status LevelRead(uint64_t tx, const Splid& node, LockDuration dur) override;
  Status TreeRead(uint64_t tx, const Splid& root, LockDuration dur) override;
  Status TreeUpdate(uint64_t tx, const Splid& root, LockDuration dur) override;
  Status TreeWrite(uint64_t tx, const Splid& root, LockDuration dur) override;
  Status EdgeLock(uint64_t tx, const Splid& anchor, EdgeKind kind,
                  bool exclusive, LockDuration dur) override;
  Status PrepareSubtreeDelete(uint64_t tx, const Splid& root,
                              LockDuration dur) override;
  Status IdValueLock(uint64_t tx, std::string_view id, bool exclusive,
                     LockDuration dur) override;
  void EndOperation(uint64_t tx) override;
  void ReleaseAll(uint64_t tx) override;

 private:
  std::unique_ptr<XmlProtocol> inner_;
  Tracer* tracer_;
};

/// TaMixDom decorator around LocalDom (kind kNodeOp) or RemoteDom (kind
/// kNetRtt): one span per DOM call, tagged with the transaction id.
class TracedDom : public TaMixDom {
 public:
  TracedDom(TaMixDom* inner, Tracer* tracer, SpanKind kind, uint64_t tx)
      : inner_(inner), tracer_(tracer), kind_(kind), tx_(tx) {}

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
  Span Scope() { return Span(tracer_, kind_, tx_); }

  TaMixDom* inner_;
  Tracer* tracer_;
  SpanKind kind_;
  uint64_t tx_;
};

}  // namespace xtc::perfbench

#endif  // XTC_PERFBENCH_TRACED_LAYERS_H_
