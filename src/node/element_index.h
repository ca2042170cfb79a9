// Element index (paper §3.2, Fig. 6b): a name directory over a
// node-reference index. Keys are (name surrogate, SPLID) pairs in a
// B+-tree, so all elements with a given name enumerate in document order.

#ifndef XTC_NODE_ELEMENT_INDEX_H_
#define XTC_NODE_ELEMENT_INDEX_H_

#include <vector>

#include "splid/splid.h"
#include "storage/bplus_tree.h"
#include "storage/vocabulary.h"
#include "util/status.h"

namespace xtc {

class ElementIndex {
 public:
  explicit ElementIndex(BufferManager* bm) : tree_(bm) {}

  /// Opens an existing index at a known root (restart recovery).
  ElementIndex(BufferManager* bm, PageId root, uint64_t count)
      : tree_(bm, root, count) {}

  Status Add(NameSurrogate name, const Splid& splid);
  Status Remove(NameSurrogate name, const Splid& splid);

  /// Whether the index holds exactly this (name, element) entry.
  bool Contains(NameSurrogate name, const Splid& splid) const;

  /// All elements with this name, in document order.
  std::vector<Splid> List(NameSurrogate name) const;

  /// The index-th element with this name (document order), if any.
  std::optional<Splid> Nth(NameSurrogate name, size_t index) const;

  uint64_t size() const { return tree_.size(); }

  /// The backing tree (checkpoint metadata / recovery page walks).
  const BplusTree& tree() const { return tree_; }

 private:
  static std::string MakeKey(NameSurrogate name, const Splid& splid);

  BplusTree tree_;
};

}  // namespace xtc

#endif  // XTC_NODE_ELEMENT_INDEX_H_
