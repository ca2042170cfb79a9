// B+-tree over variable-length byte-string keys with prefix-compressed
// pages (paper §3.2, Fig. 6: document index + container pages).
//
// A single tree keyed by encoded SPLIDs stores a whole XML document in
// left-most depth-first order; further trees implement the element index
// and the ID index. Leaves are doubly chained for bidirectional
// navigation (previous/next sibling).
//
// Concurrency: the tree itself is not internally synchronized. Its owner
// (Document) wraps every operation in the document's short reader/writer
// latch: lookups and cursors run under the shared latch, mutations under
// the exclusive one. Latches are never held across lock waits
// (DESIGN.md §4).
//
// Last-leaf hint: navigation steps mostly land on the leaf the previous
// lookup read (a next sibling sits right after its predecessor in
// document order), so each tree remembers the leaf of its last descent
// together with a structure epoch. The epoch changes, under the exclusive
// latch, whenever a leaf's key range can change or a page can leave the
// tree (splits, freed leaves and inner pages, root growth and collapse).
// A lookup uses the hinted leaf without descending only while the epoch
// still matches and the key lies within the leaf's own first and last
// keys; otherwise it descends from the root and renews the hint.

#ifndef XTC_STORAGE_BPLUS_TREE_H_
#define XTC_STORAGE_BPLUS_TREE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/buffer_manager.h"
#include "storage/slotted_page.h"
#include "util/status.h"

namespace xtc {

class BplusTree {
 public:
  /// Creates an empty tree (allocates the root leaf). Key prefix
  /// compression can be disabled for ablation measurements.
  explicit BplusTree(BufferManager* bm, bool prefix_compression = true);

  /// Opens an existing tree at a known root (restart recovery: the root
  /// and entry count come from the WAL's tree metadata).
  BplusTree(BufferManager* bm, PageId root, uint64_t count,
            bool prefix_compression = true)
      : bm_(bm),
        prefix_compression_(prefix_compression),
        root_(root),
        count_(count) {}

  BplusTree(const BplusTree&) = delete;
  BplusTree& operator=(const BplusTree&) = delete;

  PageId root() const { return root_; }

  /// Appends every page id reachable from the root (recovery rebuilds
  /// the page-file free list from the union over all trees).
  Status CollectPages(std::vector<PageId>* out) const;

  /// Inserts a new key. Fails with kInvalidArgument on duplicates.
  Status Insert(std::string_view key, std::string_view value);

  /// Replaces the value of an existing key.
  Status Update(std::string_view key, std::string_view value);

  /// Removes a key. Fails with kNotFound if absent.
  Status Delete(std::string_view key);

  StatusOr<std::string> Get(std::string_view key) const;
  bool Contains(std::string_view key) const;

  uint64_t size() const { return count_; }

  /// Forward/backward cursor. Positioning methods copy the entry out, so
  /// the iterator holds no page pins between calls; it must not be used
  /// across tree modifications. A page fetch failure ends the iteration
  /// (Valid() turns false) and is remembered in status(): callers that
  /// treat !Valid() as "no more entries" must check status() afterwards,
  /// or an I/O error silently truncates the scan.
  class Iterator {
   public:
    explicit Iterator(const BplusTree* tree) : tree_(tree) {}

    void SeekToFirst();
    void SeekToLast();
    /// Positions at the first entry with key >= target.
    void Seek(std::string_view target);
    /// Positions at the last entry with key <= target.
    void SeekForPrev(std::string_view target);
    void Next();
    void Prev();

    bool Valid() const { return valid_; }
    const std::string& key() const { return key_; }
    const std::string& value() const { return value_; }
    /// OK while the scan merely ran out of entries; the first page fetch
    /// error otherwise. Reset by every positioning call.
    const Status& status() const { return status_; }

   private:
    void Invalidate(const Status& st);
    // Replaces the pin in *out by one on `page`; false (and the iterator
    // invalid) if the fetch fails.
    bool Pin(PageId page, PageGuard* out);
    // Positions at `slot` of the pinned leaf, skipping to later (earlier)
    // leaves while the slot lies past the end (before the start).
    void AdvanceForward(PageGuard leaf, int slot);   // slot may be past end
    void AdvanceBackward(PageGuard leaf, int slot);  // slot may be -1

    const BplusTree* tree_;
    bool valid_ = false;
    Status status_ = Status::OK();
    PageId page_ = kInvalidPageId;
    int slot_ = 0;
    std::string key_;
    std::string value_;
  };

  Iterator NewIterator() const { return Iterator(this); }

  /// Depth of the tree (1 = root is a leaf); for stats/tests.
  int Height() const;

  /// Storage occupancy report (paper §3.1 reports > 96 % for the taDOM
  /// store under update workloads).
  struct Occupancy {
    uint64_t leaf_pages = 0;
    uint64_t inner_pages = 0;
    uint64_t live_bytes = 0;      // header + prefix + cells + slots
    uint64_t capacity_bytes = 0;  // pages * page size
    double ratio() const {
      return capacity_bytes == 0
                 ? 0.0
                 : static_cast<double>(live_bytes) /
                       static_cast<double>(capacity_bytes);
    }
  };
  Occupancy MeasureOccupancy() const;

 private:
  struct Split {
    std::string separator;
    PageId right;
  };

  // A pinned leaf and the LowerBound of a key in it.
  struct LeafSlot {
    PageGuard leaf;
    int slot = 0;       // first slot with key >= the searched key
    bool found = false;  // that slot holds the key itself
  };

  // Routes a key to the child of an inner page.
  static PageId RouteChild(const SlottedPage& sp, std::string_view key);

  // Pins the leaf that may contain `key` and locates the key in it: the
  // hinted leaf when it provably answers for `key`, else the leaf a root
  // descent reaches (which then becomes the hint).
  StatusOr<LeafSlot> FindLeaf(std::string_view key) const;

  // Invalidates the last-leaf hint; called, under the exclusive latch,
  // before any change that can move a leaf's key range or free a page.
  void BumpEpoch() { ++epoch_; }
  uint64_t HintFor(PageId leaf) const {
    return (static_cast<uint64_t>(epoch_) << 32) | leaf;
  }

  Status InsertRec(PageId node, std::string_view key, std::string_view value,
                   std::optional<Split>* split);
  // Deletes `key` under `node`; *became_empty set when node has no live
  // entries/children afterwards.
  Status DeleteRec(PageId node, std::string_view key, bool* became_empty);

  Status SplitLeaf(SlottedPage* left, PageId left_id, std::string_view key,
                   std::string_view value, std::optional<Split>* split);
  Status SplitInner(SlottedPage* left, std::string_view key, PageId right_child,
                    std::optional<Split>* split);

  void FreeLeafAndUnchain(PageId id);

  BufferManager* bm_;
  bool prefix_compression_ = true;
  PageId root_;
  uint64_t count_ = 0;
  // Structure epoch; written only by mutations (exclusive latch).
  uint32_t epoch_ = 0;
  // {epoch, leaf} of the last root descent (HintFor). Readers under the
  // shared latch overwrite it concurrently, hence the relaxed atomic; the
  // leaf half is kInvalidPageId (0) until the first descent.
  mutable std::atomic<uint64_t> hint_{0};
};

}  // namespace xtc

#endif  // XTC_STORAGE_BPLUS_TREE_H_
