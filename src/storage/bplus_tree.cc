#include "storage/bplus_tree.h"

#include <cassert>
#include <cstring>
#include "util/check.h"
#include <vector>

namespace xtc {

namespace {

std::string ChildValue(PageId id) {
  std::string v(sizeof(PageId), '\0');
  std::memcpy(v.data(), &id, sizeof(PageId));
  return v;
}

}  // namespace

BplusTree::BplusTree(BufferManager* bm, bool prefix_compression)
    : bm_(bm), prefix_compression_(prefix_compression) {
  auto guard = bm_->New();
  XTC_CHECK(guard.ok(), "buffer pool cannot host the B+-tree root page");
  SlottedPage sp(guard->page());
  sp.Init(PageType::kLeaf, prefix_compression_);
  guard->MarkDirty();
  root_ = guard->id();
}

PageId BplusTree::RouteChild(const SlottedPage& sp, std::string_view key) {
  bool found = false;
  int i = sp.LowerBound(key, &found);
  if (found) return sp.ChildAt(i);
  if (i == 0) return sp.leftmost_child();
  return sp.ChildAt(i - 1);
}

StatusOr<BplusTree::LeafSlot> BplusTree::FindLeaf(std::string_view key) const {
  LeafSlot hinted;
  const uint64_t hint = hint_.load(std::memory_order_relaxed);
  const auto hinted_id = static_cast<PageId>(hint);
  if (hinted_id != kInvalidPageId && hint == HintFor(hinted_id)) {
    auto guard = bm_->Fetch(hinted_id);
    if (!guard.ok()) return guard.status();
    SlottedPage sp(guard->page());
    if (sp.type() == PageType::kLeaf) {
      hinted.slot = sp.LowerBound(key, &hinted.found);
      hinted.leaf = std::move(*guard);
      // Soundness. The epoch still matches, so no page has left this tree
      // since the hint was stored: the page is still one of its leaves.
      // A leaf's keys all lie in the key interval the inner pages route
      // to it (splits hand the upper part of an interval to the new right
      // leaf together with its keys; dropping an empty child widens a
      // neighbour's interval; nothing narrows an interval without a
      // split). So a key equal to one of the leaf's keys, or strictly
      // between its first and last key, lies in that interval too: a
      // root descent reaches this very leaf and finds the same slot, and
      // Seek/SeekForPrev stay inside the leaf. An empty leaf brackets
      // nothing. The 32-bit epoch could only be fooled by a hint left
      // unused across 2^32 structure changes.
      if (hinted.found ||
          (hinted.slot > 0 && hinted.slot < sp.num_slots())) {
        return hinted;
      }
    }
  }
  PageId current = root_;
  for (;;) {
    // The descent may end at the hinted leaf after all (a key just past
    // its last key): reuse its pin and LowerBound instead of a refetch.
    if (hinted.leaf.valid() && current == hinted.leaf.id()) return hinted;
    auto guard = bm_->Fetch(current);
    if (!guard.ok()) return guard.status();
    SlottedPage sp(guard->page());
    if (sp.type() == PageType::kLeaf) {
      LeafSlot pos;
      pos.slot = sp.LowerBound(key, &pos.found);
      pos.leaf = std::move(*guard);
      hint_.store(HintFor(current), std::memory_order_relaxed);
      return pos;
    }
    current = RouteChild(sp, key);
  }
}

StatusOr<std::string> BplusTree::Get(std::string_view key) const {
  XTC_ASSIGN_OR_RETURN(LeafSlot pos, FindLeaf(key));
  if (!pos.found) return Status::NotFound("key not in tree");
  return std::string(SlottedPage(pos.leaf.page()).Value(pos.slot));
}

bool BplusTree::Contains(std::string_view key) const {
  auto pos = FindLeaf(key);
  return pos.ok() && pos->found;
}

Status BplusTree::Insert(std::string_view key, std::string_view value) {
  std::optional<Split> split;
  XTC_RETURN_IF_ERROR(InsertRec(root_, key, value, &split));
  if (split.has_value()) {
    // Grow the tree: new root referencing the old root and the new right.
    BumpEpoch();
    auto guard = bm_->New();
    if (!guard.ok()) return guard.status();
    SlottedPage sp(guard->page());
    sp.Init(PageType::kInner, prefix_compression_);
    sp.set_leftmost_child(root_);
    bool ok = sp.Insert(split->separator, ChildValue(split->right));
    if (!ok) return Status::Internal("root split: separator does not fit");
    guard->MarkDirty();
    root_ = guard->id();
  }
  ++count_;
  return Status::OK();
}

Status BplusTree::InsertRec(PageId node, std::string_view key,
                            std::string_view value,
                            std::optional<Split>* split) {
  auto guard = bm_->Fetch(node);
  if (!guard.ok()) return guard.status();
  SlottedPage sp(guard->page());

  if (sp.type() == PageType::kLeaf) {
    bool found = false;
    sp.LowerBound(key, &found);
    if (found) return Status::InvalidArgument("duplicate key");
    if (sp.Insert(key, value)) {
      guard->MarkDirty();
      return Status::OK();
    }
    Status st = SplitLeaf(&sp, node, key, value, split);
    guard->MarkDirty();
    return st;
  }

  PageId child = RouteChild(sp, key);
  std::optional<Split> child_split;
  // Release the pin while descending? The guard keeps the parent pinned;
  // with a pool of thousands of frames and trees a few levels deep this
  // is safe and simplifies split propagation.
  XTC_RETURN_IF_ERROR(InsertRec(child, key, value, &child_split));
  if (!child_split.has_value()) return Status::OK();

  if (sp.Insert(child_split->separator, ChildValue(child_split->right))) {
    guard->MarkDirty();
    return Status::OK();
  }
  Status st =
      SplitInner(&sp, child_split->separator, child_split->right, split);
  guard->MarkDirty();
  return st;
}

Status BplusTree::SplitLeaf(SlottedPage* left, PageId left_id,
                            std::string_view key, std::string_view value,
                            std::optional<Split>* split) {
  BumpEpoch();
  auto entries = left->Extract();
  // Insert the new entry into its sorted position.
  auto pos = entries.begin();
  while (pos != entries.end() && pos->first < key) ++pos;
  const bool appending = (pos == entries.end());
  entries.insert(pos, {std::string(key), std::string(value)});

  // Split point: halves in general; when the page overflowed through a
  // strictly ascending insert (document bulk load in SPLID order), keep
  // the left page full and open a fresh right page — this is what gives
  // the store its high occupancy (paper §3.1: > 96 %).
  size_t mid = appending ? entries.size() - 1 : entries.size() / 2;
  auto right_guard = bm_->New();
  if (!right_guard.ok()) return right_guard.status();
  SlottedPage right(right_guard->page());
  right.Init(PageType::kLeaf, prefix_compression_);

  std::vector<std::pair<std::string, std::string>> left_half(
      entries.begin(), entries.begin() + static_cast<long>(mid));
  std::vector<std::pair<std::string, std::string>> right_half(
      entries.begin() + static_cast<long>(mid), entries.end());

  PageId old_next = left->next();
  if (!left->Rebuild(PageType::kLeaf, left_half) ||
      !right.Rebuild(PageType::kLeaf, right_half)) {
    return Status::Internal("leaf split halves do not fit");
  }
  // Chain: left <-> right <-> old_next.
  right.set_next(old_next);
  right.set_prev(left_id);
  left->set_next(right_guard->id());
  if (old_next != kInvalidPageId) {
    auto next_guard = bm_->Fetch(old_next);
    if (!next_guard.ok()) return next_guard.status();
    SlottedPage nsp(next_guard->page());
    nsp.set_prev(right_guard->id());
    next_guard->MarkDirty();
  }
  right_guard->MarkDirty();
  *split = Split{right_half.front().first, right_guard->id()};
  return Status::OK();
}

Status BplusTree::SplitInner(SlottedPage* left, std::string_view key,
                             PageId right_child, std::optional<Split>* split) {
  BumpEpoch();
  auto entries = left->Extract();
  auto pos = entries.begin();
  while (pos != entries.end() && pos->first < key) ++pos;
  const bool appending = (pos == entries.end());
  entries.insert(pos, {std::string(key), ChildValue(right_child)});

  // Rightmost-split optimization, as in SplitLeaf (one separator must
  // move up, so the ascending case keeps all but the last entry left).
  size_t mid = appending ? entries.size() - 2 : entries.size() / 2;
  std::string separator = entries[mid].first;
  PageId mid_child;
  std::memcpy(&mid_child, entries[mid].second.data(), sizeof(PageId));

  auto right_guard = bm_->New();
  if (!right_guard.ok()) return right_guard.status();
  SlottedPage right(right_guard->page());
  right.Init(PageType::kInner, prefix_compression_);
  right.set_leftmost_child(mid_child);

  std::vector<std::pair<std::string, std::string>> left_half(
      entries.begin(), entries.begin() + static_cast<long>(mid));
  std::vector<std::pair<std::string, std::string>> right_half(
      entries.begin() + static_cast<long>(mid) + 1, entries.end());

  PageId leftmost = left->leftmost_child();
  if (!left->Rebuild(PageType::kInner, left_half) ||
      !right.Rebuild(PageType::kInner, right_half)) {
    return Status::Internal("inner split halves do not fit");
  }
  left->set_leftmost_child(leftmost);
  right_guard->MarkDirty();
  *split = Split{std::move(separator), right_guard->id()};
  return Status::OK();
}

Status BplusTree::Update(std::string_view key, std::string_view value) {
  XTC_ASSIGN_OR_RETURN(LeafSlot pos, FindLeaf(key));
  if (!pos.found) return Status::NotFound("key not in tree");
  SlottedPage sp(pos.leaf.page());
  if (!sp.UpdateValue(pos.slot, value)) {
    // Value grew past the page: delete + insert (may split). A failed
    // UpdateValue leaves the old entry in place but may have moved it to
    // a different slot, so re-locate the key instead of reusing the slot.
    bool found = false;
    int i = sp.LowerBound(key, &found);
    if (!found) return Status::Internal("update lost key: " + std::string(key));
    sp.Remove(i);
    pos.leaf.MarkDirty();
    pos.leaf.Release();
    --count_;
    return Insert(key, value);
  }
  pos.leaf.MarkDirty();
  return Status::OK();
}

Status BplusTree::Delete(std::string_view key) {
  bool became_empty = false;
  XTC_RETURN_IF_ERROR(DeleteRec(root_, key, &became_empty));
  --count_;
  // Collapse a root that degraded to a single child.
  for (;;) {
    auto guard = bm_->Fetch(root_);
    if (!guard.ok()) return guard.status();
    SlottedPage sp(guard->page());
    if (sp.type() == PageType::kInner && sp.num_slots() == 0) {
      BumpEpoch();
      PageId only_child = sp.leftmost_child();
      PageId old_root = root_;
      guard->Release();
      bm_->Free(old_root);
      root_ = only_child;
      continue;
    }
    break;
  }
  return Status::OK();
}

Status BplusTree::DeleteRec(PageId node, std::string_view key,
                            bool* became_empty) {
  auto guard = bm_->Fetch(node);
  if (!guard.ok()) return guard.status();
  SlottedPage sp(guard->page());

  if (sp.type() == PageType::kLeaf) {
    bool found = false;
    int i = sp.LowerBound(key, &found);
    if (!found) return Status::NotFound("key not in tree");
    sp.Remove(i);
    guard->MarkDirty();
    *became_empty = (sp.num_slots() == 0);
    return Status::OK();
  }

  bool found = false;
  int i = sp.LowerBound(key, &found);
  int child_slot;      // -1 = leftmost
  PageId child;
  if (found) {
    child_slot = i;
    child = sp.ChildAt(i);
  } else if (i == 0) {
    child_slot = -1;
    child = sp.leftmost_child();
  } else {
    child_slot = i - 1;
    child = sp.ChildAt(i - 1);
  }

  bool child_empty = false;
  XTC_RETURN_IF_ERROR(DeleteRec(child, key, &child_empty));
  if (!child_empty) return Status::OK();

  // Drop the empty child from this inner node.
  BumpEpoch();
  {
    auto child_guard = bm_->Fetch(child);
    if (!child_guard.ok()) return child_guard.status();
    SlottedPage csp(child_guard->page());
    if (csp.type() == PageType::kLeaf) {
      child_guard->Release();
      FreeLeafAndUnchain(child);
    } else {
      child_guard->Release();
      bm_->Free(child);
    }
  }
  if (child_slot == -1) {
    if (sp.num_slots() > 0) {
      sp.set_leftmost_child(sp.ChildAt(0));
      sp.Remove(0);
    } else {
      // Inner node lost its only child.
      sp.set_leftmost_child(kInvalidPageId);
      *became_empty = true;
    }
  } else {
    sp.Remove(child_slot);
    // An inner node with zero slots still has its leftmost child, so it
    // is not empty.
  }
  guard->MarkDirty();
  return Status::OK();
}

void BplusTree::FreeLeafAndUnchain(PageId id) {
  PageId prev = kInvalidPageId, next = kInvalidPageId;
  {
    auto guard = bm_->Fetch(id);
    if (!guard.ok()) return;
    SlottedPage sp(guard->page());
    prev = sp.prev();
    next = sp.next();
  }
  if (prev != kInvalidPageId) {
    auto g = bm_->Fetch(prev);
    if (g.ok()) {
      SlottedPage sp(g->page());
      sp.set_next(next);
      g->MarkDirty();
    }
  }
  if (next != kInvalidPageId) {
    auto g = bm_->Fetch(next);
    if (g.ok()) {
      SlottedPage sp(g->page());
      sp.set_prev(prev);
      g->MarkDirty();
    }
  }
  bm_->Free(id);
}

BplusTree::Occupancy BplusTree::MeasureOccupancy() const {
  Occupancy occ;
  // Walk the whole tree breadth-first from the root.
  std::vector<PageId> frontier = {root_};
  while (!frontier.empty()) {
    std::vector<PageId> next;
    for (PageId id : frontier) {
      auto guard = bm_->Fetch(id);
      if (!guard.ok()) continue;
      SlottedPage sp(guard->page());
      occ.live_bytes += sp.LiveBytes();
      occ.capacity_bytes += guard->page()->size();
      if (sp.type() == PageType::kLeaf) {
        ++occ.leaf_pages;
      } else {
        ++occ.inner_pages;
        next.push_back(sp.leftmost_child());
        for (int i = 0; i < sp.num_slots(); ++i) {
          next.push_back(sp.ChildAt(i));
        }
      }
    }
    frontier = std::move(next);
  }
  return occ;
}

Status BplusTree::CollectPages(std::vector<PageId>* out) const {
  std::vector<PageId> frontier = {root_};
  while (!frontier.empty()) {
    std::vector<PageId> next;
    for (PageId id : frontier) {
      auto guard = bm_->Fetch(id);
      if (!guard.ok()) {
        return guard.status().Annotate("CollectPages: page " +
                                       std::to_string(id));
      }
      out->push_back(id);
      SlottedPage sp(guard->page());
      if (sp.type() != PageType::kLeaf) {
        next.push_back(sp.leftmost_child());
        for (int i = 0; i < sp.num_slots(); ++i) {
          next.push_back(sp.ChildAt(i));
        }
      }
    }
    frontier = std::move(next);
  }
  return Status::OK();
}

int BplusTree::Height() const {
  int h = 1;
  PageId current = root_;
  for (;;) {
    auto guard = bm_->Fetch(current);
    if (!guard.ok()) return h;
    SlottedPage sp(guard->page());
    if (sp.type() == PageType::kLeaf) return h;
    current = sp.leftmost_child();
    ++h;
  }
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

void BplusTree::Iterator::Invalidate(const Status& st) {
  valid_ = false;
  if (status_.ok()) status_ = st;
}

bool BplusTree::Iterator::Pin(PageId page, PageGuard* out) {
  out->Release();  // one pin at a time, as a root descent holds
  auto guard = tree_->bm_->Fetch(page);
  if (!guard.ok()) {
    Invalidate(guard.status());
    return false;
  }
  *out = std::move(*guard);
  return true;
}

void BplusTree::Iterator::AdvanceForward(PageGuard leaf, int slot) {
  for (;;) {
    SlottedPage sp(leaf.page());
    if (slot < sp.num_slots()) {
      page_ = leaf.id();
      slot_ = slot;
      key_ = sp.FullKey(slot);
      value_ = std::string(sp.Value(slot));
      valid_ = true;
      return;
    }
    PageId next = sp.next();
    if (next == kInvalidPageId) {
      valid_ = false;
      return;
    }
    if (!Pin(next, &leaf)) return;
    slot = 0;
  }
}

void BplusTree::Iterator::AdvanceBackward(PageGuard leaf, int slot) {
  for (;;) {
    SlottedPage sp(leaf.page());
    if (slot == INT32_MAX) slot = sp.num_slots() - 1;
    if (slot >= 0 && slot < sp.num_slots()) {
      page_ = leaf.id();
      slot_ = slot;
      key_ = sp.FullKey(slot);
      value_ = std::string(sp.Value(slot));
      valid_ = true;
      return;
    }
    PageId prev = sp.prev();
    if (prev == kInvalidPageId) {
      valid_ = false;
      return;
    }
    if (!Pin(prev, &leaf)) return;
    slot = INT32_MAX;  // last slot of the previous page
  }
}

void BplusTree::Iterator::SeekToFirst() {
  status_ = Status::OK();
  PageGuard guard;
  if (!Pin(tree_->root_, &guard)) return;
  for (;;) {
    SlottedPage sp(guard.page());
    if (sp.type() == PageType::kLeaf) break;
    if (!Pin(sp.leftmost_child(), &guard)) return;
  }
  AdvanceForward(std::move(guard), 0);
}

void BplusTree::Iterator::SeekToLast() {
  status_ = Status::OK();
  PageGuard guard;
  if (!Pin(tree_->root_, &guard)) return;
  for (;;) {
    SlottedPage sp(guard.page());
    if (sp.type() == PageType::kLeaf) break;
    if (!Pin(sp.num_slots() > 0 ? sp.ChildAt(sp.num_slots() - 1)
                                : sp.leftmost_child(),
             &guard)) {
      return;
    }
  }
  AdvanceBackward(std::move(guard), INT32_MAX);
}

void BplusTree::Iterator::Seek(std::string_view target) {
  status_ = Status::OK();
  auto pos = tree_->FindLeaf(target);
  if (!pos.ok()) {
    Invalidate(pos.status());
    return;
  }
  AdvanceForward(std::move(pos->leaf), pos->slot);
}

void BplusTree::Iterator::SeekForPrev(std::string_view target) {
  status_ = Status::OK();
  auto pos = tree_->FindLeaf(target);
  if (!pos.ok()) {
    Invalidate(pos.status());
    return;
  }
  const int slot = pos->found ? pos->slot : pos->slot - 1;
  AdvanceBackward(std::move(pos->leaf), slot);
}

void BplusTree::Iterator::Next() {
  if (!valid_) return;
  status_ = Status::OK();
  PageGuard guard;
  if (!Pin(page_, &guard)) return;
  AdvanceForward(std::move(guard), slot_ + 1);
}

void BplusTree::Iterator::Prev() {
  if (!valid_) return;
  status_ = Status::OK();
  PageGuard guard;
  if (!Pin(page_, &guard)) return;
  AdvanceBackward(std::move(guard), slot_ - 1);
}

}  // namespace xtc
