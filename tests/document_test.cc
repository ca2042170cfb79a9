// Tests for the physical document store: taDOM node model, navigation,
// subtree operations, element/ID indexes.

#include "node/document.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace xtc {
namespace {

SubtreeSpec Leaf(std::string name, std::string text = "") {
  return SubtreeSpec{std::move(name), {}, std::move(text), {}};
}

/// A small library-ish document:
/// bib > topic(id=t0) > book(id=b0, year=2006) > title, author, history
SubtreeSpec SmallBib() {
  SubtreeSpec bib{"bib", {}, "", {}};
  SubtreeSpec topic{"topic", {{"id", "t0"}}, "", {}};
  SubtreeSpec book{"book", {{"id", "b0"}, {"year", "2006"}}, "", {}};
  book.children.push_back(Leaf("title", "TP: Concepts and Techniques"));
  book.children.push_back(Leaf("author", "Gray"));
  SubtreeSpec history{"history", {}, "", {}};
  history.children.push_back(
      SubtreeSpec{"lend", {{"person", "p1"}, {"return", "2006-09"}}, "", {}});
  book.children.push_back(std::move(history));
  topic.children.push_back(std::move(book));
  bib.children.push_back(std::move(topic));
  return bib;
}

class DocumentTest : public ::testing::Test {
 protected:
  DocumentTest() {
    auto root = doc_.BuildFromSpec(SmallBib());
    EXPECT_TRUE(root.ok());
    root_ = *root;
  }

  Splid Id(const char* id) {
    auto s = doc_.LookupId(id);
    EXPECT_TRUE(s.has_value()) << id;
    return *s;
  }

  std::string NameOf(const Splid& s) {
    auto rec = doc_.Get(s);
    EXPECT_TRUE(rec.ok());
    return doc_.vocabulary().Name(rec->name);
  }

  Document doc_;
  Splid root_;
};

TEST_F(DocumentTest, TaDomNodeModel) {
  // Elements, attribute roots, attributes, text and string nodes exist
  // with the taDOM labels of Fig. 5.
  Splid book = Id("b0");
  auto rec = doc_.Get(book);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->kind, NodeKind::kElement);
  EXPECT_EQ(doc_.vocabulary().Name(rec->name), "book");

  Splid attr_root = book.AttributeChild();
  auto ar = doc_.Get(attr_root);
  ASSERT_TRUE(ar.ok());
  EXPECT_EQ(ar->kind, NodeKind::kAttributeRoot);

  auto attrs = doc_.Children(attr_root);
  ASSERT_TRUE(attrs.ok());
  ASSERT_EQ(attrs->size(), 2u);
  EXPECT_EQ((*attrs)[0].record.kind, NodeKind::kAttribute);
  // Attribute value lives in the string child.
  auto value = doc_.Get((*attrs)[0].splid.AttributeChild());
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->kind, NodeKind::kString);
  EXPECT_EQ(value->content, "b0");
}

TEST_F(DocumentTest, TextNodesHaveStringChildren) {
  Splid book = Id("b0");
  auto title = doc_.FirstChild(book);
  ASSERT_TRUE(title.ok());
  ASSERT_TRUE(title->has_value());
  EXPECT_EQ(NameOf((*title)->splid), "title");
  auto text = doc_.FirstChild((*title)->splid);
  ASSERT_TRUE(text.ok());
  ASSERT_TRUE(text->has_value());
  EXPECT_EQ((*text)->record.kind, NodeKind::kText);
  auto str = doc_.Get((*text)->splid.AttributeChild());
  ASSERT_TRUE(str.ok());
  EXPECT_EQ(str->content, "TP: Concepts and Techniques");
}

TEST_F(DocumentTest, NavigationSkipsAttributeRoots) {
  Splid book = Id("b0");
  // First child must be the title element, not the attribute root.
  auto first = doc_.FirstChild(book);
  ASSERT_TRUE(first.ok() && first->has_value());
  EXPECT_EQ(NameOf((*first)->splid), "title");
  // But taDOM-level traversal can see it.
  auto first_with_attrs = doc_.FirstChild(book, /*include_attribute_root=*/true);
  ASSERT_TRUE(first_with_attrs.ok() && first_with_attrs->has_value());
  EXPECT_EQ((*first_with_attrs)->record.kind, NodeKind::kAttributeRoot);
}

TEST_F(DocumentTest, SiblingChainForwardAndBackward) {
  Splid book = Id("b0");
  auto title = doc_.FirstChild(book);
  ASSERT_TRUE(title.ok() && title->has_value());
  auto author = doc_.NextSibling((*title)->splid);
  ASSERT_TRUE(author.ok() && author->has_value());
  EXPECT_EQ(NameOf((*author)->splid), "author");
  auto history = doc_.NextSibling((*author)->splid);
  ASSERT_TRUE(history.ok() && history->has_value());
  EXPECT_EQ(NameOf((*history)->splid), "history");
  auto end = doc_.NextSibling((*history)->splid);
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
  // Backward.
  auto back = doc_.PreviousSibling((*history)->splid);
  ASSERT_TRUE(back.ok() && back->has_value());
  EXPECT_EQ((*back)->splid, (*author)->splid);
  auto front = doc_.PreviousSibling((*title)->splid);
  ASSERT_TRUE(front.ok());
  EXPECT_FALSE(front->has_value());  // attribute root is not a sibling
  // Last child.
  auto last = doc_.LastChild(book);
  ASSERT_TRUE(last.ok() && last->has_value());
  EXPECT_EQ((*last)->splid, (*history)->splid);
}

TEST_F(DocumentTest, IdIndexSupportsDirectJumps) {
  EXPECT_TRUE(doc_.LookupId("b0").has_value());
  EXPECT_TRUE(doc_.LookupId("t0").has_value());
  EXPECT_FALSE(doc_.LookupId("nope").has_value());
  EXPECT_EQ(NameOf(Id("b0")), "book");
  EXPECT_EQ(NameOf(Id("t0")), "topic");
}

TEST_F(DocumentTest, ElementIndexListsInDocumentOrder) {
  auto titles = doc_.ElementsByName("title");
  EXPECT_EQ(titles.size(), 1u);
  auto lends = doc_.ElementsByName("lend");
  EXPECT_EQ(lends.size(), 1u);
  EXPECT_TRUE(doc_.ElementsByName("unknown").empty());
  auto nth = doc_.NthElementByName("book", 0);
  ASSERT_TRUE(nth.has_value());
  EXPECT_EQ(*nth, Id("b0"));
  EXPECT_FALSE(doc_.NthElementByName("book", 5).has_value());
}

TEST_F(DocumentTest, AppendSubtreeAddsLastChild) {
  Splid book = Id("b0");
  auto history = doc_.LastChild(book);
  ASSERT_TRUE(history.ok() && history->has_value());
  SubtreeSpec lend{"lend", {{"person", "p7"}, {"return", "2006-12"}}, "", {}};
  auto label = doc_.AppendSubtree((*history)->splid, lend);
  ASSERT_TRUE(label.ok());
  auto last = doc_.LastChild((*history)->splid);
  ASSERT_TRUE(last.ok() && last->has_value());
  EXPECT_EQ((*last)->splid, *label);
  EXPECT_EQ(doc_.ElementsByName("lend").size(), 2u);
  // The hint path: peek then append must agree when unchanged.
  auto peek = doc_.PeekAppendLabel((*history)->splid);
  ASSERT_TRUE(peek.ok());
  auto label2 = doc_.AppendSubtree((*history)->splid, lend, &*peek);
  ASSERT_TRUE(label2.ok());
  EXPECT_EQ(*label2, *peek);
}

TEST_F(DocumentTest, RemoveSubtreeMaintainsIndexes) {
  Splid book = Id("b0");
  const uint64_t before = doc_.num_nodes();
  auto nodes = doc_.Subtree(book);
  ASSERT_TRUE(nodes.ok());
  ASSERT_TRUE(doc_.RemoveSubtree(book).ok());
  EXPECT_EQ(doc_.num_nodes(), before - nodes->size());
  EXPECT_FALSE(doc_.LookupId("b0").has_value());
  EXPECT_TRUE(doc_.ElementsByName("lend").empty());
  EXPECT_TRUE(doc_.ElementsByName("book").empty());
  // Topic survives.
  EXPECT_TRUE(doc_.LookupId("t0").has_value());
  auto children = doc_.Children(Id("t0"));
  ASSERT_TRUE(children.ok());
  EXPECT_TRUE(children->empty());
}

TEST_F(DocumentTest, RestoreNodesUndoesRemoval) {
  Splid book = Id("b0");
  auto nodes = doc_.Subtree(book);
  ASSERT_TRUE(nodes.ok());
  ASSERT_TRUE(doc_.RemoveSubtree(book).ok());
  ASSERT_TRUE(doc_.RestoreNodes(*nodes).ok());
  EXPECT_TRUE(doc_.LookupId("b0").has_value());
  EXPECT_EQ(doc_.ElementsByName("lend").size(), 1u);
  auto title = doc_.FirstChild(Id("b0"));
  ASSERT_TRUE(title.ok() && title->has_value());
  EXPECT_EQ(NameOf((*title)->splid), "title");
}

TEST_F(DocumentTest, UpdateContentMaintainsIdIndex) {
  // Changing the string below an id attribute must move the index entry.
  Splid book = Id("b0");
  Splid attr_root = book.AttributeChild();
  auto attrs = doc_.Children(attr_root);
  ASSERT_TRUE(attrs.ok());
  Splid id_attr;
  for (const Node& a : *attrs) {
    if (doc_.vocabulary().Name(a.record.name) == "id") id_attr = a.splid;
  }
  ASSERT_TRUE(id_attr.valid());
  ASSERT_TRUE(doc_.UpdateContent(id_attr.AttributeChild(), "b0-new").ok());
  EXPECT_FALSE(doc_.LookupId("b0").has_value());
  EXPECT_EQ(doc_.LookupId("b0-new"), book);
}

TEST_F(DocumentTest, RenameElementUpdatesElementIndex) {
  Splid topic = Id("t0");
  ASSERT_TRUE(
      doc_.RenameElement(topic, doc_.vocabulary().Intern("subject")).ok());
  EXPECT_TRUE(doc_.ElementsByName("topic").empty());
  ASSERT_EQ(doc_.ElementsByName("subject").size(), 1u);
  EXPECT_EQ(doc_.ElementsByName("subject")[0], topic);
  EXPECT_EQ(NameOf(topic), "subject");
}

TEST_F(DocumentTest, ValidateCatchesAMisfiledElementIndexEntry) {
  // Swap the book's (name, SPLID) index entry for one naming no element.
  // The count stays right and the name still lists an element, so only a
  // per-element point lookup can see that the book is missing.
  ASSERT_TRUE(doc_.Validate().ok());
  const NameSurrogate book_name = doc_.vocabulary().Lookup("book");
  auto snapshot = doc_.Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  WalTreeMeta meta = snapshot->meta;
  ElementIndex index(&doc_.buffer(), meta.elem_root, meta.elem_count);
  ASSERT_TRUE(index.Remove(book_name, Id("b0")).ok());
  ASSERT_TRUE(index.Add(book_name, *Splid::Parse("1.99.99")).ok());
  meta.elem_root = index.tree().root();
  meta.elem_count = index.size();
  ASSERT_TRUE(doc_.ReattachTrees(meta).ok());

  ASSERT_EQ(doc_.ElementsByName("book").size(), 1u);
  const Status audit = doc_.Validate();
  EXPECT_EQ(audit.code(), StatusCode::kInternal) << audit.ToString();
}

/// Every node of the subtree as "label kind name content" lines.
std::vector<std::string> Listing(const Document& doc, const Splid& root) {
  auto nodes = doc.Subtree(root);
  EXPECT_TRUE(nodes.ok()) << nodes.status().ToString();
  std::vector<std::string> out;
  if (!nodes.ok()) return out;
  for (const Node& n : *nodes) {
    out.push_back(n.splid.ToString() + " " +
                  std::to_string(static_cast<int>(n.record.kind)) + " " +
                  std::to_string(n.record.name) + " " + n.record.content);
  }
  return out;
}

TEST_F(DocumentTest, SnapshotReopensAnEqualIndependentDocument) {
  auto snapshot = doc_.Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  auto reopened = Document::Open(StorageOptions{}, *snapshot);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Document& copy = **reopened;

  const std::vector<std::string> listing = Listing(doc_, root_);
  EXPECT_EQ(Listing(copy, root_), listing);
  EXPECT_EQ(copy.LookupId("b0"), doc_.LookupId("b0"));
  EXPECT_EQ(copy.LookupId("t0"), doc_.LookupId("t0"));
  EXPECT_EQ(copy.vocabulary().Snapshot(), doc_.vocabulary().Snapshot());
  EXPECT_TRUE(copy.Validate().ok()) << copy.Validate().ToString();

  // The reopened document owns its pages and vocabulary: changing it
  // leaves the source as it was.
  const Splid book = Id("b0");
  ASSERT_TRUE(copy.RemoveSubtree(book).ok());
  ASSERT_TRUE(
      copy.RenameElement(Id("t0"), copy.vocabulary().Intern("subject")).ok());
  EXPECT_FALSE(copy.LookupId("b0").has_value());
  EXPECT_EQ(Listing(doc_, root_), listing);
  EXPECT_EQ(doc_.LookupId("b0"), book);
  EXPECT_EQ(doc_.vocabulary().Lookup("subject"), kInvalidSurrogate);
  EXPECT_TRUE(doc_.Validate().ok());
}

TEST_F(DocumentTest, OpenRejectsAnInvalidRootAndAContradictoryVocabulary) {
  auto snapshot = doc_.Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  DocumentSnapshot no_root = *snapshot;
  no_root.meta.id_root = kInvalidPageId;
  EXPECT_EQ(Document::Open(StorageOptions{}, no_root).status().code(),
            StatusCode::kDataLoss);

  DocumentSnapshot contradiction = *snapshot;
  const auto [surrogate, name] = contradiction.vocab.back();
  contradiction.vocab.emplace_back(surrogate, name + "-renamed");
  EXPECT_EQ(Document::Open(StorageOptions{}, contradiction).status().code(),
            StatusCode::kDataLoss);
}

TEST_F(DocumentTest, RemoveRejectsInnerNodes) {
  Splid book = Id("b0");
  EXPECT_EQ(doc_.Remove(book).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(doc_.Exists(book));
}

TEST_F(DocumentTest, GetOnMissingNodeIsNotFound) {
  Splid missing = *Splid::Parse("1.99.99");
  EXPECT_TRUE(doc_.Get(missing).status().IsNotFound());
  EXPECT_FALSE(doc_.Exists(missing));
  EXPECT_TRUE(doc_.RemoveSubtree(missing).IsNotFound());
}

TEST(DocumentAccessorTest, SubtreeAndChildrenEnumeration) {
  Document doc;
  ASSERT_TRUE(doc.BuildFromSpec(SmallBib()).ok());
  DocumentAccessorImpl accessor(&doc);
  Splid book = *doc.LookupId("b0");

  auto nodes = accessor.NodesInSubtree(book);
  ASSERT_TRUE(nodes.ok());
  // book + attrRoot + 2*(attr+string) + title(+text+string) +
  // author(+text+string) + history + lend + attrRoot + 2*(attr+string)
  EXPECT_EQ(nodes->size(), 19u);

  auto with_ids = accessor.ElementsWithIdInSubtree(book);
  ASSERT_TRUE(with_ids.ok());
  ASSERT_EQ(with_ids->size(), 1u);
  EXPECT_EQ((*with_ids)[0], book);

  auto children = accessor.ChildrenOf(book);
  ASSERT_TRUE(children.ok());
  EXPECT_EQ(children->size(), 4u);  // attribute root + title/author/history
}

TEST(DocumentConcurrencyTest, ReadersNavigateWhileLeavesSplitAndFree) {
  // Readers walk a fixed skeleton (64 items, each with a title as its
  // first child) while one writer appends and removes page-sized notes
  // as last children of the items: leaves holding skeleton nodes split
  // and note leaves are freed, so every tree's last-leaf hint is
  // overwritten by concurrent readers and invalidated by the writer.
  constexpr int kItems = 64;
  Document doc;
  SubtreeSpec bib{"bib", {}, "", {}};
  for (int i = 0; i < kItems; ++i) {
    SubtreeSpec item{"item", {{"id", "i" + std::to_string(i)}}, "", {}};
    item.children.push_back(Leaf("title", "title " + std::to_string(i)));
    bib.children.push_back(std::move(item));
  }
  auto root = doc.BuildFromSpec(bib);
  ASSERT_TRUE(root.ok());
  const NameSurrogate title = doc.vocabulary().Intern("title");

  // Each reader makes a fixed number of walks and pauses between them:
  // the latch may prefer readers, and four that never paused could
  // starve the writer.
  std::atomic<int> failures{0};
  auto reader = [&] {
    for (int walk = 0; walk < 60; ++walk) {
      auto child = doc.FirstChild(*root);
      int items = 0;
      while (child.ok() && child->has_value() && items <= kItems) {
        const Splid item = (*child)->splid;
        ++items;
        auto first = doc.FirstChild(item);
        if (!first.ok() || !first->has_value() ||
            (*first)->record.name != title) {
          failures.fetch_add(1);
        } else {
          auto rec = doc.Get((*first)->splid);
          if (!rec.ok() || rec->name != title) failures.fetch_add(1);
        }
        child = doc.NextSibling(item);
      }
      if (!child.ok() || items != kItems) failures.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) readers.emplace_back(reader);

  SubtreeSpec note{"note", {}, "", {}};
  for (int t = 0; t < 24; ++t) {
    note.children.push_back(Leaf("line", std::string(250, 'a' + t)));
  }
  // The writer runs in a lambda so that a failed ASSERT still reaches the
  // joins below.
  auto write = [&] {
    std::vector<Splid> notes;
    for (int round = 0; round < 120; ++round) {
      auto item = doc.LookupId("i" + std::to_string(round * 7 % kItems));
      ASSERT_TRUE(item.has_value());
      auto added = doc.AppendSubtree(*item, note);
      ASSERT_TRUE(added.ok()) << added.status().message();
      notes.push_back(*added);
      if (notes.size() > 6) {
        ASSERT_TRUE(doc.RemoveSubtree(notes.front()).ok());
        notes.erase(notes.begin());
      }
    }
  };
  write();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(doc.Validate().ok());
}

}  // namespace
}  // namespace xtc
