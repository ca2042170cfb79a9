// Unit and randomized model tests for the B+-tree.

#include "storage/bplus_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "splid/splid.h"
#include "util/rng.h"

namespace xtc {
namespace {

class BplusTreeTest : public ::testing::Test {
 protected:
  BplusTreeTest() {
    StorageOptions options;
    options.buffer_pool_pages = 256;
    file_ = std::make_unique<PageFile>(options);
    bm_ = std::make_unique<BufferManager>(file_.get(), options);
    tree_ = std::make_unique<BplusTree>(bm_.get());
  }

  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferManager> bm_;
  std::unique_ptr<BplusTree> tree_;
};

using Model = std::map<std::string, std::string>;

std::string NumKey(int i) {
  char key[16];
  std::snprintf(key, sizeof(key), "k%05d", i);
  return key;
}

// Get, Contains, Seek and SeekForPrev of `key` agree with the model.
void ExpectLookupsMatch(const BplusTree& tree, const Model& model,
                        const std::string& key) {
  auto exact = model.find(key);
  auto v = tree.Get(key);
  ASSERT_EQ(v.ok(), exact != model.end()) << "Get " << key;
  if (v.ok()) {
    EXPECT_EQ(*v, exact->second) << "Get " << key;
  }
  EXPECT_EQ(tree.Contains(key), exact != model.end()) << "Contains " << key;

  auto it = tree.NewIterator();
  it.Seek(key);
  ASSERT_TRUE(it.status().ok());
  auto next = model.lower_bound(key);
  ASSERT_EQ(it.Valid(), next != model.end()) << "Seek " << key;
  if (it.Valid()) {
    EXPECT_EQ(it.key(), next->first) << "Seek " << key;
    EXPECT_EQ(it.value(), next->second) << "Seek " << key;
  }

  it.SeekForPrev(key);
  ASSERT_TRUE(it.status().ok());
  auto after = model.upper_bound(key);
  ASSERT_EQ(it.Valid(), after != model.begin()) << "SeekForPrev " << key;
  if (it.Valid()) {
    auto prev = std::prev(after);
    EXPECT_EQ(it.key(), prev->first) << "SeekForPrev " << key;
    EXPECT_EQ(it.value(), prev->second) << "SeekForPrev " << key;
  }
}

TEST_F(BplusTreeTest, InsertGetDelete) {
  ASSERT_TRUE(tree_->Insert("alpha", "1").ok());
  ASSERT_TRUE(tree_->Insert("beta", "2").ok());
  auto v = tree_->Get("alpha");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "1");
  EXPECT_TRUE(tree_->Get("gamma").status().IsNotFound());
  EXPECT_TRUE(tree_->Delete("alpha").ok());
  EXPECT_TRUE(tree_->Get("alpha").status().IsNotFound());
  EXPECT_TRUE(tree_->Delete("alpha").IsNotFound());
  EXPECT_EQ(tree_->size(), 1u);
}

TEST_F(BplusTreeTest, DuplicateInsertRejected) {
  ASSERT_TRUE(tree_->Insert("k", "1").ok());
  EXPECT_EQ(tree_->Insert("k", "2").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(*tree_->Get("k"), "1");
}

TEST_F(BplusTreeTest, UpdateValue) {
  ASSERT_TRUE(tree_->Insert("k", "old").ok());
  ASSERT_TRUE(tree_->Update("k", "new").ok());
  EXPECT_EQ(*tree_->Get("k"), "new");
  EXPECT_TRUE(tree_->Update("missing", "x").IsNotFound());
  // Update to a much larger value (delete + reinsert path).
  ASSERT_TRUE(tree_->Update("k", std::string(500, 'y')).ok());
  EXPECT_EQ(tree_->Get("k")->size(), 500u);
  EXPECT_EQ(tree_->size(), 1u);
}

TEST_F(BplusTreeTest, GrowingUpdatesInFullLeavesKeepNeighbors) {
  // Ascending inserts + rightmost splits leave the left leaves ~full, so
  // growing an existing value overflows its leaf and takes the
  // delete + reinsert + split path. That path once removed a stale slot
  // index and silently dropped the key-order successor of the updated
  // key; every key must survive every update.
  const int kKeys = 2000;
  auto key = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%07d", i);
    return std::string(buf);
  };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(tree_->Insert(key(i), "0123456789").ok());
  }
  for (int i = 0; i < kKeys; i += 7) {
    ASSERT_TRUE(tree_->Update(key(i), std::string(120, 'g')).ok());
  }
  EXPECT_EQ(tree_->size(), static_cast<uint64_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    auto v = tree_->Get(key(i));
    ASSERT_TRUE(v.ok()) << "lost key " << key(i);
    EXPECT_EQ(v->size(), i % 7 == 0 ? 120u : 10u) << key(i);
  }
}

TEST_F(BplusTreeTest, SplitsGrowTheTree) {
  for (int i = 0; i < 3000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_TRUE(tree_->Insert(key, "value" + std::to_string(i)).ok()) << i;
  }
  EXPECT_GT(tree_->Height(), 1);
  EXPECT_EQ(tree_->size(), 3000u);
  for (int i = 0; i < 3000; i += 37) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    auto v = tree_->Get(key);
    ASSERT_TRUE(v.ok()) << key;
    EXPECT_EQ(*v, "value" + std::to_string(i));
  }
}

TEST_F(BplusTreeTest, IteratorFullScanInOrder) {
  for (int i = 999; i >= 0; --i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(tree_->Insert(key, std::to_string(i)).ok());
  }
  auto it = tree_->NewIterator();
  int count = 0;
  std::string last;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    EXPECT_GT(it.key(), last);
    last = it.key();
    ++count;
  }
  EXPECT_EQ(count, 1000);
  // Backward.
  count = 0;
  for (it.SeekToLast(); it.Valid(); it.Prev()) ++count;
  EXPECT_EQ(count, 1000);
}

TEST_F(BplusTreeTest, SeekSemantics) {
  ASSERT_TRUE(tree_->Insert("b", "1").ok());
  ASSERT_TRUE(tree_->Insert("d", "2").ok());
  ASSERT_TRUE(tree_->Insert("f", "3").ok());
  auto it = tree_->NewIterator();
  it.Seek("d");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "d");
  it.Seek("c");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "d");
  it.Seek("g");
  EXPECT_FALSE(it.Valid());
  it.SeekForPrev("e");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "d");
  it.SeekForPrev("f");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "f");
  it.SeekForPrev("a");
  EXPECT_FALSE(it.Valid());
}

TEST_F(BplusTreeTest, RangeDeleteLeavesConsistentChain) {
  for (int i = 0; i < 2000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    ASSERT_TRUE(tree_->Insert(key, "v").ok());
  }
  // Delete a contiguous range (simulates subtree deletion).
  for (int i = 500; i < 1500; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    ASSERT_TRUE(tree_->Delete(key).ok()) << key;
  }
  EXPECT_EQ(tree_->size(), 1000u);
  auto it = tree_->NewIterator();
  int count = 0;
  for (it.SeekToFirst(); it.Valid(); it.Next()) ++count;
  EXPECT_EQ(count, 1000);
  // The gap is bridged.
  it.Seek("k00500");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "k01500");
  it.SeekForPrev("k01499");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "k00499");
}

TEST_F(BplusTreeTest, DeleteEverythingThenReuse) {
  for (int i = 0; i < 1200; ++i) {
    ASSERT_TRUE(tree_->Insert("k" + std::to_string(i), "v").ok());
  }
  for (int i = 0; i < 1200; ++i) {
    ASSERT_TRUE(tree_->Delete("k" + std::to_string(i)).ok());
  }
  EXPECT_EQ(tree_->size(), 0u);
  auto it = tree_->NewIterator();
  it.SeekToFirst();
  EXPECT_FALSE(it.Valid());
  ASSERT_TRUE(tree_->Insert("fresh", "start").ok());
  EXPECT_EQ(*tree_->Get("fresh"), "start");
}

TEST_F(BplusTreeTest, SplidKeysScanInDocumentOrder) {
  // The document-store use case: SPLID-encoded keys, depth-first order.
  SplidGenerator gen(2);
  std::vector<Splid> labels;
  Splid root = Splid::Root();
  labels.push_back(root);
  for (int i = 0; i < 30; ++i) {
    Splid child = gen.InitialChild(root, static_cast<size_t>(i));
    labels.push_back(child);
    for (int j = 0; j < 10; ++j) {
      labels.push_back(gen.InitialChild(child, static_cast<size_t>(j)));
    }
  }
  // Insert shuffled.
  Rng rng(5);
  std::vector<Splid> shuffled = labels;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
  }
  for (const Splid& s : shuffled) {
    ASSERT_TRUE(tree_->Insert(s.Encode(), s.ToString()).ok());
  }
  // Scan == document order.
  std::sort(labels.begin(), labels.end(),
            [](const Splid& a, const Splid& b) { return a.Compare(b) < 0; });
  auto it = tree_->NewIterator();
  size_t idx = 0;
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++idx) {
    ASSERT_LT(idx, labels.size());
    EXPECT_EQ(it.value(), labels[idx].ToString());
  }
  EXPECT_EQ(idx, labels.size());
}

TEST_F(BplusTreeTest, SequentialLoadReachesHighOccupancy) {
  // Document bulk loads insert in ascending SPLID order; the
  // rightmost-split policy must keep pages nearly full (paper §3.1
  // reports > 96 % storage occupancy).
  for (int i = 0; i < 20000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%07d", i);
    ASSERT_TRUE(tree_->Insert(key, "0123456789").ok());
  }
  auto occ = tree_->MeasureOccupancy();
  EXPECT_GT(occ.ratio(), 0.90);
  EXPECT_GT(occ.leaf_pages, 50u);
  // Random-order inserts land near the classic ~70 %.
  StorageOptions options;
  options.buffer_pool_pages = 4096;
  PageFile file2(options);
  BufferManager bm2(&file2, options);
  BplusTree random_tree(&bm2);
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%020llu",
                  static_cast<unsigned long long>(rng.Next()));
    ASSERT_TRUE(random_tree.Insert(key, "0123456789").ok());
  }
  auto occ2 = random_tree.MeasureOccupancy();
  EXPECT_GT(occ2.ratio(), 0.45);
  EXPECT_LT(occ2.ratio(), 0.90);
}

TEST_F(BplusTreeTest, PrefixCompressionDisabledStillCorrect) {
  StorageOptions options;
  PageFile file(options);
  BufferManager bm(&file, options);
  BplusTree plain(&bm, /*prefix_compression=*/false);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(plain
                    .Insert("common/prefix/key" + std::to_string(100000 + i),
                            "v" + std::to_string(i))
                    .ok());
  }
  for (int i = 0; i < 2000; i += 97) {
    auto v = plain.Get("common/prefix/key" + std::to_string(100000 + i));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "v" + std::to_string(i));
  }
  // The uncompressed tree needs at least as many pages.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree_
                    ->Insert("common/prefix/key" + std::to_string(100000 + i),
                             "v" + std::to_string(i))
                    .ok());
  }
  EXPECT_GE(plain.MeasureOccupancy().leaf_pages,
            tree_->MeasureOccupancy().leaf_pages);
}

TEST_F(BplusTreeTest, LookupsStayRightAcrossSplitsOfTheHintedLeaf) {
  Model model;
  const std::string value(60, 'v');
  // Ascending load: every leaf but the last is full.
  for (int i = 0; i < 1000; i += 2) {
    ASSERT_TRUE(tree_->Insert(NumKey(i), value + std::to_string(i)).ok());
    model[NumKey(i)] = value + std::to_string(i);
  }
  ASSERT_GT(tree_->Height(), 1);
  int fresh = 999;
  for (int round = 0; round < 3; ++round) {
    // Hint the leaf holding k00500, then split it. Each new key sorts
    // directly after k00500 (the suffixes descend), so it joins that leaf.
    ExpectLookupsMatch(*tree_, model, NumKey(500));
    const uint64_t leaves = tree_->MeasureOccupancy().leaf_pages;
    while (tree_->MeasureOccupancy().leaf_pages == leaves) {
      ASSERT_GE(fresh, 100);
      const std::string key = NumKey(500) + "+" + std::to_string(fresh--);
      ASSERT_TRUE(tree_->Insert(key, value).ok());
      model[key] = value;
    }
    for (int i = 380; i < 620; ++i) {
      ExpectLookupsMatch(*tree_, model, NumKey(i));
      ExpectLookupsMatch(*tree_, model, NumKey(i) + "~");  // between keys
    }
  }
}

TEST_F(BplusTreeTest, FreedHintedLeafReusedByAnotherTreeIsNotTrusted) {
  Model model;
  const std::string value(60, 'v');
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree_->Insert(NumKey(i), value).ok());
    model[NumKey(i)] = value;
  }
  std::vector<PageId> before;
  ASSERT_TRUE(tree_->CollectPages(&before).ok());
  ExpectLookupsMatch(*tree_, model, NumKey(300));  // hints k00300's leaf
  for (int i = 200; i < 400; ++i) {
    ASSERT_TRUE(tree_->Delete(NumKey(i)).ok());
    model.erase(NumKey(i));
  }
  std::vector<PageId> after;
  ASSERT_TRUE(tree_->CollectPages(&after).ok());
  std::vector<PageId> freed;
  for (PageId id : before) {
    if (std::find(after.begin(), after.end(), id) == after.end()) {
      freed.push_back(id);
    }
  }
  ASSERT_FALSE(freed.empty());
  // Single-leaf trees take over every freed page, the hinted leaf among
  // them; each leaf brackets all probe keys and holds k00300 itself.
  std::vector<std::unique_ptr<BplusTree>> others;
  std::vector<PageId> reused;
  for (size_t n = 0; n < freed.size(); ++n) {
    others.push_back(std::make_unique<BplusTree>(bm_.get()));
    for (int i : {0, 300, 999}) {
      ASSERT_TRUE(others.back()->Insert(NumKey(i), "other").ok());
    }
    reused.push_back(others.back()->root());
  }
  std::sort(freed.begin(), freed.end());
  std::sort(reused.begin(), reused.end());
  ASSERT_EQ(reused, freed);
  ExpectLookupsMatch(*tree_, model, NumKey(300));
  for (int i = 180; i < 420; ++i) {
    ExpectLookupsMatch(*tree_, model, NumKey(i));
  }
}

TEST_F(BplusTreeTest, RepeatedLookupInTheHintedLeafFixesOnePage) {
  // Long keys keep the fan-out low, so a few thousand entries give a
  // tree of height 3.
  std::vector<std::string> keys;
  for (int i = 0; i < 4000; ++i) {
    keys.push_back(NumKey(i) + std::string(120, 'x'));
    ASSERT_TRUE(tree_->Insert(keys.back(), "v").ok());
  }
  const int height = tree_->Height();
  ASSERT_GE(height, 3);
  auto fixes = [this] {
    const BufferPoolStats s = bm_->io_stats();
    return s.hits + s.misses;
  };
  // A tree reopened at the same root starts without a hint.
  BplusTree reopened(bm_.get(), tree_->root(), tree_->size());
  uint64_t start = fixes();
  ASSERT_TRUE(reopened.Get(keys[2000]).ok());
  EXPECT_EQ(fixes() - start, static_cast<uint64_t>(height)) << "cold Get";
  start = fixes();
  ASSERT_TRUE(reopened.Get(keys[2000]).ok());
  EXPECT_EQ(fixes() - start, 1u) << "repeat Get";
  start = fixes();
  EXPECT_TRUE(reopened.Contains(keys[2000]));
  EXPECT_EQ(fixes() - start, 1u) << "Contains";
}

TEST_F(BplusTreeTest, RandomizedModelCheck) {
  Rng rng(20260707);
  Model model;
  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(rng.Uniform(4));
    std::string key = "key" + std::to_string(rng.Uniform(3000));
    if (op <= 1) {
      std::string value = "v" + std::to_string(rng.Next() % 100000);
      if (model.count(key)) {
        ASSERT_TRUE(tree_->Update(key, value).ok());
      } else {
        ASSERT_TRUE(tree_->Insert(key, value).ok());
      }
      model[key] = value;
    } else if (op == 2) {
      Status st = tree_->Delete(key);
      EXPECT_EQ(st.ok(), model.erase(key) > 0) << key;
    }
    // After every step (op 3 is a pure lookup): the touched key, where
    // the last-leaf hint now points, and a random one.
    ASSERT_NO_FATAL_FAILURE(ExpectLookupsMatch(*tree_, model, key));
    ASSERT_NO_FATAL_FAILURE(ExpectLookupsMatch(
        *tree_, model, "key" + std::to_string(rng.Uniform(3000))));
    if (step % 2500 == 0) {
      ASSERT_EQ(tree_->size(), model.size());
      auto it = tree_->NewIterator();
      auto mit = model.begin();
      for (it.SeekToFirst(); it.Valid(); it.Next(), ++mit) {
        ASSERT_NE(mit, model.end());
        ASSERT_EQ(it.key(), mit->first);
        ASSERT_EQ(it.value(), mit->second);
      }
      ASSERT_EQ(mit, model.end());
    }
  }
}

}  // namespace
}  // namespace xtc
