// Microbenchmarks for the storage substrate: B+-tree point operations
// and document navigation primitives.

#include <benchmark/benchmark.h>

#include "node/document.h"
#include "tamix/bib_generator.h"

namespace xtc {
namespace {

std::unique_ptr<Document> SharedBib() {
  auto doc = std::make_unique<Document>();
  auto info = GenerateBib(doc.get(), BibConfig::Bench());
  if (!info.ok()) std::abort();
  return doc;
}

Document& Bib() {
  static Document* doc = SharedBib().release();
  return *doc;
}

void BM_BtreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    StorageOptions options;
    PageFile file(options);
    BufferManager bm(&file, options);
    BplusTree tree(&bm);
    state.ResumeTiming();
    for (int i = 0; i < 2000; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "key%06d", i);
      (void)tree.Insert(key, "value");
    }
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_BtreeInsert);

void BM_DocumentIdJump(benchmark::State& state) {
  Document& doc = Bib();
  int i = 0;
  for (auto _ : state) {
    std::string id = "b" + std::to_string(i++ % 500);
    benchmark::DoNotOptimize(doc.LookupId(id));
  }
}
BENCHMARK(BM_DocumentIdJump);

void BM_DocumentFirstChild(benchmark::State& state) {
  Document& doc = Bib();
  Splid book = *doc.LookupId("b0");
  for (auto _ : state) {
    benchmark::DoNotOptimize(doc.FirstChild(book));
  }
}
BENCHMARK(BM_DocumentFirstChild);

void BM_DocumentNextSibling(benchmark::State& state) {
  Document& doc = Bib();
  Splid book = *doc.LookupId("b0");
  auto first = doc.FirstChild(book);
  Splid title = (**first).splid;
  for (auto _ : state) {
    benchmark::DoNotOptimize(doc.NextSibling(title));
  }
}
BENCHMARK(BM_DocumentNextSibling);

// One book's children, one FirstChild then NextSibling per step, as
// TAqueryBook's navigational read makes them.
void BM_DocumentSiblingWalk(benchmark::State& state) {
  Document& doc = Bib();
  Splid book = *doc.LookupId("b3");
  int64_t steps = 0;
  for (auto _ : state) {
    auto child = doc.FirstChild(book);
    while (child.ok() && child->has_value()) {
      ++steps;
      child = doc.NextSibling((*child)->splid);
    }
    benchmark::DoNotOptimize(child);
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_DocumentSiblingWalk);

void BM_DocumentSubtreeScan(benchmark::State& state) {
  Document& doc = Bib();
  Splid book = *doc.LookupId("b1");
  for (auto _ : state) {
    auto nodes = doc.Subtree(book);
    benchmark::DoNotOptimize(nodes);
  }
}
BENCHMARK(BM_DocumentSubtreeScan);

void BM_DocumentChildren(benchmark::State& state) {
  Document& doc = Bib();
  Splid book = *doc.LookupId("b2");
  for (auto _ : state) {
    benchmark::DoNotOptimize(doc.Children(book));
  }
}
BENCHMARK(BM_DocumentChildren);

}  // namespace
}  // namespace xtc

BENCHMARK_MAIN();
