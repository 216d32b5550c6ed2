// Quickstart: index the paper's running example (Figure 1) and run the
// "spicy Chinese restaurant" top-k query under both AND and OR semantics.
//
//   build/examples/quickstart

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "i3/i3_index.h"
#include "text/vocabulary.h"

using namespace i3;

int main() {
  // The data space. The paper's example is abstract; we use a unit square.
  I3Options options;
  options.space = {0.0, 0.0, 10.0, 10.0};
  // The default 4KB pages hold each keyword's tuples in one keyword cell,
  // so this index builds no summary nodes; dense-cell splits (Figure 2)
  // need more documents per keyword than one page holds.
  I3Index index(options);

  // Keywords are interned through a Vocabulary; indexes work on TermIds.
  Vocabulary vocab;
  const TermId spicy = vocab.GetOrAdd("spicy");
  const TermId chinese = vocab.GetOrAdd("chinese");
  const TermId korean = vocab.GetOrAdd("korean");
  const TermId restaurant = vocab.GetOrAdd("restaurant");

  // The eight documents of Figure 1 (locations chosen to match the figure's
  // layout: d1/d6 west, d5 north-east, d4/d3/d8/d7 south-east, ...).
  struct Spec {
    DocId id;
    Point loc;
    std::vector<WeightedTerm> terms;
  };
  std::vector<Spec> docs = {
      {1, {1.0, 6.0}, {{chinese, 0.6f}, {restaurant, 0.4f}}},
      {2, {6.0, 8.5}, {{korean, 0.7f}, {restaurant, 0.3f}}},
      {3, {6.5, 3.5}, {{spicy, 0.2f}, {chinese, 0.2f}, {restaurant, 0.5f}}},
      {4, {5.5, 4.5}, {{spicy, 0.7f}, {restaurant, 0.7f}}},
      {5, {8.0, 7.0}, {{spicy, 0.8f}, {korean, 0.5f}, {restaurant, 0.6f}}},
      {6, {2.0, 3.0}, {{spicy, 0.4f}, {restaurant, 0.5f}}},
      {7, {8.5, 2.0}, {{chinese, 0.1f}, {restaurant, 0.3f}}},
      {8, {7.5, 3.0}, {{restaurant, 0.2f}}},
  };
  for (auto& spec : docs) {
    SpatialDocument d;
    d.id = spec.id;
    d.location = spec.loc;
    d.terms = spec.terms;
    std::sort(d.terms.begin(), d.terms.end(),
              [](const WeightedTerm& a, const WeightedTerm& b) {
                return a.term < b.term;
              });
    auto st = index.Insert(d);
    if (!st.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::printf("indexed %llu documents, %zu keywords, %zu summary nodes\n\n",
              static_cast<unsigned long long>(index.DocumentCount()),
              index.KeywordCount(), index.SummaryNodeCount());

  // The query of Figure 1: "spicy chinese restaurant" at the star.
  Query q;
  q.location = {5.0, 5.5};
  q.terms = {spicy, chinese, restaurant};
  q.k = 3;

  const double alpha = 0.5;  // equal spatial/textual weight
  for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
    q.semantics = sem;
    auto res = index.Search(q, alpha);
    if (!res.ok()) {
      std::fprintf(stderr, "search failed: %s\n",
                   res.status().ToString().c_str());
      return 1;
    }
    std::printf("top-%u under %s semantics:\n", q.k, SemanticsName(sem));
    if (res.ValueOrDie().empty()) {
      std::printf("  (no document matches)\n");
    }
    for (const ScoredDoc& sd : res.ValueOrDie()) {
      std::printf("  d%-2u  score=%.4f\n", sd.doc, sd.score);
    }
    std::printf("\n");
  }

  // Updates are first-class: d4 closes down, d9 opens nearby.
  SpatialDocument d4;
  d4.id = 4;
  d4.location = {5.5, 4.5};
  d4.terms = {{spicy, 0.7f}, {restaurant, 0.7f}};
  std::sort(d4.terms.begin(), d4.terms.end(),
            [](const WeightedTerm& a, const WeightedTerm& b) {
              return a.term < b.term;
            });
  if (!index.Delete(d4).ok()) return 1;

  SpatialDocument d9;
  d9.id = 9;
  d9.location = {5.2, 5.3};
  d9.terms = {{spicy, 0.9f}, {chinese, 0.8f}, {restaurant, 0.6f}};
  std::sort(d9.terms.begin(), d9.terms.end(),
            [](const WeightedTerm& a, const WeightedTerm& b) {
              return a.term < b.term;
            });
  if (!index.Insert(d9).ok()) return 1;

  q.semantics = Semantics::kAnd;
  auto res = index.Search(q, alpha);
  if (!res.ok()) return 1;
  std::printf("after deleting d4 and inserting d9, top-%u (AND):\n", q.k);
  for (const ScoredDoc& sd : res.ValueOrDie()) {
    std::printf("  d%-2u  score=%.4f\n", sd.doc, sd.score);
  }
  return 0;
}
