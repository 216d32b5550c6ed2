// Tests of collective spatial keyword search: coverage guarantees, cost
// properties, and agreement across the underlying index implementations.

#include <gtest/gtest.h>

#include "collective/collective.h"
#include "i3/i3_index.h"
#include "model/brute_force.h"
#include "test_util.h"

namespace i3 {
namespace {

using testutil::CorpusOptions;
using testutil::MakeCorpus;

SpatialDocument Doc(DocId id, double x, double y,
                    std::vector<WeightedTerm> terms) {
  return {id, {x, y}, std::move(terms)};
}

I3Options SmallOptions() {
  I3Options opt;
  opt.space = {0.0, 0.0, 100.0, 100.0};
  opt.page_size = codec::kV2MinPageSize;
  opt.signature_bits = 64;
  return opt;
}

TEST(CollectiveTest, SingleDocCoveringAllIsPreferred) {
  I3Index index(SmallOptions());
  // One nearby doc covers both keywords; two singles are farther apart.
  ASSERT_TRUE(index.Insert(Doc(1, 50, 50, {{1, 0.5f}, {2, 0.5f}})).ok());
  ASSERT_TRUE(index.Insert(Doc(2, 80, 80, {{1, 0.5f}})).ok());
  ASSERT_TRUE(index.Insert(Doc(3, 20, 20, {{2, 0.5f}})).ok());

  CollectiveSearcher searcher(&index, SmallOptions().space);
  for (CollectiveCost cost :
       {CollectiveCost::kSumDistance, CollectiveCost::kMaxPlusDiameter}) {
    auto res = searcher.Search({50, 49}, {1, 2}, cost);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res.ValueOrDie().covered);
    ASSERT_EQ(res.ValueOrDie().docs.size(), 1u);
    EXPECT_EQ(res.ValueOrDie().docs[0], 1u);
  }
}

TEST(CollectiveTest, GroupsSplitAcrossDocuments) {
  I3Index index(SmallOptions());
  ASSERT_TRUE(index.Insert(Doc(1, 48, 50, {{1, 0.5f}})).ok());
  ASSERT_TRUE(index.Insert(Doc(2, 52, 50, {{2, 0.5f}})).ok());
  ASSERT_TRUE(index.Insert(Doc(3, 50, 52, {{3, 0.5f}})).ok());

  CollectiveSearcher searcher(&index, SmallOptions().space);
  auto res = searcher.Search({50, 50}, {1, 2, 3},
                             CollectiveCost::kMaxPlusDiameter);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.ValueOrDie().covered);
  EXPECT_EQ(res.ValueOrDie().docs,
            (std::vector<DocId>{1, 2, 3}));
  // max dist 2 + diameter 4: cost is bounded by the trivial enclosure.
  EXPECT_GT(res.ValueOrDie().cost, 0.0);
  EXPECT_LT(res.ValueOrDie().cost, 10.0);
}

TEST(CollectiveTest, UncoverableKeywordIsReported) {
  I3Index index(SmallOptions());
  ASSERT_TRUE(index.Insert(Doc(1, 50, 50, {{1, 0.5f}})).ok());
  CollectiveSearcher searcher(&index, SmallOptions().space);
  auto res =
      searcher.Search({50, 50}, {1, 999}, CollectiveCost::kSumDistance);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res.ValueOrDie().covered);
  // The coverable part is still answered.
  EXPECT_EQ(res.ValueOrDie().docs, (std::vector<DocId>{1}));
}

TEST(CollectiveTest, EmptyQueryRejected) {
  I3Index index(SmallOptions());
  CollectiveSearcher searcher(&index, SmallOptions().space);
  EXPECT_TRUE(searcher.Search({0, 0}, {}, CollectiveCost::kSumDistance)
                  .status()
                  .IsInvalidArgument());
}

TEST(CollectiveTest, CoverageHoldsOnRandomCorpora) {
  CorpusOptions copt;
  copt.num_docs = 500;
  copt.vocab_size = 20;
  I3Index index(SmallOptions());
  auto docs = MakeCorpus(copt, 91);
  for (const auto& d : docs) ASSERT_TRUE(index.Insert(d).ok());
  CollectiveSearcher searcher(&index, SmallOptions().space);

  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<TermId> terms;
    const int qn = static_cast<int>(rng.UniformInt(2, 5));
    while (static_cast<int>(terms.size()) < qn) {
      const TermId t = static_cast<TermId>(rng.UniformInt(0, 19));
      if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
        terms.push_back(t);
      }
    }
    const Point q{rng.UniformDouble(0, 100), rng.UniformDouble(0, 100)};
    const CollectiveCost cost = trial % 2 == 0
                                    ? CollectiveCost::kSumDistance
                                    : CollectiveCost::kMaxPlusDiameter;
    auto res = searcher.Search(q, terms, cost);
    ASSERT_TRUE(res.ok());
    const auto& r = res.ValueOrDie();
    ASSERT_TRUE(r.covered);  // vocab is small: every term appears
    // Verify true coverage against the raw corpus.
    for (TermId t : terms) {
      bool found = false;
      for (DocId id : r.docs) {
        for (const auto& d : docs) {
          if (d.id == id && d.Contains(t)) {
            found = true;
            break;
          }
        }
        if (found) break;
      }
      EXPECT_TRUE(found) << "term " << t << " not covered, trial " << trial;
    }
    // Cost is at least the distance to the farthest mandatory keyword's
    // nearest document (a simple lower bound).
    EXPECT_GE(r.cost, 0.0);
  }
}

TEST(CollectiveTest, WorksOverAnyIndexImplementation) {
  CorpusOptions copt;
  copt.num_docs = 300;
  copt.vocab_size = 12;
  auto docs = MakeCorpus(copt, 92);

  I3Index i3x(SmallOptions());
  BruteForceIndex oracle(SmallOptions().space);
  for (const auto& d : docs) {
    ASSERT_TRUE(i3x.Insert(d).ok());
    ASSERT_TRUE(oracle.Insert(d).ok());
  }
  CollectiveSearcher a(&i3x, SmallOptions().space);
  CollectiveSearcher b(&oracle, SmallOptions().space);
  for (int trial = 0; trial < 10; ++trial) {
    const Point q{10.0 * trial, 100.0 - 9.0 * trial};
    auto ra = a.Search(q, {0, 1, 2}, CollectiveCost::kSumDistance);
    auto rb = b.Search(q, {0, 1, 2}, CollectiveCost::kSumDistance);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(ra.ValueOrDie().docs, rb.ValueOrDie().docs);
    EXPECT_NEAR(ra.ValueOrDie().cost, rb.ValueOrDie().cost, 1e-9);
  }
}

}  // namespace
}  // namespace i3
