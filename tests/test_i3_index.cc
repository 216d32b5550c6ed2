// Unit, integration, and property tests of the I3 index: maintenance
// algorithms (1-3, Section 4.5), query processing (Algorithms 4-6), and
// cross-checks against the brute-force oracle.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <type_traits>
#include <unordered_set>

#include "i3/i3_index.h"
#include "model/brute_force.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace i3 {
namespace {

using testutil::CorpusOptions;
using testutil::MakeCorpus;
using testutil::MakeQueries;
using testutil::SameScores;

I3Options SmallOptions(size_t page_size = codec::kV2MinPageSize,
                       uint32_t eta = 64) {
  I3Options opt;
  opt.space = {0.0, 0.0, 100.0, 100.0};
  opt.page_size = page_size;
  opt.signature_bits = eta;
  return opt;
}

SpatialDocument Doc(DocId id, double x, double y,
                    std::vector<WeightedTerm> terms) {
  SpatialDocument d;
  d.id = id;
  d.location = {x, y};
  d.terms = std::move(terms);
  return d;
}

TEST(I3IndexTest, EmptyIndexReturnsNoResults) {
  I3Index index(SmallOptions());
  Query q;
  q.location = {50, 50};
  q.terms = {1};
  q.k = 10;
  q.semantics = Semantics::kOr;
  auto res = index.Search(q, 0.5);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.ValueOrDie().empty());
}

TEST(I3IndexTest, RejectsInvalidDocuments) {
  I3Index index(SmallOptions());
  // No keywords.
  EXPECT_TRUE(index.Insert(Doc(1, 10, 10, {})).IsInvalidArgument());
  // Location outside the space.
  EXPECT_TRUE(
      index.Insert(Doc(1, 500, 10, {{1, 0.5f}})).IsInvalidArgument());
  // Unsorted terms.
  EXPECT_TRUE(index.Insert(Doc(1, 10, 10, {{2, 0.5f}, {1, 0.5f}}))
                  .IsInvalidArgument());
  // Zero weight.
  EXPECT_TRUE(
      index.Insert(Doc(1, 10, 10, {{1, 0.0f}})).IsInvalidArgument());
  // Weight above 1.
  EXPECT_TRUE(
      index.Insert(Doc(1, 10, 10, {{1, 1.5f}})).IsInvalidArgument());
}

TEST(I3IndexTest, RejectsInvalidQueries) {
  I3Index index(SmallOptions());
  ASSERT_TRUE(index.Insert(Doc(1, 10, 10, {{1, 0.5f}})).ok());
  Query q;
  q.location = {0, 0};
  q.k = 5;
  EXPECT_TRUE(index.Search(q, 0.5).status().IsInvalidArgument());  // no terms
  q.terms = {1};
  EXPECT_TRUE(index.Search(q, -0.1).status().IsInvalidArgument());
  EXPECT_TRUE(index.Search(q, 1.1).status().IsInvalidArgument());
}

TEST(I3IndexTest, SingleDocumentRoundTrip) {
  I3Index index(SmallOptions());
  ASSERT_TRUE(index.Insert(Doc(7, 25, 75, {{3, 0.8f}, {9, 0.4f}})).ok());
  EXPECT_EQ(index.DocumentCount(), 1u);

  Query q;
  q.location = {25, 75};
  q.terms = {3};
  q.k = 10;
  q.semantics = Semantics::kAnd;
  auto res = index.Search(q, 0.5);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.ValueOrDie().size(), 1u);
  EXPECT_EQ(res.ValueOrDie()[0].doc, 7u);
  // phi_s = 1 (same point), phi_t = 0.8 -> score = 0.5 + 0.4.
  EXPECT_NEAR(res.ValueOrDie()[0].score, 0.9, 1e-6);
}

TEST(I3IndexTest, AndSemanticsRequiresAllKeywords) {
  I3Index index(SmallOptions());
  ASSERT_TRUE(index.Insert(Doc(1, 10, 10, {{1, 0.9f}})).ok());
  ASSERT_TRUE(index.Insert(Doc(2, 12, 12, {{1, 0.5f}, {2, 0.5f}})).ok());
  ASSERT_TRUE(index.Insert(Doc(3, 14, 14, {{2, 0.9f}})).ok());

  Query q;
  q.location = {11, 11};
  q.terms = {1, 2};
  q.k = 10;
  q.semantics = Semantics::kAnd;
  auto res = index.Search(q, 0.5);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.ValueOrDie().size(), 1u);
  EXPECT_EQ(res.ValueOrDie()[0].doc, 2u);

  q.semantics = Semantics::kOr;
  res = index.Search(q, 0.5);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.ValueOrDie().size(), 3u);
}

TEST(I3IndexTest, AndWithAbsentKeywordReturnsEmpty) {
  I3Index index(SmallOptions());
  ASSERT_TRUE(index.Insert(Doc(1, 10, 10, {{1, 0.9f}})).ok());
  Query q;
  q.location = {10, 10};
  q.terms = {1, 999};
  q.k = 10;
  q.semantics = Semantics::kAnd;
  auto res = index.Search(q, 0.5);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.ValueOrDie().empty());

  q.semantics = Semantics::kOr;
  res = index.Search(q, 0.5);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.ValueOrDie().size(), 1u);
}

TEST(I3IndexTest, DenseSplitPreservesAnswers) {
  // Small pages: inserting many docs with one hot keyword forces root
  // density and recursive splits.
  I3Index index(SmallOptions());
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    const double x = (i % 8) * 12.0 + 1.0;
    const double y = (i / 8) * 12.0 + 1.0;
    ASSERT_TRUE(index
                    .Insert(Doc(i, x, y,
                                {{1, static_cast<float>(0.1 + 0.01 * i)}}))
                    .ok())
        << i;
  }
  ASSERT_GT(index.SummaryNodeCount(), 1u);  // keyword went dense, twice
  auto check = index.CheckInvariants();
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check.ValueOrDie(), static_cast<uint64_t>(n));

  Query q;
  q.location = {1, 1};
  q.terms = {1};
  q.k = 5;
  q.semantics = Semantics::kAnd;
  auto res = index.Search(q, 1.0);  // pure spatial ranking
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.ValueOrDie().size(), 5u);
  EXPECT_EQ(res.ValueOrDie()[0].doc, 0u);  // doc 0 sits at (1, 1)
}

TEST(I3IndexTest, DeleteRemovesDocuments) {
  I3Index index(SmallOptions());
  auto d1 = Doc(1, 10, 10, {{1, 0.9f}, {2, 0.3f}});
  auto d2 = Doc(2, 20, 20, {{1, 0.5f}});
  ASSERT_TRUE(index.Insert(d1).ok());
  ASSERT_TRUE(index.Insert(d2).ok());
  ASSERT_TRUE(index.Delete(d1).ok());
  EXPECT_EQ(index.DocumentCount(), 1u);

  Query q;
  q.location = {10, 10};
  q.terms = {1};
  q.k = 10;
  q.semantics = Semantics::kOr;
  auto res = index.Search(q, 0.5);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.ValueOrDie().size(), 1u);
  EXPECT_EQ(res.ValueOrDie()[0].doc, 2u);

  // Keyword 2 disappeared with d1 entirely.
  q.terms = {2};
  res = index.Search(q, 0.5);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.ValueOrDie().empty());

  // Deleting again fails cleanly.
  EXPECT_FALSE(index.Delete(d1).ok());
}

TEST(I3IndexTest, UpdateMovesDocument) {
  I3Index index(SmallOptions());
  auto before = Doc(1, 10, 10, {{1, 0.9f}});
  auto after = Doc(1, 90, 90, {{2, 0.7f}});
  ASSERT_TRUE(index.Insert(before).ok());
  ASSERT_TRUE(index.Update(before, after).ok());
  EXPECT_EQ(index.DocumentCount(), 1u);

  Query q;
  q.location = {90, 90};
  q.terms = {2};
  q.k = 10;
  q.semantics = Semantics::kAnd;
  auto res = index.Search(q, 0.5);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.ValueOrDie().size(), 1u);
  EXPECT_EQ(res.ValueOrDie()[0].doc, 1u);
}

TEST(I3IndexTest, DuplicateLocationsOverflowChain) {
  // All tuples at the same point with the same keyword: the cell cannot be
  // split spatially and must grow an overflow chain at max_split_level.
  // Constant weights and one location leave ~1 byte per tuple, so a page
  // holds a few hundred: 1,000 tuples need a chain.
  I3Options opt = SmallOptions();
  opt.max_split_level = 3;
  I3Index index(opt);
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(index.Insert(Doc(i, 33.0, 33.0, {{1, 0.5f}})).ok()) << i;
  }
  Query q;
  q.location = {33, 33};
  q.terms = {1};
  q.k = n;
  q.semantics = Semantics::kAnd;
  auto res = index.Search(q, 0.5);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.ValueOrDie().size(), static_cast<size_t>(n));
  EXPECT_GT(index.DataPageCount(), 2u);

  // And they can all be deleted again.
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(index.Delete(Doc(i, 33.0, 33.0, {{1, 0.5f}})).ok()) << i;
  }
  EXPECT_EQ(index.DocumentCount(), 0u);
}

// ---------------------------------------------------------------------------
// Property tests: I3 must agree with the brute-force oracle on randomized
// workloads across semantics, alpha, k, and page capacities.
// ---------------------------------------------------------------------------

// gtest registers each case under a byte dump of its parameter, so every
// byte of it must hold a value: a padding byte would print indeterminate
// memory into the test names. `name_tag` fills the gap after `semantics`,
// `k` and `qn` are 64 bits wide, and alpha is kept as its bit pattern (a
// double has no unique object representation), as the static_assert
// checks. The bytes -- name_tag's values included -- are the ones each
// case has been tracked under.
struct EquivParam {
  constexpr EquivParam(Semantics semantics, uint32_t name_tag, double alpha,
                       uint64_t k, size_t page_size, uint64_t qn)
      : semantics(semantics),
        name_tag(name_tag),
        alpha_bits(std::bit_cast<uint64_t>(alpha)),
        k(k),
        page_size(page_size),
        qn(qn) {}

  double alpha() const { return std::bit_cast<double>(alpha_bits); }

  Semantics semantics;
  uint32_t name_tag;
  uint64_t alpha_bits;
  uint64_t k;
  size_t page_size;
  uint64_t qn;
};
static_assert(std::has_unique_object_representations_v<EquivParam>);

class I3EquivalenceTest : public ::testing::TestWithParam<EquivParam> {};

TEST_P(I3EquivalenceTest, MatchesBruteForce) {
  const EquivParam p = GetParam();
  CorpusOptions copt;
  copt.num_docs = 800;
  copt.vocab_size = 40;

  I3Options opt = SmallOptions(p.page_size);
  I3Index index(opt);
  BruteForceIndex oracle(opt.space);
  for (const auto& d : MakeCorpus(copt, /*seed=*/42)) {
    ASSERT_TRUE(index.Insert(d).ok());
    ASSERT_TRUE(oracle.Insert(d).ok());
  }
  auto check = index.CheckInvariants();
  ASSERT_TRUE(check.ok()) << check.status().ToString();

  for (const Query& q :
       MakeQueries(copt, /*num_queries=*/25, static_cast<uint32_t>(p.qn),
                   static_cast<uint32_t>(p.k), p.semantics,
                   /*seed=*/7)) {
    auto got = index.Search(q, p.alpha());
    auto want = oracle.Search(q, p.alpha());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok());
    EXPECT_TRUE(SameScores(got.ValueOrDie(), want.ValueOrDie()))
        << "semantics=" << SemanticsName(q.semantics)
        << " alpha=" << p.alpha() << " k=" << p.k
        << " got=" << got.ValueOrDie().size()
        << " want=" << want.ValueOrDie().size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, I3EquivalenceTest,
    ::testing::Values(
        EquivParam{Semantics::kAnd, 0, 0.5, 10, 512, 2},
        EquivParam{Semantics::kOr, 0, 0.5, 10, 512, 2},
        EquivParam{Semantics::kAnd, 0xFFFFFFFF, 0.1, 10, 512, 3},
        EquivParam{Semantics::kOr, 0x00005591, 0.1, 10, 512, 3},
        EquivParam{Semantics::kAnd, 0, 0.9, 10, 512, 3},
        EquivParam{Semantics::kOr, 0x00007FCF, 0.9, 10, 512, 3},
        EquivParam{Semantics::kAnd, 0x00007FCF, 0.5, 1, 1024, 4},
        EquivParam{Semantics::kOr, 0x632E7865, 0.5, 1, 1024, 4},
        EquivParam{Semantics::kAnd, 0, 0.5, 50, 1024, 5},
        EquivParam{Semantics::kOr, 0, 0.5, 50, 1024, 5},
        EquivParam{Semantics::kAnd, 0x002C3B03, 0.0, 20, 512, 2},
        EquivParam{Semantics::kOr, 0, 1.0, 20, 512, 2},
        EquivParam{Semantics::kAnd, 0, 0.5, 200, 4096, 3},
        EquivParam{Semantics::kOr, 0, 0.5, 200, 4096, 3}));

TEST(I3PropertyTest, InvariantsHoldUnderMixedWorkload) {
  CorpusOptions copt;
  copt.num_docs = 600;
  copt.vocab_size = 30;
  auto docs = MakeCorpus(copt, 99);

  I3Index index(SmallOptions());
  BruteForceIndex oracle(SmallOptions().space);
  Rng rng(123);
  std::vector<size_t> live;

  size_t next = 0;
  for (int step = 0; step < 1200; ++step) {
    const bool do_insert = live.empty() || next < docs.size()
                               ? (next < docs.size() && rng.Chance(0.65))
                               : false;
    if (do_insert) {
      ASSERT_TRUE(index.Insert(docs[next]).ok());
      ASSERT_TRUE(oracle.Insert(docs[next]).ok());
      live.push_back(next);
      ++next;
    } else if (!live.empty()) {
      const size_t pick = rng.UniformInt(0, live.size() - 1);
      const size_t victim = live[pick];
      live.erase(live.begin() + pick);
      ASSERT_TRUE(index.Delete(docs[victim]).ok());
      ASSERT_TRUE(oracle.Delete(docs[victim]).ok());
    }
    if (step % 200 == 199) {
      auto check = index.CheckInvariants();
      ASSERT_TRUE(check.ok()) << "step " << step << ": "
                              << check.status().ToString();
      for (const Query& q : MakeQueries(copt, 5, 2, 10,
                                        step % 400 == 199
                                            ? Semantics::kAnd
                                            : Semantics::kOr,
                                        step)) {
        auto got = index.Search(q, 0.5);
        auto want = oracle.Search(q, 0.5);
        ASSERT_TRUE(got.ok());
        ASSERT_TRUE(want.ok());
        EXPECT_TRUE(SameScores(got.ValueOrDie(), want.ValueOrDie()))
            << "step " << step;
      }
    }
  }
  EXPECT_EQ(index.DocumentCount(), oracle.DocumentCount());
}

TEST(I3IndexTest, IoStatsAreCharged) {
  I3Index index(SmallOptions());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(index
                    .Insert(Doc(i, i * 1.7, i * 1.3,
                                {{static_cast<TermId>(i % 5), 0.5f}}))
                    .ok());
  }
  index.ClearCache();  // cold cache: reads must hit the data file
  index.ResetIoStats();
  Query q;
  q.location = {50, 50};
  q.terms = {0, 1};
  q.k = 10;
  q.semantics = Semantics::kOr;
  ASSERT_TRUE(index.Search(q, 0.5).ok());
  EXPECT_GT(index.io_stats().reads(IoCategory::kI3DataFile), 0u);
}

TEST(I3IndexTest, OnDiskBackendMatchesInMemory) {
  I3Options disk_opt = SmallOptions();
  disk_opt.data_file_path = "/tmp/i3_test_data_file.bin";
  auto disk_res = I3Index::Create(disk_opt);
  ASSERT_TRUE(disk_res.ok());
  auto& disk = *disk_res.ValueOrDie();
  I3Index mem(SmallOptions());

  CorpusOptions copt;
  copt.num_docs = 300;
  for (const auto& d : MakeCorpus(copt, 5)) {
    ASSERT_TRUE(disk.Insert(d).ok());
    ASSERT_TRUE(mem.Insert(d).ok());
  }
  const auto queries = MakeQueries(copt, 10, 2, 10, Semantics::kOr, 11);
  for (const Query& q : queries) {
    auto a = disk.Search(q, 0.5);
    auto b = mem.Search(q, 0.5);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(SameScores(a.ValueOrDie(), b.ValueOrDie()));
  }

  // The disk-backed data file has the decoded-cell cache too: the same
  // queries again are served from it.
  const obs::Counter* hits = obs::MetricsRegistry::Global().GetCounter(
      "i3_cell_cache_hits_total", "");
  const uint64_t hits_before = hits->Value();
  for (const Query& q : queries) ASSERT_TRUE(disk.Search(q, 0.5).ok());
  EXPECT_GT(hits->Value(), hits_before);

  // A page_file_factory takes precedence over data_file_path: no file is
  // made at the path.
  I3Options both = SmallOptions();
  both.data_file_path = testing::TempDir() + "/i3_test_factory_first.bin";
  std::remove(both.data_file_path.c_str());
  both.page_file_factory = [](size_t page_size) {
    return std::make_unique<InMemoryPageFile>(page_size);
  };
  auto both_res = I3Index::Create(both);
  ASSERT_TRUE(both_res.ok());
  ASSERT_TRUE(both_res.ValueOrDie()->Insert(Doc(1, 5, 5, {{1, 0.5f}})).ok());
  EXPECT_FALSE(std::ifstream(both.data_file_path).good());
}

// Create refuses what the index cannot serve instead of building it.
TEST(I3IndexTest, CreateRejectsUnservableOptions) {
  I3Options small = SmallOptions(codec::kV2MinPageSize / 2);
  EXPECT_TRUE(I3Index::Create(small).status().IsInvalidArgument());
  I3Options no_signature = SmallOptions();
  no_signature.signature_bits = 0;
  EXPECT_TRUE(I3Index::Create(no_signature).status().IsInvalidArgument());
  EXPECT_TRUE(I3Index::Create(SmallOptions()).ok());
}


TEST(I3IndexTest, RecursiveSplitWhenAllTuplesInOneQuadrant) {
  // All tuples cluster in a tiny corner region: a root split pushes every
  // tuple into the same child, which must immediately split again
  // (recursive dense descent) without losing any tuple.
  I3Index index(SmallOptions());
  const uint32_t n = 128;
  for (uint32_t i = 0; i < n; ++i) {
    const double x = 1.0 + 0.01 * i;
    const double y = 2.0 + 0.005 * i;
    ASSERT_TRUE(index.Insert(Doc(i, x, y, {{1, 0.5f}})).ok()) << i;
  }
  auto check = index.CheckInvariants();
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check.ValueOrDie(), n);
  EXPECT_GT(index.SummaryNodeCount(), 2u);  // several levels of nodes

  Query q;
  q.location = {1.0, 2.0};
  q.terms = {1};
  q.k = n;
  q.semantics = Semantics::kAnd;
  auto res = index.Search(q, 0.5);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.ValueOrDie().size(), n);
}

TEST(I3IndexTest, SearchAndSearchRangeAgree) {
  // Every document Search returns must also be found by SearchRange over
  // the whole space with the same semantics (and vice versa for AND).
  CorpusOptions copt;
  copt.num_docs = 400;
  copt.vocab_size = 20;
  I3Index index(SmallOptions());
  for (const auto& d : MakeCorpus(copt, 123)) {
    ASSERT_TRUE(index.Insert(d).ok());
  }
  for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
    for (const Query& q : MakeQueries(copt, 10, 2, 50, sem, 124)) {
      auto topk = index.Search(q, 0.5);
      ASSERT_TRUE(topk.ok());
      auto all = index.SearchRange(index.options().space, q.terms, sem);
      ASSERT_TRUE(all.ok());
      std::unordered_set<DocId> range_docs;
      for (const auto& sd : all.ValueOrDie()) range_docs.insert(sd.doc);
      for (const auto& sd : topk.ValueOrDie()) {
        EXPECT_TRUE(range_docs.count(sd.doc)) << sd.doc;
      }
    }
  }
}

TEST(I3IndexTest, ResultsCarryLocations) {
  I3Index index(SmallOptions());
  ASSERT_TRUE(index.Insert(Doc(5, 33.0, 44.0, {{1, 0.5f}})).ok());
  Query q;
  q.location = {0, 0};
  q.terms = {1};
  q.k = 1;
  q.semantics = Semantics::kAnd;
  auto res = index.Search(q, 0.5);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.ValueOrDie().size(), 1u);
  EXPECT_EQ(res.ValueOrDie()[0].location, (Point{33.0, 44.0}));
}

}  // namespace
}  // namespace i3
