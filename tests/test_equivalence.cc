// Cross-index integration tests: I3, IR-tree, S2I and the brute-force
// oracle must return identical ranked score sequences for every query, on
// shared randomized corpora, across semantics, alpha, k and query length.
// This is the strongest end-to-end guarantee in the suite: all four
// implementations realize the same ranking function of Section 3.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "i3/i3_index.h"
#include "irtree/irtree_index.h"
#include "model/brute_force.h"
#include "s2i/s2i_index.h"
#include "test_util.h"

namespace i3 {
namespace {

using testutil::CorpusOptions;
using testutil::MakeCorpus;
using testutil::MakeQueries;
using testutil::SameScores;

struct Fixture {
  std::unique_ptr<I3Index> i3;
  std::unique_ptr<IrTreeIndex> irtree;
  std::unique_ptr<S2IIndex> s2i;
  std::unique_ptr<BruteForceIndex> oracle;
  std::vector<SpatialDocument> docs;

  std::vector<SpatialKeywordIndex*> All() {
    return {i3.get(), irtree.get(), s2i.get(), oracle.get()};
  }
};

Fixture BuildFixture(const CorpusOptions& copt, uint64_t seed) {
  Fixture f;
  I3Options i3opt;
  i3opt.space = copt.space;
  i3opt.page_size = 256;  // capacity 8: forces deep cell trees
  i3opt.signature_bits = 128;
  f.i3 = std::make_unique<I3Index>(i3opt);

  IrTreeOptions iropt;
  iropt.space = copt.space;
  iropt.page_size = 256;
  f.irtree = std::make_unique<IrTreeIndex>(iropt);

  S2IOptions s2opt;
  s2opt.space = copt.space;
  s2opt.page_size = 256;
  s2opt.frequency_threshold = 16;  // exercise both flat and tree paths
  f.s2i = std::make_unique<S2IIndex>(s2opt);

  f.oracle = std::make_unique<BruteForceIndex>(copt.space);

  f.docs = MakeCorpus(copt, seed);
  for (const auto& d : f.docs) {
    EXPECT_TRUE(f.i3->Insert(d).ok());
    EXPECT_TRUE(f.irtree->Insert(d).ok());
    EXPECT_TRUE(f.s2i->Insert(d).ok());
    EXPECT_TRUE(f.oracle->Insert(d).ok());
  }
  return f;
}

// gtest registers each case under a byte dump of its parameter, so the
// padding after `semantics` used to leak indeterminate bytes into the test
// names. `name_tag` fills that gap explicitly; its values pin every case to
// the name it has been tracked under.
struct EquivCase {
  Semantics semantics;
  uint32_t name_tag;
  double alpha;
  uint32_t k;
  uint32_t qn;
};

class AllIndexEquivalenceTest : public ::testing::TestWithParam<EquivCase> {
 protected:
  static void SetUpTestSuite() {
    CorpusOptions copt;
    copt.num_docs = 700;
    copt.vocab_size = 35;
    copt.max_terms = 6;
    fixture_ = new Fixture(BuildFixture(copt, 2024));
    copt_ = new CorpusOptions(copt);
  }
  static void TearDownTestSuite() {
    delete fixture_;
    delete copt_;
    fixture_ = nullptr;
    copt_ = nullptr;
  }
  static Fixture* fixture_;
  static CorpusOptions* copt_;
};

Fixture* AllIndexEquivalenceTest::fixture_ = nullptr;
CorpusOptions* AllIndexEquivalenceTest::copt_ = nullptr;

TEST_P(AllIndexEquivalenceTest, AllIndexesAgree) {
  const EquivCase p = GetParam();
  auto queries = MakeQueries(*copt_, /*num_queries=*/20, p.qn, p.k,
                             p.semantics, /*seed=*/p.qn * 100 + p.k);
  for (const Query& q : queries) {
    auto want = fixture_->oracle->Search(q, p.alpha);
    ASSERT_TRUE(want.ok());
    for (SpatialKeywordIndex* idx : fixture_->All()) {
      auto got = idx->Search(q, p.alpha);
      ASSERT_TRUE(got.ok()) << idx->Name() << ": "
                            << got.status().ToString();
      EXPECT_TRUE(SameScores(got.ValueOrDie(), want.ValueOrDie()))
          << idx->Name() << " semantics=" << SemanticsName(p.semantics)
          << " alpha=" << p.alpha << " k=" << p.k << " qn=" << p.qn
          << " got.size=" << got.ValueOrDie().size()
          << " want.size=" << want.ValueOrDie().size();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllIndexEquivalenceTest,
    ::testing::Values(EquivCase{Semantics::kAnd, 0x71655F74, 0.5, 10, 2},
                      EquivCase{Semantics::kOr, 0x00007FF4, 0.5, 10, 2},
                      EquivCase{Semantics::kAnd, 0, 0.5, 10, 3},
                      EquivCase{Semantics::kOr, 0x00007FFC, 0.5, 10, 3},
                      EquivCase{Semantics::kAnd, 0, 0.1, 20, 4},
                      EquivCase{Semantics::kOr, 0, 0.1, 20, 4},
                      EquivCase{Semantics::kAnd, 0, 0.9, 20, 5},
                      EquivCase{Semantics::kOr, 0, 0.9, 20, 5},
                      EquivCase{Semantics::kAnd, 0, 0.0, 5, 2},
                      EquivCase{Semantics::kOr, 0, 0.0, 5, 2},
                      EquivCase{Semantics::kAnd, 0, 1.0, 5, 3},
                      EquivCase{Semantics::kOr, 0, 1.0, 5, 3},
                      EquivCase{Semantics::kAnd, 0x002C3B03, 0.5, 100, 3},
                      EquivCase{Semantics::kOr, 0xEFE00000, 0.5, 100, 3},
                      EquivCase{Semantics::kAnd, 0, 0.3, 1, 2},
                      EquivCase{Semantics::kOr, 0xCAC00000, 0.7, 1, 2}));

TEST(EquivalenceAfterUpdates, AllIndexesAgreeAfterChurn) {
  CorpusOptions copt;
  copt.num_docs = 500;
  copt.vocab_size = 25;
  Fixture f = BuildFixture(copt, 31);

  // Delete a third of the documents, re-insert some with new ids.
  Rng rng(77);
  std::vector<SpatialDocument> extra =
      MakeCorpus([&] {
        CorpusOptions o = copt;
        o.num_docs = 150;
        o.first_id = 10000;
        return o;
      }(), 32);
  size_t ei = 0;
  for (size_t i = 0; i < f.docs.size(); i += 3) {
    for (SpatialKeywordIndex* idx : f.All()) {
      ASSERT_TRUE(idx->Delete(f.docs[i]).ok()) << idx->Name();
    }
    if (ei < extra.size()) {
      for (SpatialKeywordIndex* idx : f.All()) {
        ASSERT_TRUE(idx->Insert(extra[ei]).ok()) << idx->Name();
      }
      ++ei;
    }
  }

  auto i3check = f.i3->CheckInvariants();
  ASSERT_TRUE(i3check.ok()) << i3check.status().ToString();
  auto ircheck = f.irtree->CheckInvariants();
  ASSERT_TRUE(ircheck.ok()) << ircheck.status().ToString();

  for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
    for (const Query& q : MakeQueries(copt, 15, 3, 10, sem, 55)) {
      auto want = f.oracle->Search(q, 0.5);
      ASSERT_TRUE(want.ok());
      for (SpatialKeywordIndex* idx : f.All()) {
        auto got = idx->Search(q, 0.5);
        ASSERT_TRUE(got.ok()) << idx->Name();
        EXPECT_TRUE(SameScores(got.ValueOrDie(), want.ValueOrDie()))
            << idx->Name() << " " << SemanticsName(sem);
      }
    }
  }
}

TEST(EquivalenceBulkLoad, StrBulkLoadMatchesIncrementalBuild) {
  CorpusOptions copt;
  copt.num_docs = 400;
  copt.vocab_size = 20;
  auto docs = MakeCorpus(copt, 3);

  IrTreeOptions opt;
  opt.space = copt.space;
  opt.page_size = 256;
  IrTreeIndex incremental(opt);
  for (const auto& d : docs) ASSERT_TRUE(incremental.Insert(d).ok());
  auto bulk_res = IrTreeIndex::BulkLoad(opt, docs);
  ASSERT_TRUE(bulk_res.ok());
  auto& bulk = *bulk_res.ValueOrDie();
  auto check = bulk.CheckInvariants();
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check.ValueOrDie(), docs.size());

  for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
    for (const Query& q : MakeQueries(copt, 15, 2, 10, sem, 9)) {
      auto a = incremental.Search(q, 0.5);
      auto b = bulk.Search(q, 0.5);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_TRUE(SameScores(a.ValueOrDie(), b.ValueOrDie()));
    }
  }
  // Bulk loading is strictly cheaper in node writes than one-by-one
  // insertion (no splits).
  EXPECT_LT(bulk.io_stats().TotalWrites(),
            incremental.io_stats().TotalWrites());
}


TEST(EquivalenceWikipediaStyle, KeywordRichDocumentsAndLongQueries) {
  // Wikipedia-like documents carry dozens of keywords; long OR queries
  // (qn > 12) additionally exercise the I3 lattice's sum fallback.
  CorpusOptions copt;
  copt.num_docs = 250;
  copt.vocab_size = 60;
  copt.min_terms = 20;
  copt.max_terms = 40;
  Fixture f = BuildFixture(copt, 777);

  for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
    for (uint32_t qn : {3u, 8u, 15u}) {
      for (const Query& q : MakeQueries(copt, 8, qn, 10, sem, qn * 7)) {
        auto want = f.oracle->Search(q, 0.5);
        ASSERT_TRUE(want.ok());
        for (SpatialKeywordIndex* idx : f.All()) {
          auto got = idx->Search(q, 0.5);
          ASSERT_TRUE(got.ok()) << idx->Name();
          EXPECT_TRUE(SameScores(got.ValueOrDie(), want.ValueOrDie()))
              << idx->Name() << " qn=" << qn << " "
              << SemanticsName(sem);
        }
      }
    }
  }
}

// Two docs at the same distance from the query with the same weight tie on
// score, and the smaller doc id (5) wins. They lie in different cells, so an
// index that reaches doc 10 first and then prunes a cell whose bound merely
// equals the k-th score keeps the loser. The far cluster makes the cell
// trees deep enough to separate the two.
std::vector<SpatialDocument> TiedScoreCorpus() {
  Rng rng(4242);
  std::vector<SpatialDocument> docs;
  for (DocId id = 100; id < 300; ++id) {
    SpatialDocument d;
    d.id = id;
    d.location = {rng.UniformDouble(3.0, 4.0), rng.UniformDouble(3.0, 4.0)};
    d.terms = {{1, 0.01f}};
    docs.push_back(std::move(d));
  }
  for (const auto& [id, x] : {std::pair<DocId, double>{10, 1.0}, {5, 2.0}}) {
    SpatialDocument d;
    d.id = id;
    d.location = {x, 1.5};
    d.terms = {{1, 1.0f}};
    docs.push_back(std::move(d));
  }
  return docs;
}

/// Runs `q` on I3 (raw and compressed cells), IR-tree and S2I (TA and
/// NRA) at page sizes 128, 256 and 4096 over `docs`, and requires each
/// ranking to equal BruteForce's doc for doc and score for score, with
/// doc 5 last.
void ExpectOracleRanking(const Rect& space,
                         const std::vector<SpatialDocument>& docs,
                         const Query& q, const std::string& where) {
  BruteForceIndex oracle(space);
  for (const auto& d : docs) ASSERT_TRUE(oracle.Insert(d).ok());
  std::vector<std::unique_ptr<SpatialKeywordIndex>> indexes;
  for (size_t page_size : {128, 256, 4096}) {
    for (bool compress : {false, true}) {
      I3Options opt;
      opt.space = space;
      opt.page_size = page_size;
      opt.compress_pages = compress;
      indexes.push_back(std::make_unique<I3Index>(opt));
    }
    IrTreeOptions iropt;
    iropt.space = space;
    iropt.page_size = page_size;
    indexes.push_back(std::make_unique<IrTreeIndex>(iropt));
    for (S2IStrategy strategy :
         {S2IStrategy::kTaRandomAccess, S2IStrategy::kNra}) {
      S2IOptions s2opt;
      s2opt.space = space;
      s2opt.page_size = page_size;
      s2opt.strategy = strategy;
      indexes.push_back(std::make_unique<S2IIndex>(s2opt));
    }
  }
  auto want = oracle.Search(q, 0.5);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(want.ValueOrDie().size(), q.k) << where;
  EXPECT_EQ(want.ValueOrDie().back().doc, 5u) << where;
  for (size_t i = 0; i < indexes.size(); ++i) {
    for (const auto& d : docs) ASSERT_TRUE(indexes[i]->Insert(d).ok());
    auto got = indexes[i]->Search(q, 0.5);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const std::string ctx =
        indexes[i]->Name() + " #" + std::to_string(i) + " " + where;
    ASSERT_EQ(got.ValueOrDie().size(), q.k) << ctx;
    for (size_t r = 0; r < q.k; ++r) {
      EXPECT_EQ(got.ValueOrDie()[r].doc, want.ValueOrDie()[r].doc)
          << ctx << " rank " << r;
      EXPECT_EQ(got.ValueOrDie()[r].score, want.ValueOrDie()[r].score)
          << ctx << " rank " << r;
    }
  }
}

/// Appends a document to `docs`.
void AddDoc(std::vector<SpatialDocument>* docs, DocId id, double x, double y,
            std::vector<WeightedTerm> terms) {
  SpatialDocument d;
  d.id = id;
  d.location = {x, y};
  d.terms = std::move(terms);
  docs->push_back(std::move(d));
}

TEST(EquivalenceTies, TiedScoreGoesToSmallerDocId) {
  const auto docs = TiedScoreCorpus();
  for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
    Query q;
    q.location = {1.5, 1.5};
    q.terms = {1};
    q.k = 1;
    q.semantics = sem;
    ExpectOracleRanking({0.0, 0.0, 4.0, 4.0}, docs, q, SemanticsName(sem));
  }
}

// The same tie at rank k = 256, placed for the prunes the fixture above
// cannot reach. S2I's NRA tests its stop every 256 source pops, so 255
// fillers that outscore the pair make the 256th pop the first tied doc.
// Each tied doc sits at the near end of its own row of low-weight docs,
// so the IR-tree holds them in different nodes whose bounds equal the
// tied score. `swap` trades the two ids, so whichever doc an index
// reaches first, one of the two layouts has it reach doc 10 first.
TEST(EquivalenceTies, TiedScoreAtRankKGoesToSmallerDocId) {
  for (bool swap : {false, true}) {
    std::vector<SpatialDocument> docs;
    for (DocId i = 0; i < 255; ++i) {
      AddDoc(&docs, 1000 + i, 1.5, 1.5 + 0.0001 * i, {{1, 1.0f}});
    }
    AddDoc(&docs, swap ? 5 : 10, 1.0, 1.5, {{1, 1.0f}});
    AddDoc(&docs, swap ? 10 : 5, 2.0, 1.5, {{1, 1.0f}});
    for (DocId j = 1; j <= 40; ++j) {
      AddDoc(&docs, 2000 + j, 1.0 - 0.01 * j, 1.5, {{1, 0.01f}});
      AddDoc(&docs, 3000 + j, 2.0 + 0.01 * j, 1.5, {{1, 0.01f}});
    }
    for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
      Query q;
      q.location = {1.5, 1.5};
      q.terms = {1};
      q.k = 256;
      q.semantics = sem;
      ExpectOracleRanking({0.0, 0.0, 4.0, 4.0}, docs, q,
                          std::string(SemanticsName(sem)) +
                              (swap ? " swapped" : ""));
    }
  }
}

// The tie reached through a partly seen OR candidate, for NRA's phase-2
// skip. Term 1 holds 254 fillers, doc 10 (weight 0.75) and doc 5 (weight
// 0.5), exactly 256 entries that all outrank doc 5's term-2 entry (weight
// 0.25, the largest in its list), so NRA's check after 256 pops finds
// doc 5 seen in term 1 only: its bound, 0.5 * 0.75 + 0.5 * (0.5 + 0.25),
// equals doc 10's score at rank k = 255 exactly (both sit 1.25 from the
// query in a space whose diagonal is 5, so proximity is exactly 0.75).
TEST(EquivalenceTies, TiedPartlySeenCandidateGoesToSmallerDocId) {
  std::vector<SpatialDocument> docs;
  for (DocId i = 0; i < 254; ++i) {
    AddDoc(&docs, 1000 + i, 1.5, 2.0 + 0.001 * i, {{1, 1.0f}});
  }
  AddDoc(&docs, 10, 1.5, 0.75, {{1, 0.75f}});
  AddDoc(&docs, 5, 1.5, 0.75, {{1, 0.5f}, {2, 0.25f}});
  Query q;
  q.location = {1.5, 2.0};
  q.terms = {1, 2};
  q.k = 255;
  q.semantics = Semantics::kOr;
  ExpectOracleRanking({0.0, 0.0, 3.0, 4.0}, docs, q, "OR");
}

TEST(EquivalenceQueryLimits, MoreThan32KeywordsRejected) {
  CorpusOptions copt;
  copt.num_docs = 50;
  Fixture f = BuildFixture(copt, 88);
  Query q;
  q.location = {50, 50};
  for (TermId t = 0; t < 40; ++t) q.terms.push_back(t);
  q.k = 5;
  q.semantics = Semantics::kOr;
  // I3 enforces the 32-term mask limit explicitly.
  EXPECT_TRUE(f.i3->Search(q, 0.5).status().IsInvalidArgument());
}

}  // namespace
}  // namespace i3
