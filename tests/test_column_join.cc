// Tests of the I3 search join (DESIGN.md §8): candidates join query terms on
// per-cell doc columns sorted by doc id. The property under test is the
// usual one -- top-k byte-identical to the BruteForceIndex oracle (doc ids,
// score bits, locations) -- on the inputs that stress the columns:
//
//  - weights whose sum depends on the order they are added in, so a join
//    that adds in fetch order instead of query-term order is caught;
//  - keyword cells whose slot order is no longer doc-id order (reverse-id
//    inserts, delete + reinsert churn), across every stack configuration
//    that changes how a column is filled;
//  - OR cells that mix one-, two- and three-term docs, which the scorer
//    splits into merged and column-by-column docs;
//  - concurrent readers, whose columns live in per-thread arenas.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "i3/i3_index.h"
#include "model/brute_force.h"
#include "model/scorer.h"
#include "obs/trace.h"
#include "test_util.h"

namespace i3 {
namespace {

using testutil::CorpusOptions;
using testutil::MakeCorpus;
using testutil::MakeQueries;

const Rect kSpace{0.0, 0.0, 100.0, 100.0};

I3Options SmallPageOptions(bool cell_cache, bool screen) {
  I3Options opt;
  opt.space = kSpace;
  // Small cells: deep trees, many fetched columns.
  opt.page_size = codec::kV2MinPageSize;
  opt.signature_bits = 64;
  opt.summary_screen = screen;
  opt.cell_cache_bytes = cell_cache ? (64u << 10) : 0;
  return opt;
}

/// Byte-for-byte equality: doc ids, score bit patterns, and locations.
void ExpectByteIdentical(const std::vector<ScoredDoc>& got,
                         const std::vector<ScoredDoc>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << what << " rank " << i;
    EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score, sizeof(double)), 0)
        << what << " rank " << i << ": " << got[i].score << " vs "
        << want[i].score;
    EXPECT_EQ(got[i].location, want[i].location) << what << " rank " << i;
  }
}

// Three query terms whose weights span more than 53 bits of exponent:
// summed in query-term order, 3*2^-55 + 3*2^-55 + 1.0 rounds up to
// 1 + 2^-52; summed in the order the descent fetches them (the 1.0 term
// first, since pending cells resolve by largest max_s), the two tiny
// weights each round away. Every doc carries all three terms, so all three
// are dense at the root and reach candidates through deferred fetches.
std::vector<SpatialDocument> SummationOrderCorpus() {
  const float tiny = static_cast<float>(std::ldexp(3.0, -55));
  Rng rng(77);
  std::vector<SpatialDocument> docs;
  for (DocId id = 0; id < 200; ++id) {
    SpatialDocument d;
    d.id = id;
    d.location = {rng.UniformDouble(0.0, 100.0),
                  rng.UniformDouble(0.0, 100.0)};
    // Term ids ascend, so the 1.0 weight sits on the last query term.
    d.terms = {{10, tiny}, {11, tiny}, {12, 1.0f}};
    docs.push_back(std::move(d));
  }
  return docs;
}

TEST(ColumnJoinTest, ScoresSumWeightsInQueryTermOrder) {
  const auto docs = SummationOrderCorpus();
  BruteForceIndex oracle(kSpace);
  for (const auto& d : docs) ASSERT_TRUE(oracle.Insert(d).ok());
  for (bool cache : {false, true}) {
    I3Index index(SmallPageOptions(cache, /*screen=*/true));
    for (const auto& d : docs) ASSERT_TRUE(index.Insert(d).ok());
    for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
      Query q;
      q.location = {50.0, 50.0};
      q.terms = {10, 11, 12};
      q.k = 10;
      q.semantics = sem;
      auto want = oracle.Search(q, 0.5);
      ASSERT_TRUE(want.ok());
      ASSERT_EQ(want.ValueOrDie().size(), 10u);
      // The fixture is sensitive: the fetch-order text sum (1.0) moves the
      // combined score of most docs by an ulp (round-half-even hides some).
      const Scorer scorer(kSpace, 0.5);
      int sensitive = 0;
      for (const ScoredDoc& d : want.ValueOrDie()) {
        const double phi_s = scorer.SpatialProximity(q.location, d.location);
        EXPECT_EQ(d.score, scorer.Combine(phi_s, 1.0 + std::ldexp(1.0, -52)));
        if (d.score != scorer.Combine(phi_s, 1.0)) ++sensitive;
      }
      EXPECT_GT(sensitive, 0);
      // Twice: the second pass is served from the cell cache when on.
      for (int pass = 0; pass < 2; ++pass) {
        auto got = index.Search(q, 0.5);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectByteIdentical(got.ValueOrDie(), want.ValueOrDie(),
                            std::string(sem == Semantics::kAnd ? "AND" : "OR") +
                                " cache=" + (cache ? "on" : "off") +
                                " pass=" + std::to_string(pass));
      }
    }
  }
}

/// A corpus whose keyword cells hold their rows out of doc-id order:
/// inserted in descending id order, then a third of it deleted and
/// reinserted (reinserts land after the survivors in slot order).
struct ChurnedCorpus {
  std::vector<SpatialDocument> docs;  // final document set
  std::vector<Query> and_queries;
  std::vector<Query> or_queries;
  CorpusOptions copt;
};

ChurnedCorpus MakeChurnedCorpus() {
  ChurnedCorpus c;
  c.copt.num_docs = 700;
  c.copt.vocab_size = 30;
  c.copt.space = kSpace;
  c.docs = MakeCorpus(c.copt, /*seed=*/1201);
  c.and_queries = MakeQueries(c.copt, 12, 2, 100, Semantics::kAnd, 1202);
  c.or_queries = MakeQueries(c.copt, 12, 3, 100, Semantics::kOr, 1203);
  return c;
}

void BuildChurned(I3Index* index, const std::vector<SpatialDocument>& docs) {
  for (size_t i = docs.size(); i-- > 0;) {
    ASSERT_TRUE(index->Insert(docs[i]).ok());
  }
  for (size_t i = 0; i < docs.size(); i += 3) {
    ASSERT_TRUE(index->Delete(docs[i]).ok());
  }
  for (size_t i = 0; i < docs.size(); i += 3) {
    ASSERT_TRUE(index->Insert(docs[i]).ok());
  }
}

TEST(ColumnJoinDifferentialTest, UnsortedCellsMatchOracleAcrossStacks) {
  const ChurnedCorpus c = MakeChurnedCorpus();
  BruteForceIndex oracle(kSpace);
  for (const auto& d : c.docs) ASSERT_TRUE(oracle.Insert(d).ok());

  for (bool cache : {false, true}) {
    for (bool screen : {false, true}) {
      I3Index index(SmallPageOptions(cache, screen));
      BuildChurned(&index, c.docs);
      ASSERT_TRUE(index.CheckInvariants().ok());
      ASSERT_GE(index.SummaryNodeCount(), 48u);
      const std::string stack = std::string("cache=") + (cache ? "1" : "0") +
                                " screen=" + (screen ? "1" : "0");
      for (const auto* queries : {&c.and_queries, &c.or_queries}) {
        for (uint32_t k : {1u, 10u, 100u}) {
          for (Query q : *queries) {
            q.k = k;
            auto want = oracle.Search(q, 0.5);
            auto got = index.Search(q, 0.5);
            ASSERT_TRUE(want.ok());
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            ExpectByteIdentical(got.ValueOrDie(), want.ValueOrDie(),
                                stack + " k=" + std::to_string(k));
          }
        }
      }
    }
  }
}

// OR split scoring: a resolved OR cell merges the docs that may hold two
// query terms and scores the rest one column at a time, skipping a column
// whose best weight cannot reach the threshold. Every cell mixes one-, two-
// and three-term docs; single-term weights run up to 1.0, above most
// multi-term sums, so a column can beat the threshold alone. Doc d (term 1
// only) and doc d + 4096 (term 2 only) lie 0.001 apart, so they share a
// cell, and share a bit of the scorer's 4,096-bit doc filter: the filter
// marks both as possibly holding two terms although each holds one.
constexpr TermId kSplitTerms[] = {1, 2, 3};

std::vector<SpatialDocument> SplitScoringCorpus() {
  Rng rng(1701);
  std::vector<SpatialDocument> docs;
  auto add = [&docs](DocId id, const Point& at,
                     std::vector<WeightedTerm> terms) {
    SpatialDocument d;
    d.id = id;
    d.location = at;
    d.terms = std::move(terms);
    docs.push_back(std::move(d));
  };
  auto weight = [&rng](double lo, double hi) {
    return static_cast<float>(rng.UniformDouble(lo, hi));
  };
  for (DocId id = 0; id < 900; ++id) {
    const Point at{rng.UniformDouble(0.0, 100.0),
                   rng.UniformDouble(0.0, 100.0)};
    // id % 7 picks the terms: 0-2 one, 3-5 all but one, 6 all three. The
    // fewer the terms, the higher a weight can be.
    const uint32_t kind = id % 7;
    const double top = kind < 3 ? 1.0 : kind < 6 ? 0.5 : 0.35;
    std::vector<WeightedTerm> terms;
    for (uint32_t t = 0; t < 3; ++t) {
      if (kind < 3 ? t != kind : kind < 6 && t == kind - 3) continue;
      terms.push_back({kSplitTerms[t], weight(0.05, top)});
    }
    add(id, at, std::move(terms));
  }
  for (DocId d = 1000; d < 1060; ++d) {
    const Point at{rng.UniformDouble(1.0, 99.0), rng.UniformDouble(1.0, 99.0)};
    add(d, at, {{1, weight(0.3, 1.0)}});
    add(d + 4096, {at.x + 0.001, at.y}, {{2, weight(0.3, 1.0)}});
  }
  return docs;
}

TEST(ColumnJoinDifferentialTest, OrSplitScoringMatchesOracleAcrossStacks) {
  const auto docs = SplitScoringCorpus();
  BruteForceIndex oracle(kSpace);
  for (const auto& d : docs) ASSERT_TRUE(oracle.Insert(d).ok());
  const std::vector<TermId> term_sets[] = {{1, 2, 3}, {1, 2}, {2, 3}};
  std::vector<Query> queries;
  Rng rng(1702);
  for (const std::vector<TermId>& terms : term_sets) {
    for (int i = 0; i < 8; ++i) {
      Query q;
      q.location = {rng.UniformDouble(0.0, 100.0),
                    rng.UniformDouble(0.0, 100.0)};
      q.terms = terms;
      q.semantics = Semantics::kOr;
      queries.push_back(q);
    }
  }

  // The fixture reaches every path: the oracle's answers hold single-term
  // docs, multi-term docs and a doc of a look-alike pair.
  std::unordered_map<DocId, size_t> term_count;
  for (const auto& d : docs) term_count[d.id] = d.terms.size();
  size_t single = 0, multi = 0, look_alike = 0;
  for (Query q : queries) {
    q.k = 10;
    auto want = oracle.Search(q, 0.5);
    ASSERT_TRUE(want.ok());
    for (const ScoredDoc& d : want.ValueOrDie()) {
      ++(term_count.at(d.doc) == 1 ? single : multi);
      if (d.doc >= 1000) ++look_alike;
    }
  }
  EXPECT_GT(single, 0u);
  EXPECT_GT(multi, 0u);
  EXPECT_GT(look_alike, 0u);

  for (bool cache : {false, true}) {
    for (bool screen : {false, true}) {
      I3Index index(SmallPageOptions(cache, screen));
      for (const auto& d : docs) ASSERT_TRUE(index.Insert(d).ok());
      const std::string stack = std::string("cache=") + (cache ? "1" : "0") +
                                " screen=" + (screen ? "1" : "0");
      for (uint32_t k : {1u, 10u, 100u}) {
        for (Query q : queries) {
          q.k = k;
          auto want = oracle.Search(q, 0.5);
          auto got = index.Search(q, 0.5);
          ASSERT_TRUE(want.ok());
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ExpectByteIdentical(got.ValueOrDie(), want.ValueOrDie(),
                              stack + " k=" + std::to_string(k));
        }
      }
    }
  }
}

TEST(ColumnJoinDifferentialTest, ConcurrentReadersMatchOracle) {
  const ChurnedCorpus c = MakeChurnedCorpus();
  BruteForceIndex oracle(kSpace);
  for (const auto& d : c.docs) ASSERT_TRUE(oracle.Insert(d).ok());
  I3Index index(SmallPageOptions(/*cell_cache=*/true, /*screen=*/true));
  BuildChurned(&index, c.docs);

  std::vector<Query> queries;
  std::vector<std::vector<ScoredDoc>> want;
  for (const auto* set : {&c.and_queries, &c.or_queries}) {
    for (Query q : *set) {
      q.k = 10;
      auto res = oracle.Search(q, 0.5);
      ASSERT_TRUE(res.ok());
      queries.push_back(q);
      want.push_back(res.MoveValue());
    }
  }

  constexpr int kReaders = 4;
  std::vector<int> mismatches(kReaders, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          // Staggered starts: readers overlap on different queries.
          const size_t qi = (i + static_cast<size_t>(t) * 5) % queries.size();
          auto got = index.Search(queries[qi], 0.5);
          if (!got.ok() || got.ValueOrDie().size() != want[qi].size()) {
            ++mismatches[t];
            continue;
          }
          for (size_t r = 0; r < want[qi].size(); ++r) {
            const ScoredDoc& a = got.ValueOrDie()[r];
            const ScoredDoc& b = want[qi][r];
            if (a.doc != b.doc ||
                std::memcmp(&a.score, &b.score, sizeof(double)) != 0) {
              ++mismatches[t];
              break;
            }
          }
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  for (int t = 0; t < kReaders; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "reader " << t;
  }
}

// rows_joined counts the join's work: rows copied into candidate columns
// plus rows routed to children. It is deterministic per query and reaches
// the request's context next to docs_scored.
TEST(ColumnJoinTest, RowsJoinedIsDeterministicAndTraced) {
  const ChurnedCorpus c = MakeChurnedCorpus();
  I3Index index(SmallPageOptions(/*cell_cache=*/true, /*screen=*/true));
  BuildChurned(&index, c.docs);
  for (const Query& base : c.or_queries) {
    Query q = base;
    q.k = 10;
    obs::QueryTrace first;
    QueryStats s1;
    q.control.trace = &first;
    q.control.stats = &s1;
    ASSERT_TRUE(index.Search(q, 0.5).ok());
    obs::QueryTrace second;
    QueryStats s2;
    q.control.trace = &second;
    q.control.stats = &s2;
    ASSERT_TRUE(index.Search(q, 0.5).ok());
    const uint64_t rows = s2.work.Get("rows_joined");
    EXPECT_EQ(s1.work.Get("rows_joined"), rows);
    if (s1.work.Get("docs_scored") > 0) {
      EXPECT_GE(s1.work.Get("rows_joined"), s1.work.Get("docs_scored"));
    }
    // The caller owns its trace: the index adds stages, and the caller
    // annotates from the context.
    EXPECT_TRUE(second.annotations.empty());
    s2.AnnotateTrace(&second);
    uint64_t traced = UINT64_MAX;
    for (const auto& [key, value] : second.annotations) {
      if (key == "rows_joined") traced = value;
    }
    EXPECT_EQ(traced, rows);
    // The calling thread's last I3 search is the one just run.
    EXPECT_EQ(I3Index::last_search_stats().rows_joined, rows);
  }
}

}  // namespace
}  // namespace i3
