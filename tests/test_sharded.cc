// Tests of ReplicaSet as the serving index of one replica: it must return
// byte-identical results -- order, ties, AND/OR, extreme alpha, k >
// matching docs -- to the bare I3Index on the same corpus, also after
// deletes and updates; pass through the index's name, DocumentCount,
// SizeInfo and IoStats; propagate its errors; and publish one sampled
// trace per request.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "i3/i3_index.h"
#include "irtree/irtree_index.h"
#include "model/replica_set.h"
#include "obs/trace.h"
#include "test_util.h"

namespace i3 {
namespace {

using testutil::CorpusOptions;
using testutil::MakeCorpus;
using testutil::MakeQueries;

I3Options SmallI3Options() {
  I3Options opt;
  opt.space = {0.0, 0.0, 100.0, 100.0};
  opt.page_size = codec::kV2MinPageSize;
  opt.signature_bits = 128;
  return opt;
}

/// The one-replica serving set of `index`.
std::unique_ptr<ReplicaSet> Wrap(std::unique_ptr<SpatialKeywordIndex> index) {
  std::vector<std::unique_ptr<SpatialKeywordIndex>> one;
  one.push_back(std::move(index));
  return std::make_unique<ReplicaSet>(std::move(one));
}

std::unique_ptr<ReplicaSet> WrappedI3(
    const I3Options& opt = SmallI3Options()) {
  return Wrap(std::make_unique<I3Index>(opt));
}

/// Byte-identical comparison: same length, same docs in the same order,
/// bitwise-equal scores. This is stricter than testutil::SameScores (which
/// tolerates epsilon and tie reordering) on purpose: the set must
/// return exactly what the bare index computes.
void ExpectIdenticalResults(const std::vector<ScoredDoc>& got,
                            const std::vector<ScoredDoc>& expected,
                            const std::string& context) {
  ASSERT_EQ(got.size(), expected.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, expected[i].doc) << context << " rank " << i;
    EXPECT_EQ(got[i].score, expected[i].score)
        << context << " rank " << i << " doc " << got[i].doc;
  }
}

/// A shifted copy of `d` with the same id: new location, rescaled weights.
SpatialDocument Shifted(const SpatialDocument& d) {
  SpatialDocument out = d;
  out.location.x = std::min(100.0, d.location.x + 7.5);
  out.location.y = std::max(0.0, d.location.y - 3.25);
  for (auto& wt : out.terms) {
    wt.weight = std::min(1.0f, wt.weight * 0.5f + 0.05f);
  }
  return out;
}

TEST(ShardedIndexTest, NameComposesAcrossDecorators) {
  // One replica keeps the index's name; more are tagged with their count.
  EXPECT_EQ(WrappedI3()->Name(), "I3");

  std::vector<std::unique_ptr<SpatialKeywordIndex>> two;
  for (int r = 0; r < 2; ++r) {
    two.push_back(std::make_unique<I3Index>(SmallI3Options()));
  }
  EXPECT_EQ(ReplicaSet(std::move(two)).Name(), "I3 (replicated x2)");
}

TEST(ShardedIndexTest, SizeInfoMergesComponentsByName) {
  CorpusOptions copt;
  copt.num_docs = 300;
  const auto docs = MakeCorpus(copt, 17);

  auto wrapped = WrappedI3();
  auto& index = *wrapped;
  for (const auto& d : docs) ASSERT_TRUE(index.Insert(d).ok());
  EXPECT_EQ(index.DocumentCount(), docs.size());

  // One row per I3 component, named as the index names it.
  const IndexSizeInfo merged = index.SizeInfo();
  ASSERT_EQ(merged.components.size(), 3u) << merged.ToString();
  EXPECT_EQ(merged.TotalBytes(), index.replica(0)->SizeInfo().TotalBytes());
  EXPECT_NE(merged.ToString().find("head file"), std::string::npos);
}

TEST(ShardedIndexTest, IoStatsMergeOnRead) {
  CorpusOptions copt;
  copt.num_docs = 500;
  const auto docs = MakeCorpus(copt, 23);
  const auto queries = MakeQueries(copt, 10, 2, 10, Semantics::kOr, 24);

  auto wrapped = WrappedI3();
  auto& index = *wrapped;
  for (const auto& d : docs) ASSERT_TRUE(index.Insert(d).ok());

  index.ResetIoStats();
  EXPECT_EQ(index.io_stats().Total(), 0u);
  for (const Query& q : queries) ASSERT_TRUE(index.Search(q, 0.5).ok());

  // I3 merges its head- and data-file counters on read; the set's
  // snapshot is the index's.
  const IoStats merged = index.io_stats();  // copy = durable snapshot
  EXPECT_GT(merged.TotalReads(), 0u);
  EXPECT_EQ(merged.TotalReads(), index.replica(0)->io_stats().TotalReads());
}

// --- the randomized differential suite ---

struct DiffCase {
  Semantics semantics;
  double alpha;
  uint32_t k;
  uint32_t qn;
};

std::string CaseName(const DiffCase& c) {
  return std::string(SemanticsName(c.semantics)) + " alpha=" +
         std::to_string(c.alpha) + " k=" + std::to_string(c.k) +
         " qn=" + std::to_string(c.qn);
}

class ShardedDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    copt_.num_docs = 1200;
    copt_.vocab_size = 40;
    copt_.max_terms = 4;
    docs_ = MakeCorpus(copt_, 777);

    bare_ = std::make_unique<I3Index>(SmallI3Options());
    wrapped_ = WrappedI3();

    for (const auto& d : docs_) {
      ASSERT_TRUE(bare_->Insert(d).ok());
      ASSERT_TRUE(wrapped_->Insert(d).ok());
    }
  }

  /// Runs every case workload against both indexes and compares.
  void RunDifferential(const std::string& phase) {
    const DiffCase cases[] = {
        // alpha 0 (pure text, maximal score ties), 1 (pure space), 0.5;
        // k = 1, default, and far beyond the matching-document count.
        {Semantics::kAnd, 0.0, 10, 2},  {Semantics::kAnd, 0.5, 1, 2},
        {Semantics::kAnd, 0.5, 10, 3},  {Semantics::kAnd, 1.0, 10, 2},
        {Semantics::kAnd, 0.5, 10000, 2}, {Semantics::kOr, 0.0, 10, 2},
        {Semantics::kOr, 0.5, 1, 3},    {Semantics::kOr, 0.5, 25, 2},
        {Semantics::kOr, 1.0, 10, 2},   {Semantics::kOr, 0.5, 10000, 3},
    };
    uint64_t seed = 4200;
    for (const DiffCase& c : cases) {
      const auto queries =
          MakeQueries(copt_, 25, c.qn, c.k, c.semantics, ++seed);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        auto expected = bare_->Search(queries[qi], c.alpha);
        auto got = wrapped_->Search(queries[qi], c.alpha);
        ASSERT_TRUE(expected.ok());
        ASSERT_TRUE(got.ok());
        ExpectIdenticalResults(got.ValueOrDie(), expected.ValueOrDie(),
                               phase + " " + CaseName(c) + " query " +
                                   std::to_string(qi));
      }
    }
  }

  CorpusOptions copt_;
  std::vector<SpatialDocument> docs_;
  std::unique_ptr<I3Index> bare_;
  std::unique_ptr<ReplicaSet> wrapped_;
};

TEST_F(ShardedDifferentialTest, IdenticalOnStaticCorpus) {
  RunDifferential("static");
}

TEST_F(ShardedDifferentialTest, IdenticalAfterDeletesAndUpdates) {
  // Delete every 3rd document; update every 7th survivor in place.
  for (size_t i = 0; i < docs_.size(); i += 3) {
    ASSERT_TRUE(bare_->Delete(docs_[i]).ok());
    ASSERT_TRUE(wrapped_->Delete(docs_[i]).ok());
  }
  for (size_t i = 0; i < docs_.size(); ++i) {
    if (i % 3 == 0 || i % 7 != 0) continue;
    const SpatialDocument updated = Shifted(docs_[i]);
    ASSERT_TRUE(bare_->Update(docs_[i], updated).ok());
    ASSERT_TRUE(wrapped_->Update(docs_[i], updated).ok());
  }
  ASSERT_EQ(wrapped_->DocumentCount(), bare_->DocumentCount());
  RunDifferential("after-maintenance");
}

TEST_F(ShardedDifferentialTest, ErrorsMatchUnsharded) {
  Query empty;
  empty.location = {50, 50};
  empty.k = 10;
  auto expected = bare_->Search(empty, 0.5);
  auto got = wrapped_->Search(empty, 0.5);
  ASSERT_FALSE(expected.ok());
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), expected.status().code());

  // Invalid alpha propagates too.
  Query q = MakeQueries(copt_, 1, 2, 5, Semantics::kOr, 9)[0];
  EXPECT_FALSE(wrapped_->Search(q, 1.5).ok());
  EXPECT_FALSE(wrapped_->Search(q, -0.1).ok());
}

TEST(ShardedIndexTest, IrTreeShardsAreReaderSafe) {
  // The IR-tree keeps all per-query state on the searching thread's stack,
  // so concurrent readers of the wrapped tree see exactly the sequential
  // answers.
  IrTreeOptions iropt;
  iropt.space = {0.0, 0.0, 100.0, 100.0};
  iropt.page_size = 256;
  auto wrapped = Wrap(std::make_unique<IrTreeIndex>(iropt));
  auto& index = *wrapped;
  CorpusOptions copt;
  copt.num_docs = 400;
  for (const auto& d : MakeCorpus(copt, 55)) {
    ASSERT_TRUE(index.Insert(d).ok());
  }
  const auto queries = MakeQueries(copt, 20, 2, 10, Semantics::kOr, 56);
  std::vector<std::vector<ScoredDoc>> expected;
  for (const Query& q : queries) {
    auto r = index.Search(q, 0.5);
    ASSERT_TRUE(r.ok());
    expected.push_back(r.MoveValue());
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (size_t j = 0; j < queries.size(); ++j) {
        const size_t i = (j + t) % queries.size();
        auto r = index.Search(queries[i], 0.5);
        if (!r.ok() || !(r.ValueOrDie() == expected[i])) ++mismatches;
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ShardedIndexTest, IoStatsNeverGoBackwardsUnderConcurrentReads) {
  // io_stats() returns a fresh snapshot per call, so readers beside a
  // searcher (and beside each other) only ever see the totals grow.
  I3Options opt = SmallI3Options();
  opt.buffer_pool.capacity_pages = 0;  // every page view is a device read
  auto wrapped = WrappedI3(opt);
  auto& index = *wrapped;
  CorpusOptions copt;
  copt.num_docs = 500;
  for (const auto& d : MakeCorpus(copt, 71)) {
    ASSERT_TRUE(index.Insert(d).ok());
  }
  const auto queries = MakeQueries(copt, 20, 2, 10, Semantics::kOr, 72);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> decreases{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!done.load()) {
        const uint64_t now = index.io_stats().TotalReads();
        if (now < last) ++decreases;
        last = now;
      }
    });
  }
  bool all_ok = true;
  for (int round = 0; round < 10; ++round) {
    for (const Query& q : queries) all_ok &= index.Search(q, 0.5).ok();
  }
  done = true;
  for (auto& th : readers) th.join();
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(decreases.load(), 0u);
  EXPECT_GT(index.io_stats().TotalReads(), 0u);
}

/// Runs `queries` through a fresh serving set at trace sample `rate` and
/// returns what the global tracer published.
std::vector<obs::QueryTrace> SampledTraces(double rate, size_t num_queries) {
  auto wrapped = WrappedI3();
  auto& index = *wrapped;
  CorpusOptions copt;
  copt.num_docs = 400;
  for (const auto& d : MakeCorpus(copt, 81)) {
    EXPECT_TRUE(index.Insert(d).ok());
  }
  const auto queries =
      MakeQueries(copt, num_queries, 2, 10, Semantics::kOr, 82);
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.SetSampleRate(rate);
  for (const Query& q : queries) EXPECT_TRUE(index.Search(q, 0.5).ok());
  tracer.SetSampleRate(0.0);
  std::vector<obs::QueryTrace> traces = tracer.Recent();
  tracer.Clear();
  return traces;
}

TEST(ShardedIndexTest, SampledTraceCoversTheWholeFanOut) {
  // One request is one sampling decision: at rate 1 each query publishes
  // exactly one trace, holding the set's stage and the index's own I3
  // stages, with each fact annotated once.
  const auto traces = SampledTraces(1.0, 10);
  ASSERT_EQ(traces.size(), 10u);
  for (const obs::QueryTrace& t : traces) {
    EXPECT_EQ(t.label, "ReplicaSet.Search");
    for (const char* stage : {"search", "signature_filter"}) {
      EXPECT_TRUE(std::any_of(
          t.stages.begin(), t.stages.end(),
          [&](const obs::TraceStage& s) { return s.name == stage; }))
          << "missing stage " << stage;
    }
    std::map<std::string, int> seen;
    for (const auto& a : t.annotations) ++seen[a.first];
    for (const auto& [name, n] : seen) EXPECT_EQ(n, 1) << name;
    for (const char* note : {"docs_scored", "results"}) {
      EXPECT_EQ(seen.count(note), 1u) << note;
    }
  }
}

TEST(ShardedIndexTest, SampleRateCountsRequestsNotShards) {
  EXPECT_EQ(SampledTraces(0.25, 40).size(), 10u);
}

}  // namespace
}  // namespace i3
