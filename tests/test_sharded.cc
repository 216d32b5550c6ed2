// Tests of ShardedIndex: the merge contract (a ShardedIndex over I3 must
// return byte-identical results -- order, ties, AND/OR, extreme alpha,
// k > matching docs -- to an unsharded I3Index on the same corpus, also
// after deletes and updates), routing, aggregation of DocumentCount /
// SizeInfo / IoStats, name composition, error propagation, and one sampled
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
#include "model/sharded_index.h"
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
  opt.page_size = 256;  // capacity 8: forces deep cell trees in the shards
  opt.signature_bits = 128;
  return opt;
}

ShardedIndex::ShardFactory I3Factory() {
  return [](uint32_t) { return std::make_unique<I3Index>(SmallI3Options()); };
}

/// Byte-identical comparison: same length, same docs in the same order,
/// bitwise-equal scores. This is stricter than testutil::SameScores (which
/// tolerates epsilon and tie reordering) on purpose: sharded and unsharded
/// I3 run the identical floating-point computation per document, so any
/// difference is a merge bug.
void ExpectIdenticalResults(const std::vector<ScoredDoc>& sharded,
                            const std::vector<ScoredDoc>& unsharded,
                            const std::string& context) {
  ASSERT_EQ(sharded.size(), unsharded.size()) << context;
  for (size_t i = 0; i < sharded.size(); ++i) {
    EXPECT_EQ(sharded[i].doc, unsharded[i].doc)
        << context << " rank " << i;
    EXPECT_EQ(sharded[i].score, unsharded[i].score)
        << context << " rank " << i << " doc " << sharded[i].doc;
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
  auto direct = ShardedIndex::Create(I3Factory(), {.num_shards = 4});
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.ValueOrDie()->Name(), "I3 (sharded x4)");

  auto over_replicas = ShardedIndex::Create(
      [](uint32_t) -> std::unique_ptr<SpatialKeywordIndex> {
        return ReplicaSet::Create(
                   [](uint32_t) {
                     return std::make_unique<I3Index>(SmallI3Options());
                   },
                   ReplicaOps{}, {.replication_factor = 2})
            .MoveValue();
      },
      {.num_shards = 2});
  ASSERT_TRUE(over_replicas.ok());
  EXPECT_EQ(over_replicas.ValueOrDie()->Name(),
            "I3 (replicated x2, sharded x2)");
}

TEST(ShardedIndexTest, CreateValidatesArguments) {
  auto zero = ShardedIndex::Create(I3Factory(), {.num_shards = 0});
  EXPECT_FALSE(zero.ok());
  EXPECT_TRUE(zero.status().IsInvalidArgument());

  auto null_factory = ShardedIndex::Create(
      [](uint32_t i) -> std::unique_ptr<SpatialKeywordIndex> {
        if (i == 2) return nullptr;
        return std::make_unique<I3Index>(SmallI3Options());
      },
      {.num_shards = 4});
  EXPECT_FALSE(null_factory.ok());
  EXPECT_TRUE(null_factory.status().IsInvalidArgument());
}

TEST(ShardedIndexTest, RoutesDocumentsAndAggregatesCounts) {
  CorpusOptions copt;
  copt.num_docs = 400;
  copt.vocab_size = 30;
  const auto docs = MakeCorpus(copt, 91);

  auto res = ShardedIndex::Create(I3Factory(), {.num_shards = 4});
  ASSERT_TRUE(res.ok());
  auto& index = *res.ValueOrDie();
  for (const auto& d : docs) ASSERT_TRUE(index.Insert(d).ok());

  EXPECT_EQ(index.DocumentCount(), docs.size());
  uint64_t by_shard = 0;
  for (uint32_t s = 0; s < index.num_shards(); ++s) {
    const uint64_t n = index.shard(s)->DocumentCount();
    // The mixer should spread sequential ids roughly evenly; any empty
    // shard on 400 docs over 4 shards means the hash is broken.
    EXPECT_GT(n, 0u) << "shard " << s;
    by_shard += n;
  }
  EXPECT_EQ(by_shard, docs.size());

  // A document is findable in exactly the shard ShardOf names.
  for (size_t i = 0; i < docs.size(); i += 37) {
    Query q;
    q.location = docs[i].location;
    q.terms = {docs[i].terms[0].term};
    q.k = docs.size();
    q.semantics = Semantics::kAnd;
    auto hit = index.shard(index.ShardOf(docs[i].id))->Search(q, 0.5);
    ASSERT_TRUE(hit.ok());
    const auto& results = hit.ValueOrDie();
    EXPECT_TRUE(std::any_of(results.begin(), results.end(),
                            [&](const ScoredDoc& r) {
                              return r.doc == docs[i].id;
                            }))
        << "doc " << docs[i].id;
  }

  for (const auto& d : docs) ASSERT_TRUE(index.Delete(d).ok());
  EXPECT_EQ(index.DocumentCount(), 0u);
}

TEST(ShardedIndexTest, SizeInfoMergesComponentsByName) {
  CorpusOptions copt;
  copt.num_docs = 300;
  const auto docs = MakeCorpus(copt, 17);

  auto res = ShardedIndex::Create(I3Factory(), {.num_shards = 3});
  ASSERT_TRUE(res.ok());
  auto& index = *res.ValueOrDie();
  for (const auto& d : docs) ASSERT_TRUE(index.Insert(d).ok());

  const IndexSizeInfo merged = index.SizeInfo();
  // One row per I3 component, not one per shard x component.
  ASSERT_EQ(merged.components.size(), 3u) << merged.ToString();
  uint64_t expected_total = 0;
  for (uint32_t s = 0; s < index.num_shards(); ++s) {
    expected_total += index.shard(s)->SizeInfo().TotalBytes();
  }
  EXPECT_EQ(merged.TotalBytes(), expected_total);
  EXPECT_NE(merged.ToString().find("head file"), std::string::npos);
}

TEST(ShardedIndexTest, IoStatsMergeOnRead) {
  CorpusOptions copt;
  copt.num_docs = 500;
  const auto docs = MakeCorpus(copt, 23);
  const auto queries = MakeQueries(copt, 10, 2, 10, Semantics::kOr, 24);

  auto res = ShardedIndex::Create(I3Factory(), {.num_shards = 4});
  ASSERT_TRUE(res.ok());
  auto& index = *res.ValueOrDie();
  for (const auto& d : docs) ASSERT_TRUE(index.Insert(d).ok());

  index.ResetIoStats();
  EXPECT_EQ(index.io_stats().Total(), 0u);
  for (const Query& q : queries) ASSERT_TRUE(index.Search(q, 0.5).ok());

  uint64_t per_shard_reads = 0;
  for (uint32_t s = 0; s < index.num_shards(); ++s) {
    per_shard_reads += index.shard(s)->io_stats().TotalReads();
  }
  const IoStats merged = index.io_stats();  // copy = durable snapshot
  EXPECT_GT(merged.TotalReads(), 0u);
  EXPECT_EQ(merged.TotalReads(), per_shard_reads);
}

// --- the randomized differential suite (merge-contract satellite) ---

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

    unsharded_ = std::make_unique<I3Index>(SmallI3Options());
    auto seq = ShardedIndex::Create(I3Factory(), {.num_shards = 5});
    ASSERT_TRUE(seq.ok());
    sharded_ = seq.MoveValue();
    auto one = ShardedIndex::Create(I3Factory(), {.num_shards = 1});
    ASSERT_TRUE(one.ok());
    one_shard_ = one.MoveValue();

    for (const auto& d : docs_) {
      ASSERT_TRUE(unsharded_->Insert(d).ok());
      ASSERT_TRUE(sharded_->Insert(d).ok());
      ASSERT_TRUE(one_shard_->Insert(d).ok());
    }
  }

  /// Runs every case workload against all three indexes and compares.
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
        auto expected = unsharded_->Search(queries[qi], c.alpha);
        auto got_five = sharded_->Search(queries[qi], c.alpha);
        auto got_one = one_shard_->Search(queries[qi], c.alpha);
        ASSERT_TRUE(expected.ok());
        ASSERT_TRUE(got_five.ok());
        ASSERT_TRUE(got_one.ok());
        const std::string ctx =
            phase + " " + CaseName(c) + " query " + std::to_string(qi);
        ExpectIdenticalResults(got_five.ValueOrDie(), expected.ValueOrDie(),
                               ctx + " (5 shards)");
        ExpectIdenticalResults(got_one.ValueOrDie(), expected.ValueOrDie(),
                               ctx + " (1 shard)");
      }
    }
  }

  CorpusOptions copt_;
  std::vector<SpatialDocument> docs_;
  std::unique_ptr<I3Index> unsharded_;
  std::unique_ptr<ShardedIndex> sharded_;
  std::unique_ptr<ShardedIndex> one_shard_;
};

TEST_F(ShardedDifferentialTest, IdenticalOnStaticCorpus) {
  RunDifferential("static");
}

TEST_F(ShardedDifferentialTest, IdenticalAfterDeletesAndUpdates) {
  // Delete every 3rd document; update every 7th survivor in place.
  for (size_t i = 0; i < docs_.size(); i += 3) {
    ASSERT_TRUE(unsharded_->Delete(docs_[i]).ok());
    ASSERT_TRUE(sharded_->Delete(docs_[i]).ok());
    ASSERT_TRUE(one_shard_->Delete(docs_[i]).ok());
  }
  for (size_t i = 0; i < docs_.size(); ++i) {
    if (i % 3 == 0 || i % 7 != 0) continue;
    const SpatialDocument updated = Shifted(docs_[i]);
    ASSERT_TRUE(unsharded_->Update(docs_[i], updated).ok());
    ASSERT_TRUE(sharded_->Update(docs_[i], updated).ok());
    ASSERT_TRUE(one_shard_->Update(docs_[i], updated).ok());
  }
  ASSERT_EQ(sharded_->DocumentCount(), unsharded_->DocumentCount());
  RunDifferential("after-maintenance");
}

TEST_F(ShardedDifferentialTest, ErrorsMatchUnsharded) {
  Query empty;
  empty.location = {50, 50};
  empty.k = 10;
  auto expected = unsharded_->Search(empty, 0.5);
  auto got = sharded_->Search(empty, 0.5);
  auto got_one = one_shard_->Search(empty, 0.5);
  ASSERT_FALSE(expected.ok());
  ASSERT_FALSE(got.ok());
  ASSERT_FALSE(got_one.ok());
  EXPECT_EQ(got.status().code(), expected.status().code());
  EXPECT_EQ(got_one.status().code(), expected.status().code());

  // Invalid alpha propagates from every shard count too.
  Query q = MakeQueries(copt_, 1, 2, 5, Semantics::kOr, 9)[0];
  EXPECT_FALSE(sharded_->Search(q, 1.5).ok());
  EXPECT_FALSE(one_shard_->Search(q, -0.1).ok());
}

TEST(ShardedIndexTest, CrossShardUpdateMovesDocument) {
  auto res = ShardedIndex::Create(I3Factory(), {.num_shards = 4});
  ASSERT_TRUE(res.ok());
  auto& index = *res.ValueOrDie();

  // Find two ids hashing to different shards (ids are arbitrary, so scan).
  const DocId a = 1;
  DocId b = 2;
  while (index.ShardOf(b) == index.ShardOf(a)) ++b;

  SpatialDocument old_doc{a, {10, 10}, {{1, 0.5f}}};
  SpatialDocument new_doc{b, {20, 20}, {{1, 0.9f}}};
  ASSERT_TRUE(index.Insert(old_doc).ok());
  ASSERT_TRUE(index.Update(old_doc, new_doc).ok());
  EXPECT_EQ(index.DocumentCount(), 1u);

  Query q;
  q.location = {20, 20};
  q.terms = {1};
  q.k = 10;
  q.semantics = Semantics::kAnd;
  auto hits = index.Search(q, 0.5);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits.ValueOrDie().size(), 1u);
  EXPECT_EQ(hits.ValueOrDie()[0].doc, b);
}

TEST(ShardedIndexTest, IrTreeShardsAreReaderSafe) {
  // The IR-tree keeps all per-query state on the searching thread's stack,
  // so concurrent readers of its shards see exactly the sequential answers.
  IrTreeOptions iropt;
  iropt.space = {0.0, 0.0, 100.0, 100.0};
  iropt.page_size = 256;
  auto res = ShardedIndex::Create(
      [&](uint32_t) { return std::make_unique<IrTreeIndex>(iropt); },
      {.num_shards = 2});
  ASSERT_TRUE(res.ok());
  auto& index = *res.ValueOrDie();
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
  auto res = ShardedIndex::Create(
      [&](uint32_t) { return std::make_unique<I3Index>(opt); },
      {.num_shards = 4});
  ASSERT_TRUE(res.ok());
  auto& index = *res.ValueOrDie();
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

/// Runs `queries` through a fresh 4-shard index at trace sample `rate` and
/// returns what the global tracer published.
std::vector<obs::QueryTrace> SampledTraces(double rate, size_t num_queries) {
  auto res = ShardedIndex::Create(I3Factory(), {.num_shards = 4});
  EXPECT_TRUE(res.ok());
  auto& index = *res.ValueOrDie();
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
  // exactly one trace, holding every shard's stage and the shards' own I3
  // stages, with each fact annotated once.
  const auto traces = SampledTraces(1.0, 10);
  ASSERT_EQ(traces.size(), 10u);
  for (const obs::QueryTrace& t : traces) {
    EXPECT_EQ(t.label, "Sharded.Search");
    for (const char* stage :
         {"shard0", "shard1", "shard2", "shard3", "signature_filter"}) {
      EXPECT_TRUE(std::any_of(
          t.stages.begin(), t.stages.end(),
          [&](const obs::TraceStage& s) { return s.name == stage; }))
          << "missing stage " << stage;
    }
    std::map<std::string, int> seen;
    for (const auto& a : t.annotations) ++seen[a.first];
    for (const auto& [name, n] : seen) EXPECT_EQ(n, 1) << name;
    for (const char* note : {"docs_scored", "shards", "results"}) {
      EXPECT_EQ(seen.count(note), 1u) << note;
    }
  }
}

TEST(ShardedIndexTest, SampleRateCountsRequestsNotShards) {
  EXPECT_EQ(SampledTraces(0.25, 40).size(), 10u);
}

}  // namespace
}  // namespace i3
