// Stress tests of the concurrency layer: N reader + M writer threads over
// the serving wrapper (ShardedIndex) of one I3 index must neither crash nor
// corrupt the structure, results observed mid-flight must be well-formed,
// and the final state must match both a sequential replay and the
// BruteForceIndex oracle.
// Concurrent callers must also each get exactly their own per-request
// context (QueryControl::stats).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "i3/i3_index.h"
#include "model/brute_force.h"
#include "model/sharded_index.h"
#include "test_util.h"

namespace i3 {
namespace {

using testutil::CorpusOptions;
using testutil::MakeCorpus;
using testutil::MakeQueries;

I3Options SmallOptions() {
  I3Options opt;
  opt.space = {0.0, 0.0, 100.0, 100.0};
  opt.page_size = codec::kV2MinPageSize;
  opt.signature_bits = 64;
  return opt;
}

/// The thread-safe serving wrapper of `index`.
ShardedIndex Wrap(std::unique_ptr<SpatialKeywordIndex> index) {
  std::vector<std::unique_ptr<SpatialKeywordIndex>> one;
  one.push_back(std::move(index));
  return ShardedIndex(std::move(one));
}

ShardedIndex OneShardI3() {
  return Wrap(std::make_unique<I3Index>(SmallOptions()));
}

TEST(ConcurrentIndexTest, SingleThreadedBehaviourUnchanged) {
  ShardedIndex index = OneShardI3();
  EXPECT_EQ(index.Name(), "I3");
  SpatialDocument d{1, {10, 10}, {{1, 0.5f}}};
  ASSERT_TRUE(index.Insert(d).ok());
  EXPECT_EQ(index.DocumentCount(), 1u);
  Query q;
  q.location = {10, 10};
  q.terms = {1};
  q.k = 5;
  q.semantics = Semantics::kAnd;
  auto res = index.Search(q, 0.5);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.ValueOrDie().size(), 1u);
  SpatialDocument d2{1, {20, 20}, {{2, 0.7f}}};
  ASSERT_TRUE(index.Update(d, d2).ok());
  ASSERT_TRUE(index.Delete(d2).ok());
  EXPECT_EQ(index.DocumentCount(), 0u);
}

TEST(ConcurrentIndexTest, ConcurrentReadersSeeSequentialResults) {
  // A static index queried from many threads at once: every thread must see
  // exactly the results a sequential run produces (the readers really do
  // run in parallel now, so any shared mutable query state would corrupt
  // them -- this is the regression test for the serialized-readers fix).
  CorpusOptions copt;
  copt.num_docs = 1500;
  copt.vocab_size = 30;
  const auto docs = MakeCorpus(copt, 2024);
  const auto queries = MakeQueries(copt, 40, 2, 10, Semantics::kOr, 2025);

  ShardedIndex index = OneShardI3();
  for (const auto& d : docs) ASSERT_TRUE(index.Insert(d).ok());

  // Sequential ground truth first.
  std::vector<std::vector<ScoredDoc>> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto res = index.Search(queries[i], 0.5);
    ASSERT_TRUE(res.ok());
    expected[i] = res.MoveValue();
  }

  constexpr int kReaders = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        const size_t i = (qi + r) % queries.size();
        auto res = index.Search(queries[i], 0.5);
        if (!res.ok() || !(res.ValueOrDie() == expected[i])) ++mismatches;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// Deterministic writer workload over `index`: writer `w` of `num_writers`
/// inserts its stride of the corpus, deletes every other document of its
/// share, and updates every fourth survivor to `Shifted`-like variant.
/// Mirrored exactly by ReplayWriters below.
SpatialDocument Reweighted(const SpatialDocument& d) {
  SpatialDocument out = d;
  out.location.x = (d.location.x + 31.0 < 100.0) ? d.location.x + 31.0
                                                 : d.location.x - 31.0;
  for (auto& wt : out.terms) wt.weight = wt.weight * 0.5f + 0.1f;
  return out;
}

void RunWriter(SpatialKeywordIndex* index,
               const std::vector<SpatialDocument>& docs, size_t w,
               size_t num_writers, std::atomic<bool>* failed) {
  for (size_t i = w; i < docs.size(); i += num_writers) {
    if (!index->Insert(docs[i]).ok()) *failed = true;
  }
  for (size_t i = w; i < docs.size(); i += 2 * num_writers) {
    if (!index->Delete(docs[i]).ok()) *failed = true;
  }
  for (size_t i = w + num_writers; i < docs.size(); i += 4 * num_writers) {
    if (!index->Update(docs[i], Reweighted(docs[i])).ok()) *failed = true;
  }
}

/// Applies the exact final state of the writer workload to `index`.
void ReplayWriters(SpatialKeywordIndex* index,
                   const std::vector<SpatialDocument>& docs,
                   size_t num_writers) {
  for (size_t i = 0; i < docs.size(); ++i) {
    const size_t w = i % num_writers;
    if ((i - w) % (2 * num_writers) == 0) continue;  // deleted
    if ((i - w) % (4 * num_writers) == num_writers) {
      ASSERT_TRUE(index->Insert(Reweighted(docs[i])).ok());
    } else {
      ASSERT_TRUE(index->Insert(docs[i]).ok());
    }
  }
}

/// N readers + M writers stress over any concurrency wrapper, then validates
/// the final state against a BruteForceIndex oracle fed the replayed
/// workload. `queries` must tolerate running mid-mutation (they only have to
/// return ok + well-formed results while writers run).
void StressAndValidate(SpatialKeywordIndex* index,
                       const CorpusOptions& copt,
                       const std::vector<SpatialDocument>& docs,
                       const std::vector<Query>& queries, int num_writers,
                       int num_readers, int queries_per_reader) {
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> searches{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < num_writers; ++w) {
    threads.emplace_back([&, w] {
      RunWriter(index, docs, w, num_writers, &failed);
    });
  }
  // Readers run a FIXED amount of work rather than spinning until the
  // writers finish: glibc's shared_mutex is reader-preferring, so a
  // spin-until-stopped reader pool can starve the writers indefinitely.
  for (int r = 0; r < num_readers; ++r) {
    threads.emplace_back([&, r] {
      for (int qi = 0; qi < queries_per_reader; ++qi) {
        const Query& q = queries[(r + qi) % queries.size()];
        auto res = index->Search(q, 0.5);
        if (!res.ok()) {
          failed = true;
        } else {
          // Mid-flight results must still be well-formed: ranked by
          // decreasing score, no duplicate documents, at most k.
          const auto& results = res.ValueOrDie();
          if (results.size() > q.k) failed = true;
          for (size_t i = 1; i < results.size(); ++i) {
            if (results[i].score > results[i - 1].score) failed = true;
            if (results[i].doc == results[i - 1].doc) failed = true;
          }
        }
        ++searches;
        std::this_thread::yield();
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(searches.load(),
            static_cast<uint64_t>(num_readers) * queries_per_reader);

  // Final state must match the oracle given the same net workload.
  BruteForceIndex oracle(copt.space);
  ReplayWriters(&oracle, docs, num_writers);
  EXPECT_EQ(index->DocumentCount(), oracle.DocumentCount());
  for (const Query& q : queries) {
    auto a = index->Search(q, 0.5);
    auto b = oracle.Search(q, 0.5);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(testutil::SameScores(a.ValueOrDie(), b.ValueOrDie()));
  }
}

TEST(ConcurrentIndexTest, ParallelWritersAndReaders) {
  CorpusOptions copt;
  copt.num_docs = 2000;
  copt.vocab_size = 25;
  const auto docs = MakeCorpus(copt, 404);
  const auto queries = MakeQueries(copt, 50, 2, 10, Semantics::kOr, 405);

  ShardedIndex index = OneShardI3();
  StressAndValidate(&index, copt, docs, queries, /*num_writers=*/4,
                    /*num_readers=*/4, /*queries_per_reader=*/150);

  // The wrapped I3 must also be structurally sound.
  auto* i3 = static_cast<I3Index*>(index.shard());
  auto check = i3->CheckInvariants();
  ASSERT_TRUE(check.ok()) << check.status().ToString();

  // And agree exactly with an I3 replay (not just the oracle's scores).
  I3Index replay(SmallOptions());
  ReplayWriters(&replay, docs, 4);
  for (const Query& q : queries) {
    auto a = index.Search(q, 0.5);
    auto b = replay.Search(q, 0.5);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(testutil::SameScores(a.ValueOrDie(), b.ValueOrDie()));
  }
}

TEST(ShardedIndexTest, ParallelWritersAndReaders) {
  CorpusOptions copt;
  copt.num_docs = 2000;
  copt.vocab_size = 25;
  const auto docs = MakeCorpus(copt, 606);
  const auto queries = MakeQueries(copt, 50, 2, 10, Semantics::kOr, 607);

  ShardedIndex index = OneShardI3();
  StressAndValidate(&index, copt, docs, queries, /*num_writers=*/4,
                    /*num_readers=*/4, /*queries_per_reader=*/150);

  auto* i3 = static_cast<I3Index*>(index.shard());
  auto check = i3->CheckInvariants();
  ASSERT_TRUE(check.ok()) << check.status().ToString();
}

TEST(ShardedIndexTest, ParallelFanOutUnderWriters) {
  // The same stress on a second seed and a smaller corpus: each reader
  // takes the wrapper's shared lock while writer threads take it
  // exclusively (the TSan-interesting interleaving).
  CorpusOptions copt;
  copt.num_docs = 1200;
  copt.vocab_size = 25;
  const auto docs = MakeCorpus(copt, 808);
  const auto queries = MakeQueries(copt, 40, 2, 10, Semantics::kOr, 809);

  ShardedIndex index = OneShardI3();
  StressAndValidate(&index, copt, docs, queries, /*num_writers=*/3,
                    /*num_readers=*/3, /*queries_per_reader=*/80);
}

/// Forwards to an index but fails every query asking for kPoisonTerm: an
/// index failure that only the caller issuing such a query runs into.
class PoisonTermIndex final : public SpatialKeywordIndex {
 public:
  static constexpr TermId kPoisonTerm = 999;

  explicit PoisonTermIndex(std::unique_ptr<SpatialKeywordIndex> base)
      : base_(std::move(base)) {}
  std::string Name() const override { return base_->Name(); }
  Status Insert(const SpatialDocument& doc) override {
    return base_->Insert(doc);
  }
  Status Delete(const SpatialDocument& doc) override {
    return base_->Delete(doc);
  }
  Result<std::vector<ScoredDoc>> Search(const Query& q,
                                        double alpha) override {
    for (TermId t : q.terms) {
      if (t == kPoisonTerm) return Status::IOError("poisoned index");
    }
    return base_->Search(q, alpha);
  }
  Rect space() const override { return base_->space(); }
  uint64_t DocumentCount() const override { return base_->DocumentCount(); }
  IndexSizeInfo SizeInfo() const override { return base_->SizeInfo(); }
  IoStats io_stats() const override { return base_->io_stats(); }
  void ResetIoStats() override { base_->ResetIoStats(); }

 private:
  std::unique_ptr<SpatialKeywordIndex> base_;
};

bool SameContext(const QueryStats& a, const QueryStats& b) {
  if (a.work.count != b.work.count) return false;
  for (size_t i = 0; i < a.work.count; ++i) {
    if (std::strcmp(a.work.names[i], b.work.names[i]) != 0 ||
        a.work.values[i] != b.work.values[i]) {
      return false;
    }
  }
  return a.served_replica == b.served_replica &&
         a.failed_over == b.failed_over;
}

TEST(ShardedIndexTest, ConcurrentCallersKeepTheirOwnContexts) {
  // Four callers search one index at once, each with its own QueryStats.
  // Every context must hold exactly what the same query reports when run
  // alone, and the failure that only query 0 runs into must error only
  // its own caller.
  CorpusOptions copt;
  copt.num_docs = 1500;
  copt.vocab_size = 30;
  const auto docs = MakeCorpus(copt, 1313);
  auto queries = MakeQueries(copt, 24, 2, 10, Semantics::kOr, 1314);
  queries[0].terms.push_back(PoisonTermIndex::kPoisonTerm);

  ShardedIndex index = Wrap(std::make_unique<PoisonTermIndex>(
      std::make_unique<I3Index>(SmallOptions())));
  for (const auto& d : docs) ASSERT_TRUE(index.Insert(d).ok());

  std::vector<QueryStats> solo(queries.size());
  std::vector<std::vector<ScoredDoc>> solo_results(queries.size());
  for (size_t i = 1; i < queries.size(); ++i) {
    Query q = queries[i];
    q.control.stats = &solo[i];
    auto r = index.Search(q, 0.5);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    solo_results[i] = r.MoveValue();
    EXPECT_GT(solo[i].work.Get("candidates_popped"), 0u) << "query " << i;
  }
  {
    Query q = queries[0];
    q.control.stats = &solo[0];
    auto r = index.Search(q, 0.5);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsIOError()) << r.status().ToString();
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::atomic<int> errors{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t j = 0; j < queries.size(); ++j) {
          const size_t i = (j + t * 7) % queries.size();
          QueryStats mine;
          Query q = queries[i];
          q.control.stats = &mine;
          auto r = index.Search(q, 0.5);
          if (i == 0) {
            if (r.status().IsIOError()) ++errors;
            continue;
          }
          if (!r.ok() || !(r.ValueOrDie() == solo_results[i]) ||
              !SameContext(mine, solo[i])) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Query 0 ran once per caller per round, and each time only it failed.
  EXPECT_EQ(errors.load(), kThreads * kRounds);
}

}  // namespace
}  // namespace i3
