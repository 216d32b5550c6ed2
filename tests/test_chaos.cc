// Chaos tests of the full fault-tolerant serving stack: a ShardedIndex of
// checksummed, fault-injected I3 shards under probabilistic fault profiles,
// concurrent readers, hard shard failures, and per-query deadlines.
//
// The contract under chaos: every query either succeeds (complete or
// degraded partial top-k), or returns a clean Status -- never a crash, a
// hang, or silently wrong results. After Heal() the index must answer
// byte-identically to a no-fault baseline (injected damage is read-side
// only). Seed count is 3 by default; CI's chaos job raises it via the
// I3_CHAOS_SEEDS environment variable.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "i3/i3_index.h"
#include "model/sharded_index.h"
#include "storage/fault_injection.h"
#include "test_util.h"

namespace i3 {
namespace {

using testutil::CorpusOptions;
using testutil::MakeCorpus;
using testutil::MakeQueries;

uint64_t ChaosSeeds() {
  const char* env = std::getenv("I3_CHAOS_SEEDS");
  if (env == nullptr) return 3;
  const uint64_t n = std::strtoull(env, nullptr, 10);
  return n > 0 ? n : 3;
}

struct ChaosRig {
  static constexpr uint32_t kShards = 4;
  /// Per-shard physical backings, owned by the shard indexes.
  std::vector<FaultInjectionPageFile*> injectors;
  std::unique_ptr<ShardedIndex> index;

  void HealAll() {
    for (auto* f : injectors) f->Heal();
  }
  void ArmAll(const FaultProfile& base, uint64_t seed) {
    for (size_t s = 0; s < injectors.size(); ++s) {
      FaultProfile p = base;
      p.seed = seed * kShards + s + 1;
      injectors[s]->injector()->SetProfile(p);
    }
  }
};

/// Each shard is an I3 index over Checksummed(FaultInjection(InMemory)) --
/// checksum_pages defaults on, and I3 stacks the checksum layer above the
/// factory's file, so injected corruption is detected, never served.
void InitRig(ChaosRig* rig) {
  rig->injectors.assign(ChaosRig::kShards, nullptr);
  auto res = ShardedIndex::Create(
      [rig](uint32_t shard) {
        I3Options opt;
        opt.space = {0.0, 0.0, 100.0, 100.0};
        opt.page_size = 128;
        opt.signature_bits = 64;
        opt.page_file_factory = [rig, shard](size_t page_size) {
          auto file = std::make_unique<FaultInjectionPageFile>(
              std::make_unique<InMemoryPageFile>(page_size));
          rig->injectors[shard] = file.get();
          return file;
        };
        return std::make_unique<I3Index>(opt);
      },
      {.num_shards = ChaosRig::kShards});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  rig->index = res.MoveValue();
  for (auto* f : rig->injectors) ASSERT_NE(f, nullptr);
}

CorpusOptions ChaosCorpus() {
  CorpusOptions copt;
  copt.num_docs = 300;
  copt.vocab_size = 25;
  return copt;
}

void ExpectIdentical(const std::vector<ScoredDoc>& a,
                     const std::vector<ScoredDoc>& b,
                     const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc, b[i].doc) << context << " rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << context << " rank " << i;
  }
}

TEST(ChaosTest, EveryQuerySucceedsDegradesOrFailsCleanly) {
  ChaosRig rig;
  InitRig(&rig);
  const CorpusOptions copt = ChaosCorpus();
  for (const auto& d : MakeCorpus(copt, 11)) {
    ASSERT_TRUE(rig.index->Insert(d).ok());
  }
  const auto queries =
      MakeQueries(copt, /*num_queries=*/24, /*qn=*/2, /*k=*/10,
                  Semantics::kOr, /*seed=*/12);

  // No-fault baseline, cold cache.
  rig.index->ClearCache();
  std::vector<std::vector<ScoredDoc>> baseline;
  for (const auto& q : queries) {
    auto res = rig.index->Search(q, 0.5);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    baseline.push_back(res.MoveValue());
  }

  FaultProfile profile;
  profile.read_error_rate = 0.05;
  profile.corrupt_rate = 0.05;
  profile.latency_spike_rate = 0.02;
  profile.latency_spike_us = 30;

  const uint64_t seeds = ChaosSeeds();
  for (uint64_t seed = 0; seed < seeds; ++seed) {
    rig.ArmAll(profile, seed);
    rig.index->ClearCache();

    // Concurrent readers under fire: each thread sweeps a slice of the
    // query set. No crash, no hang, every outcome accounted for.
    constexpr int kThreads = 4;
    std::atomic<uint64_t> ok_count{0};
    std::atomic<uint64_t> error_count{0};
    std::atomic<bool> contract_broken{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < queries.size(); i += kThreads) {
          auto res = rig.index->Search(queries[i], 0.5);
          if (res.ok()) {
            ok_count.fetch_add(1);
          } else if (res.status().IsIOError() ||
                     res.status().IsCorruption()) {
            error_count.fetch_add(1);
          } else {
            // Any other failure (or a crash before we get here) breaks the
            // serving contract.
            contract_broken.store(true);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_FALSE(contract_broken.load()) << "seed " << seed;
    EXPECT_EQ(ok_count.load() + error_count.load(), queries.size())
        << "seed " << seed;

    // Healed: byte-identical to the baseline.
    rig.HealAll();
    rig.index->ClearCache();
    for (size_t i = 0; i < queries.size(); ++i) {
      auto res = rig.index->Search(queries[i], 0.5);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      ExpectIdentical(res.ValueOrDie(), baseline[i],
                      "seed " + std::to_string(seed) + " query " +
                          std::to_string(i));
    }
  }
}

TEST(ChaosTest, FailedShardDegradesToPartialTopK) {
  ChaosRig rig;
  InitRig(&rig);
  const CorpusOptions copt = ChaosCorpus();
  const auto docs = MakeCorpus(copt, 21);
  for (const auto& d : docs) ASSERT_TRUE(rig.index->Insert(d).ok());

  // A query whose term has matches on every shard (term 0 is the Zipf
  // head, 300 docs over 4 shards), so the failing shard genuinely loses
  // result candidates.
  Query q;
  q.location = {50, 50};
  q.terms = {0};
  q.k = static_cast<uint32_t>(docs.size());
  q.semantics = Semantics::kOr;
  rig.index->ClearCache();
  QueryStats full_stats;
  q.control.stats = &full_stats;
  auto full = rig.index->Search(q, 0.5);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full.ValueOrDie().size(), 4u);
  EXPECT_FALSE(full_stats.fanout.degraded);
  EXPECT_EQ(rig.index->degraded_queries(), 0u);

  // Hard-fail shard 1 and force device reads: the fan-out isolates the
  // failure and serves the surviving shards' merge, tagged degraded.
  rig.injectors[1]->set_fail_all(true);
  rig.index->ClearCache();
  QueryStats stats;
  q.control.stats = &stats;
  auto partial = rig.index->Search(q, 0.5);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_LT(partial.ValueOrDie().size(), full.ValueOrDie().size());
  EXPECT_GT(partial.ValueOrDie().size(), 0u);
  EXPECT_TRUE(stats.fanout.degraded);
  EXPECT_EQ(stats.fanout.shards, ChaosRig::kShards);
  EXPECT_EQ(stats.fanout.failed_shards, 1u);
  EXPECT_EQ(stats.fanout.failed_shard_mask, uint64_t{1} << 1);
  EXPECT_TRUE(stats.fanout.first_error.IsIOError())
      << stats.fanout.first_error.ToString();
  EXPECT_EQ(rig.index->degraded_queries(), 1u);

  // Every surviving document is from a healthy shard, and matches the
  // full result's score for that document.
  for (const auto& sd : partial.ValueOrDie()) {
    EXPECT_NE(rig.index->ShardOf(sd.doc), 1u) << "doc " << sd.doc;
  }

  rig.injectors[1]->Heal();
  rig.index->ClearCache();
  QueryStats healed_stats;
  q.control.stats = &healed_stats;
  auto healed = rig.index->Search(q, 0.5);
  ASSERT_TRUE(healed.ok());
  ExpectIdentical(healed.ValueOrDie(), full.ValueOrDie(), "healed");
  EXPECT_FALSE(healed_stats.fanout.degraded);
}

TEST(ChaosTest, AllShardsFailingIsAnErrorNotAnEmptyResult) {
  ChaosRig rig;
  InitRig(&rig);
  const CorpusOptions copt = ChaosCorpus();
  for (const auto& d : MakeCorpus(copt, 31)) {
    ASSERT_TRUE(rig.index->Insert(d).ok());
  }
  Query q;
  q.location = {50, 50};
  q.terms = {0};
  q.k = 20;
  q.semantics = Semantics::kOr;
  for (auto* f : rig.injectors) f->set_fail_all(true);
  rig.index->ClearCache();
  auto res = rig.index->Search(q, 0.5);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsIOError()) << res.status().ToString();
  // Total failure is not "degraded" -- there is no partial answer to serve.
  EXPECT_EQ(rig.index->degraded_queries(), 0u);
}

TEST(ChaosTest, ParallelFanOutDegradesToo) {
  // Same shard-failure contract with four callers fanning out at once:
  // each caller's own context reports the degraded answer it got.
  ChaosRig rig;
  InitRig(&rig);
  const CorpusOptions copt = ChaosCorpus();
  for (const auto& d : MakeCorpus(copt, 41)) {
    ASSERT_TRUE(rig.index->Insert(d).ok());
  }
  Query q;
  q.location = {50, 50};
  q.terms = {0};
  q.k = 50;
  q.semantics = Semantics::kOr;
  rig.injectors[2]->set_fail_all(true);
  rig.index->ClearCache();

  constexpr int kThreads = 4;
  std::vector<QueryStats> stats(kThreads);
  bool ok[kThreads] = {};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Query mine = q;
      mine.control.stats = &stats[t];
      ok[t] = rig.index->Search(mine, 0.5).ok();
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(ok[t]) << "caller " << t;
    EXPECT_TRUE(stats[t].fanout.degraded) << "caller " << t;
    EXPECT_EQ(stats[t].fanout.failed_shards, 1u) << "caller " << t;
    EXPECT_EQ(stats[t].fanout.failed_shard_mask, uint64_t{1} << 2)
        << "caller " << t;
  }
  EXPECT_EQ(rig.index->degraded_queries(), static_cast<uint64_t>(kThreads));
}

TEST(ChaosTest, ExpiredDeadlineFailsCleanlyOnI3) {
  I3Options opt;
  opt.space = {0.0, 0.0, 100.0, 100.0};
  opt.page_size = 128;
  opt.signature_bits = 64;
  I3Index index(opt);
  CorpusOptions copt;
  copt.num_docs = 200;
  for (const auto& d : MakeCorpus(copt, 51)) {
    ASSERT_TRUE(index.Insert(d).ok());
  }
  Query q;
  q.location = {50, 50};
  q.terms = {0, 1};
  q.k = 10;
  q.semantics = Semantics::kOr;
  ASSERT_TRUE(index.Search(q, 0.5).ok());

  // A deadline in the distant past: the search must notice before doing
  // real work and fail with DeadlineExceeded, not serve a stale answer.
  q.control.deadline_ns = 1;
  auto res = index.Search(q, 0.5);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsDeadlineExceeded()) << res.status().ToString();

  // An ample deadline changes nothing.
  q.control = QueryControl::AfterMicros(10'000'000);
  auto ample = index.Search(q, 0.5);
  ASSERT_TRUE(ample.ok()) << ample.status().ToString();
}

TEST(ChaosTest, CancellationStopsTheSearch) {
  I3Options opt;
  opt.space = {0.0, 0.0, 100.0, 100.0};
  opt.page_size = 128;
  opt.signature_bits = 64;
  I3Index index(opt);
  CorpusOptions copt;
  copt.num_docs = 200;
  for (const auto& d : MakeCorpus(copt, 61)) {
    ASSERT_TRUE(index.Insert(d).ok());
  }
  Query q;
  q.location = {50, 50};
  q.terms = {0};
  q.k = 10;
  q.semantics = Semantics::kOr;
  std::atomic<bool> cancel{false};
  q.control.cancel = &cancel;
  ASSERT_TRUE(index.Search(q, 0.5).ok());
  cancel.store(true);
  auto res = index.Search(q, 0.5);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsDeadlineExceeded()) << res.status().ToString();
}

TEST(ChaosTest, ExpiredDeadlineOnShardedIndexIsAnError) {
  ChaosRig rig;
  InitRig(&rig);
  const CorpusOptions copt = ChaosCorpus();
  for (const auto& d : MakeCorpus(copt, 71)) {
    ASSERT_TRUE(rig.index->Insert(d).ok());
  }
  Query q;
  q.location = {50, 50};
  q.terms = {0};
  q.k = 10;
  q.semantics = Semantics::kOr;
  // Already expired before the fan-out starts: every shard is skipped, so
  // this is total failure (an error), not a degraded empty success.
  q.control.deadline_ns = 1;
  auto res = rig.index->Search(q, 0.5);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsDeadlineExceeded()) << res.status().ToString();
}

}  // namespace
}  // namespace i3
