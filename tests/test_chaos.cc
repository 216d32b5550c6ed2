// Chaos tests of the full fault-tolerant serving stack: the serving
// wrapper (ShardedIndex) over a checksummed, fault-injected I3 index under
// probabilistic fault profiles, concurrent readers, a hard storage
// failure, and per-query deadlines.
//
// The contract under chaos: every query either succeeds with the complete
// top-k, or returns a clean Status -- never a crash, a hang, or silently
// wrong results. After Heal() the index must answer
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
  /// The index's physical backing, owned by the index.
  FaultInjectionPageFile* injector = nullptr;
  std::unique_ptr<ShardedIndex> index;

  void Arm(const FaultProfile& base, uint64_t seed) {
    FaultProfile p = base;
    p.seed = seed + 1;
    injector->injector()->SetProfile(p);
  }
};

/// The index is I3 over Checksummed(FaultInjection(InMemory)) --
/// checksum_pages defaults on, and I3 stacks the checksum layer above the
/// factory's file, so injected corruption is detected, never served.
void InitRig(ChaosRig* rig) {
  I3Options opt;
  opt.space = {0.0, 0.0, 100.0, 100.0};
  opt.page_size = codec::kV2MinPageSize;
  opt.signature_bits = 64;
  opt.page_file_factory = [rig](size_t page_size) {
    auto file = std::make_unique<FaultInjectionPageFile>(
        std::make_unique<InMemoryPageFile>(page_size));
    rig->injector = file.get();
    return file;
  };
  std::vector<std::unique_ptr<SpatialKeywordIndex>> one;
  one.push_back(std::make_unique<I3Index>(opt));
  rig->index = std::make_unique<ShardedIndex>(std::move(one));
  ASSERT_NE(rig->injector, nullptr);
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
    rig.Arm(profile, seed);
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
    rig.injector->Heal();
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
  rig.injector->set_fail_all(true);
  rig.index->ClearCache();
  auto res = rig.index->Search(q, 0.5);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsIOError()) << res.status().ToString();

  // Four callers at once: each gets the error, none an empty success.
  constexpr int kThreads = 4;
  std::vector<Status> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { got[t] = rig.index->Search(q, 0.5).status(); });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(got[t].IsIOError()) << got[t].ToString();
  }

  // Healed: the complete answer returns.
  rig.injector->Heal();
  rig.index->ClearCache();
  auto healed = rig.index->Search(q, 0.5);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_FALSE(healed.ValueOrDie().empty());
}

TEST(ChaosTest, ExpiredDeadlineFailsCleanlyOnI3) {
  I3Options opt;
  opt.space = {0.0, 0.0, 100.0, 100.0};
  opt.page_size = codec::kV2MinPageSize;
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
  opt.page_size = codec::kV2MinPageSize;
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
  // Already expired before the search starts: the wrapper fails it before
  // calling the index (an error, not an empty success).
  q.control.deadline_ns = 1;
  auto res = rig.index->Search(q, 0.5);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsDeadlineExceeded()) << res.status().ToString();
}

}  // namespace
}  // namespace i3
