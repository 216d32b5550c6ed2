// Differential, concurrency, and chaos tests of the cache hierarchy
// (DESIGN.md §13): striped buffer pool + decoded-cell cache. The single
// property under test at every level: caching may only change *when work
// happens*, never *what a query answers*.
//
//  - cache-on vs cache-off sweeps must be byte-identical (docs, scores,
//    order), cold and warm;
//  - under concurrent insert/delete churn the caches must stay coherent
//    (TSan hunts the races; a final differential against a cache-free
//    oracle over the settled document set hunts stale reads);
//  - a corrupted-then-healed page must never serve a stale decoded cell:
//    quarantine bumps the page epoch, which unkeys every cached decode.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "i3/i3_index.h"
#include "model/replica_set.h"
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

CorpusOptions HierarchyCorpus() {
  CorpusOptions copt;
  copt.num_docs = 600;
  copt.vocab_size = 40;
  return copt;
}

I3Options CachedOptions() {
  I3Options opt;
  opt.space = {0.0, 0.0, 100.0, 100.0};
  opt.page_size = codec::kV2MinPageSize;
  opt.signature_bits = 64;
  // Deliberately tight budgets so eviction, epoch checks, and re-decode
  // all fire inside the test rather than everything staying resident.
  opt.buffer_pool.capacity_pages = 16;
  opt.head_pool_pages = 8;
  opt.cell_cache_bytes = 8u << 10;
  return opt;
}

I3Options UncachedOptions() {
  I3Options opt = CachedOptions();
  opt.buffer_pool.capacity_pages = 0;
  opt.head_pool_pages = 0;
  opt.cell_cache_bytes = 0;
  return opt;
}

std::unique_ptr<I3Index> BuildIndex(const I3Options& opt,
                                    const std::vector<SpatialDocument>& docs) {
  auto index = std::make_unique<I3Index>(opt);
  for (const auto& d : docs) {
    EXPECT_TRUE(index->Insert(d).ok());
  }
  return index;
}

void ExpectIdentical(const std::vector<ScoredDoc>& a,
                     const std::vector<ScoredDoc>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc, b[i].doc) << what << " rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << what << " rank " << i;
  }
}

// The core differential: every (semantics, k, alpha) combination answers
// byte-identically with the hierarchy on and off, and the warm repeat
// (served by the decoded-cell cache) matches the cold pass exactly.
TEST(CacheHierarchyTest, CacheOnOffByteIdenticalSweep) {
  const CorpusOptions copt = HierarchyCorpus();
  const auto docs = MakeCorpus(copt, /*seed=*/501);
  auto cached = BuildIndex(CachedOptions(), docs);
  auto uncached = BuildIndex(UncachedOptions(), docs);

  for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
    for (uint32_t k : {1u, 5u, 20u}) {
      const auto queries = MakeQueries(
          copt, /*num_queries=*/15, /*qn=*/2, k, sem,
          /*seed=*/600 + k + (sem == Semantics::kAnd ? 0 : 50));
      for (double alpha : {0.3, 0.7}) {
        for (const Query& q : queries) {
          auto oracle = uncached->Search(q, alpha);
          ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
          auto cold = cached->Search(q, alpha);
          ASSERT_TRUE(cold.ok()) << cold.status().ToString();
          ExpectIdentical(cold.ValueOrDie(), oracle.ValueOrDie(),
                          "cold vs uncached");
          auto warm = cached->Search(q, alpha);
          ASSERT_TRUE(warm.ok()) << warm.status().ToString();
          ExpectIdentical(warm.ValueOrDie(), oracle.ValueOrDie(),
                          "warm vs uncached");
        }
      }
    }
  }
}

// Concurrent churn over the serving index with tight cache budgets:
// writers insert fresh documents and delete seeded ones while readers
// query nonstop. TSan owns the race hunt; afterwards the settled index
// must agree byte-for-byte with a cache-free oracle built from the final
// document set -- any cached page or decoded cell that outlived its
// epoch shows up as a diff.
TEST(CacheHierarchyTest, ConcurrentChurnStaysCoherent) {
  const CorpusOptions copt = HierarchyCorpus();
  const auto seed_docs = MakeCorpus(copt, /*seed=*/502);

  std::vector<std::unique_ptr<SpatialKeywordIndex>> one;
  one.push_back(std::make_unique<I3Index>(CachedOptions()));
  auto index = std::make_unique<ReplicaSet>(std::move(one));
  for (const auto& d : seed_docs) {
    ASSERT_TRUE(index->Insert(d).ok());
  }

  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr uint32_t kInsertsPerWriter = 150;
  constexpr uint32_t kDeletesPerWriter = 100;

  // Each writer owns a disjoint slice of fresh ids and seed deletions,
  // so the final document set is deterministic.
  std::vector<std::vector<SpatialDocument>> fresh(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    CorpusOptions wopt = copt;
    wopt.num_docs = kInsertsPerWriter;
    wopt.first_id = 10000 + w * kInsertsPerWriter;
    fresh[w] = MakeCorpus(wopt, /*seed=*/510 + w);
  }

  std::atomic<bool> writers_done{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w]() {
      for (uint32_t i = 0; i < kInsertsPerWriter; ++i) {
        ASSERT_TRUE(index->Insert(fresh[w][i]).ok());
        if (i < kDeletesPerWriter) {
          const auto& victim = seed_docs[w * kDeletesPerWriter + i];
          ASSERT_TRUE(index->Delete(victim).ok());
        }
      }
    });
  }
  const auto reader_queries =
      MakeQueries(copt, /*num_queries=*/20, /*qn=*/2, /*k=*/10,
                  Semantics::kOr, /*seed=*/520);
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r]() {
      size_t i = r;
      while (!writers_done.load(std::memory_order_acquire)) {
        auto got =
            index->Search(reader_queries[i % reader_queries.size()], 0.5);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ++i;
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Settled differential against a cache-free single-index oracle over
  // the exact final document set.
  std::vector<SpatialDocument> final_docs(
      seed_docs.begin() + kWriters * kDeletesPerWriter, seed_docs.end());
  for (const auto& batch : fresh) {
    final_docs.insert(final_docs.end(), batch.begin(), batch.end());
  }
  auto oracle = BuildIndex(UncachedOptions(), final_docs);
  for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
    const auto queries = MakeQueries(copt, /*num_queries=*/25, /*qn=*/2,
                                     /*k=*/10, sem, /*seed=*/530);
    for (const Query& q : queries) {
      auto got = index->Search(q, 0.5);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      auto want = oracle->Search(q, 0.5);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_EQ(got.ValueOrDie().size(), want.ValueOrDie().size());
      for (size_t i = 0; i < got.ValueOrDie().size(); ++i) {
        // Compare the ranked score sequence exactly.
        EXPECT_EQ(got.ValueOrDie()[i].score, want.ValueOrDie()[i].score)
            << "rank " << i;
      }
    }
  }
}

// Corruption chaos: warm every cache level, fire page corruption at the
// read path, heal, and -- without any explicit ClearCache -- require the
// post-heal answers byte-identical to the pre-fault baseline. Detection
// quarantines the page and bumps its epoch, so every decoded cell cached
// from the old epoch is unreachable; a stale one surviving would diff
// here.
TEST(CacheHierarchyTest, QuarantinedPageNeverServesStaleCell) {
  const CorpusOptions copt = HierarchyCorpus();
  for (uint64_t seed = 1; seed <= ChaosSeeds(); ++seed) {
    FaultInjectionPageFile* injector = nullptr;
    I3Options opt = CachedOptions();
    opt.page_file_factory = [&injector](size_t page_size) {
      auto file = std::make_unique<FaultInjectionPageFile>(
          std::make_unique<InMemoryPageFile>(page_size));
      injector = file.get();
      return file;
    };
    auto index = std::make_unique<I3Index>(opt);
    ASSERT_NE(injector, nullptr);
    for (const auto& d : MakeCorpus(copt, /*seed=*/700 + seed)) {
      ASSERT_TRUE(index->Insert(d).ok());
    }
    const auto queries = MakeQueries(copt, /*num_queries=*/25, /*qn=*/2,
                                     /*k=*/10, Semantics::kOr,
                                     /*seed=*/710 + seed);

    // Warm pass = baseline; second pass serves from the caches.
    std::vector<std::vector<ScoredDoc>> baseline;
    for (const Query& q : queries) {
      auto got = index->Search(q, 0.5);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      baseline.push_back(got.MoveValue());
    }

    FaultProfile profile;
    profile.corrupt_rate = 0.3;
    profile.read_error_rate = 0.1;
    profile.seed = 40 + seed;
    injector->injector()->SetProfile(profile);
    for (size_t i = 0; i < queries.size(); ++i) {
      auto got = index->Search(queries[i], 0.5);
      // Detected corruption surfaces as a clean error; a success must
      // still be the exact baseline answer (served from intact caches
      // or re-reads) -- corrupt bytes are never silently scored.
      if (got.ok()) {
        ExpectIdentical(got.ValueOrDie(), baseline[i], "under faults");
      }
    }

    injector->Heal();
    for (size_t i = 0; i < queries.size(); ++i) {
      auto got = index->Search(queries[i], 0.5);
      ASSERT_TRUE(got.ok()) << "seed " << seed << ": "
                            << got.status().ToString();
      ExpectIdentical(got.ValueOrDie(), baseline[i], "post-heal");
    }
  }
}

}  // namespace
}  // namespace i3
