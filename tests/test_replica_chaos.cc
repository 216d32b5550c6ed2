// Chaos tests for replicated serving (DESIGN.md §15): the serving wrapper
// (ShardedIndex) over a ReplicaSet, driven through kill/recover cycles,
// corrupt snapshot sources, and concurrent scrub + query + rewrite races.
//
// The replicated contract sharpens the plain chaos contract: with R >= 2
// and any single replica down, queries do NOT fail -- failover serves
// the complete answer byte-identically (doc ids and score bits) to
// the no-fault baseline, a killed replica rejoins online via snapshot +
// catch-up while serving continues, and scrub heals at-rest damage from a
// peer before queries ever see an error. Seed count follows
// I3_CHAOS_SEEDS like test_chaos.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "i3/i3_index.h"
#include "i3/replica_ops.h"
#include "model/replica_set.h"
#include "model/sharded_index.h"
#include "obs/trace.h"
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

void ExpectIdentical(const std::vector<ScoredDoc>& a,
                     const std::vector<ScoredDoc>& b,
                     const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc, b[i].doc) << context << " rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << context << " rank " << i;
  }
}

I3Options BaseOptions() {
  I3Options opt;
  opt.space = {0.0, 0.0, 100.0, 100.0};
  opt.page_size = codec::kV2MinPageSize;
  opt.signature_bits = 64;
  return opt;
}

// ---------------------------------------------------------------------------
// Serving rig: the wrapped index is a ReplicaSet of I3 replicas, each
// replica on its own Checksummed(FaultInjection(InMemory)) stack.

struct ReplicatedServingRig {
  static constexpr uint32_t kReplicas = 2;
  /// Per replica; re-planted by the factory when recovery re-homes.
  std::vector<FaultInjectionPageFile*> injectors;
  std::unique_ptr<ShardedIndex> index;

  I3Options OptionsFor(uint32_t r) {
    I3Options opt = BaseOptions();
    opt.page_file_factory = [this, r](size_t page_size) {
      auto file = std::make_unique<FaultInjectionPageFile>(
          std::make_unique<InMemoryPageFile>(page_size));
      injectors[r] = file.get();
      return file;
    };
    return opt;
  }
};

void InitServingRig(ReplicatedServingRig* rig) {
  rig->injectors.assign(ReplicatedServingRig::kReplicas, nullptr);
  ReplicaSetOptions ropt;
  ropt.replication_factor = ReplicatedServingRig::kReplicas;
  auto set = ReplicaSet::Create(
      [rig](uint32_t r) {
        return std::make_unique<I3Index>(rig->OptionsFor(r));
      },
      MakeI3ReplicaOps([rig](uint32_t r) { return rig->OptionsFor(r); }),
      ropt);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  std::vector<std::unique_ptr<SpatialKeywordIndex>> one;
  one.push_back(set.MoveValue());
  rig->index = std::make_unique<ShardedIndex>(std::move(one));
  ASSERT_NE(rig->index->replica_set(), nullptr);
  for (auto* f : rig->injectors) ASSERT_NE(f, nullptr);
}

CorpusOptions ChaosCorpus() {
  CorpusOptions copt;
  copt.num_docs = 300;
  copt.vocab_size = 25;
  return copt;
}

TEST(ReplicaChaosTest, KilledPrimariesUnderLoadYieldZeroDegraded) {
  ReplicatedServingRig rig;
  InitServingRig(&rig);
  const CorpusOptions copt = ChaosCorpus();
  for (const auto& d : MakeCorpus(copt, 11)) {
    ASSERT_TRUE(rig.index->Insert(d).ok());
  }

  const uint64_t seeds = ChaosSeeds();
  for (uint64_t seed = 0; seed < seeds; ++seed) {
    const auto queries = MakeQueries(copt, /*num_queries=*/24, /*qn=*/2,
                                     /*k=*/10, Semantics::kOr, 100 + seed);
    rig.index->ClearCache();
    std::vector<std::vector<ScoredDoc>> baseline;
    for (const auto& q : queries) {
      auto res = rig.index->Search(q, 0.5);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      baseline.push_back(res.MoveValue());
    }

    // Kill the primary. With R=2 this is the worst single-replica
    // failure, and the serving contract is byte identity, not an error.
    ASSERT_TRUE(rig.index->replica_set()->KillReplica(0).ok());
    rig.index->ClearCache();

    constexpr int kThreads = 4;
    std::atomic<bool> mismatch{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < queries.size(); i += kThreads) {
          auto res = rig.index->Search(queries[i], 0.5);
          if (!res.ok() || res.ValueOrDie().size() != baseline[i].size()) {
            mismatch.store(true);
            continue;
          }
          for (size_t r = 0; r < baseline[i].size(); ++r) {
            if (res.ValueOrDie()[r].doc != baseline[i][r].doc ||
                res.ValueOrDie()[r].score != baseline[i][r].score) {
              mismatch.store(true);
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_FALSE(mismatch.load()) << "seed " << seed;

    // The failovers actually happened (they were just invisible).
    EXPECT_GT(rig.index->replica_set()->GetStatus().failovers, 0u)
        << "seed " << seed;

    // Stats and the trace attribute the serving replica: a fresh
    // single-threaded search shows replica 1 answered.
    rig.index->ClearCache();
    QueryStats stats;
    obs::QueryTrace trace;
    Query q = queries[0];
    q.control.stats = &stats;
    q.control.trace = &trace;
    ASSERT_TRUE(rig.index->Search(q, 0.5).ok());
    EXPECT_TRUE(stats.failed_over);
    EXPECT_EQ(stats.served_replica, 1u);
    EXPECT_TRUE(std::any_of(
        trace.stages.begin(), trace.stages.end(),
        [](const obs::TraceStage& st) { return st.name == "search.r1"; }));

    // Recovery while serving continues: readers keep sweeping queries as
    // the killed primary rejoins via snapshot + catch-up.
    std::atomic<bool> stop{false};
    std::atomic<bool> broken{false};
    std::thread sweeper([&] {
      size_t i = 0;
      while (!stop.load()) {
        auto res = rig.index->Search(queries[i % queries.size()], 0.5);
        if (!res.ok()) broken.store(true);
        ++i;
      }
    });
    EXPECT_TRUE(rig.index->replica_set()->RecoverReplica(0).ok())
        << "seed " << seed;
    stop.store(true);
    sweeper.join();
    EXPECT_FALSE(broken.load()) << "seed " << seed;

    // Fully healed: primaries serve again, answers unchanged.
    rig.index->ClearCache();
    for (size_t i = 0; i < queries.size(); ++i) {
      QueryStats recovered;
      Query rq = queries[i];
      rq.control.stats = &recovered;
      auto res = rig.index->Search(rq, 0.5);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      ExpectIdentical(res.ValueOrDie(), baseline[i],
                      "seed " + std::to_string(seed) + " recovered query " +
                          std::to_string(i));
      EXPECT_FALSE(recovered.failed_over);
    }
  }
}

// ---------------------------------------------------------------------------
// Bare ReplicaSet rigs (no serving wrapper).

struct ReplicaRig {
  std::vector<FaultInjectionPageFile*> injectors;
  std::vector<InMemoryPageFile*> raw;
  std::unique_ptr<ReplicaSet> set;

  I3Options OptionsFor(uint32_t r) {
    I3Options opt = BaseOptions();
    opt.page_file_factory = [this, r](size_t page_size) {
      auto inner = std::make_unique<InMemoryPageFile>(page_size);
      raw[r] = inner.get();
      auto file =
          std::make_unique<FaultInjectionPageFile>(std::move(inner));
      injectors[r] = file.get();
      return file;
    };
    return opt;
  }
};

void InitReplicaRig(ReplicaRig* rig, ReplicaSetOptions opt) {
  rig->injectors.assign(opt.replication_factor, nullptr);
  rig->raw.assign(opt.replication_factor, nullptr);
  auto res = ReplicaSet::Create(
      [rig](uint32_t r) {
        return std::make_unique<I3Index>(rig->OptionsFor(r));
      },
      MakeI3ReplicaOps([rig](uint32_t r) { return rig->OptionsFor(r); }),
      opt);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  rig->set = res.MoveValue();
}

TEST(ReplicaChaosTest, CorruptSnapshotSourceFailsCleanlyAndRetries) {
  // R=3: replica 2 dies; the first snapshot source (replica 0) returns
  // corrupt pages mid-snapshot. The attempt must fail cleanly -- corrupt
  // bytes are never installed -- demote the rotten source, and retry from
  // replica 1, which succeeds.
  ReplicaRig rig;
  ReplicaSetOptions opt;
  opt.replication_factor = 3;
  InitReplicaRig(&rig, opt);
  const CorpusOptions copt = ChaosCorpus();
  for (const auto& d : MakeCorpus(copt, 21)) {
    ASSERT_TRUE(rig.set->Insert(d).ok());
  }
  Query q;
  q.location = {50, 50};
  q.terms = {0};
  q.k = 40;
  q.semantics = Semantics::kOr;
  auto baseline = rig.set->Search(q, 0.5);
  ASSERT_TRUE(baseline.ok());

  ASSERT_TRUE(rig.set->KillReplica(2).ok());
  FaultProfile rot;
  rot.corrupt_rate = 1.0;
  rot.seed = 7;
  rig.set->ClearCache();
  rig.injectors[0]->injector()->SetProfile(rot);

  ASSERT_TRUE(rig.set->RecoverReplica(2).ok());
  EXPECT_EQ(rig.set->replica_state(2), ReplicaState::kHealthy);
  // The rotten source was demoted, not used.
  EXPECT_EQ(rig.set->replica_state(0), ReplicaState::kFailed);
  EXPECT_EQ(rig.set->GetStatus().recoveries, 1u);

  // The rejoined replica answers byte-identically.
  auto rejoined = rig.set->replica(2)->Search(q, 0.5);
  ASSERT_TRUE(rejoined.ok()) << rejoined.status().ToString();
  ExpectIdentical(rejoined.ValueOrDie(), baseline.ValueOrDie(), "rejoined");

  // Heal the device and bring replica 0 back too.
  rig.injectors[0]->Heal();
  ASSERT_TRUE(rig.set->RecoverAll().ok());
  for (uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(rig.set->replica_state(r), ReplicaState::kHealthy) << r;
  }
}

TEST(ReplicaChaosTest, ConcurrentScrubQueryRewriteAndRecoveryIsClean) {
  // The TSan target: scrub ticks, failover queries, page rewrites, and
  // kill/recover cycles all racing on the same set. The contract is no
  // crash, no lock-order inversion, and every outcome a clean Status.
  ReplicaRig rig;
  ReplicaSetOptions opt;
  opt.replication_factor = 2;
  opt.scrub_pages_per_tick = 16;
  InitReplicaRig(&rig, opt);
  const CorpusOptions copt = ChaosCorpus();
  auto docs = MakeCorpus(copt, 31);
  for (const auto& d : docs) ASSERT_TRUE(rig.set->Insert(d).ok());
  const auto queries =
      MakeQueries(copt, /*num_queries=*/16, /*qn=*/2, /*k=*/10,
                  Semantics::kOr, 32);

  std::atomic<bool> stop{false};
  std::atomic<bool> broken{false};

  std::thread scrubber([&] {
    while (!stop.load()) {
      Status st = rig.set->ScrubTick();
      // Heal can transiently lack a peer while recovery has one replica
      // out; that surfaces as clean ResourceExhausted, nothing else.
      if (!st.ok() && st.code() != StatusCode::kResourceExhausted) {
        broken.store(true);
      }
    }
  });
  std::thread reader([&] {
    size_t i = 0;
    while (!stop.load()) {
      auto res = rig.set->Search(queries[i % queries.size()], 0.5);
      // During a kill/recover window one replica is out; the query must
      // still be served by the survivor (never an error: the recovery
      // machinery may not take the last healthy replica down).
      if (!res.ok()) broken.store(true);
      ++i;
    }
  });
  std::thread rewriter([&] {
    size_t i = 0;
    while (!stop.load()) {
      SpatialDocument& cur = docs[i % docs.size()];
      SpatialDocument moved = cur;
      moved.location.x = cur.location.x < 50.0 ? cur.location.x + 1.0
                                               : cur.location.x - 1.0;
      Status st = rig.set->Update(cur, moved);
      if (st.ok()) {
        cur = moved;
      } else if (!st.IsNotFound() &&
                 st.code() != StatusCode::kAlreadyExists) {
        broken.store(true);
      }
      ++i;
    }
  });

  for (int cycle = 0; cycle < 4; ++cycle) {
    const uint32_t victim = (cycle % 2 == 0) ? 1u : 0u;
    Status kill = rig.set->KillReplica(victim);
    if (!kill.ok()) continue;  // other replica transiently unhealthy
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Status rec = rig.set->RecoverReplica(victim);
    EXPECT_TRUE(rec.ok()) << "cycle " << cycle << ": " << rec.ToString();
  }

  stop.store(true);
  scrubber.join();
  reader.join();
  rewriter.join();
  EXPECT_FALSE(broken.load());

  // Settled state: everyone healthy and byte-identical across replicas.
  ASSERT_TRUE(rig.set->RecoverAll().ok());
  for (const auto& q : queries) {
    auto a = rig.set->replica(0)->Search(q, 0.5);
    auto b = rig.set->replica(1)->Search(q, 0.5);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectIdentical(a.ValueOrDie(), b.ValueOrDie(), "settled");
  }
}

TEST(ReplicaChaosTest, QuarantineHealRaceConvergesToHealed) {
  // At-rest corruption planted beneath replica 1's checksum layer, then
  // scrub and queries race on the same pages: queries that trip on the
  // damaged page fail over to replica 0 (never an error, never a wrong
  // answer) while the scrubber heals it from the peer. The race must
  // converge: page verified, quarantine empty, byte-identity restored.
  ReplicaRig rig;
  ReplicaSetOptions opt;
  opt.replication_factor = 2;
  opt.scrub_pages_per_tick = 8;
  InitReplicaRig(&rig, opt);
  const CorpusOptions copt = ChaosCorpus();
  for (const auto& d : MakeCorpus(copt, 41)) {
    ASSERT_TRUE(rig.set->Insert(d).ok());
  }
  const auto queries =
      MakeQueries(copt, /*num_queries=*/16, /*qn=*/2, /*k=*/10,
                  Semantics::kOr, 42);
  std::vector<std::vector<ScoredDoc>> baseline;
  for (const auto& q : queries) {
    auto res = rig.set->Search(q, 0.5);
    ASSERT_TRUE(res.ok());
    baseline.push_back(res.MoveValue());
  }

  auto* damaged = dynamic_cast<I3Index*>(rig.set->replica(1));
  ASSERT_NE(damaged, nullptr);
  const uint64_t pages = damaged->DataPageCount();
  ASSERT_GT(pages, 4u);
  // Plant damage while quiescent (the raw file is not itself a
  // synchronized device); the *handling* of the damage is what races.
  std::vector<uint8_t> garbage(rig.raw[1]->page_size(), 0xEE);
  for (uint64_t page : {pages / 4, pages / 2}) {
    ASSERT_TRUE(
        rig.raw[1]->WritePage(page, garbage.data(), IoCategory::kOther).ok());
  }
  damaged->ClearCache();

  std::atomic<bool> stop{false};
  std::atomic<bool> broken{false};
  std::thread scrubber([&] {
    while (!stop.load()) {
      if (!rig.set->ScrubTick().ok()) broken.store(true);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      size_t i = t;
      while (!stop.load()) {
        auto res = rig.set->Search(queries[i % queries.size()], 0.5);
        if (!res.ok()) broken.store(true);
        i += 2;
      }
    });
  }
  // Let the race run until both pages verify (bounded wait).
  bool healed = false;
  for (int spin = 0; spin < 2000 && !healed; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    healed = rig.set->GetStatus().scrub_pages_healed >= 2;
  }
  stop.store(true);
  scrubber.join();
  for (auto& th : readers) th.join();
  EXPECT_FALSE(broken.load());
  EXPECT_TRUE(healed);

  for (uint64_t page : {pages / 4, pages / 2}) {
    EXPECT_TRUE(damaged->VerifyDataPage(page).ok()) << "page " << page;
  }
  EXPECT_EQ(rig.set->GetStatus().replicas[1].quarantined_pages, 0u);
  rig.set->ClearCache();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto a = rig.set->replica(1)->Search(queries[i], 0.5);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ExpectIdentical(a.ValueOrDie(), baseline[i],
                    "healed query " + std::to_string(i));
  }
}

TEST(ReplicaChaosTest, MaintenanceThreadAutoRecoversAKilledReplica) {
  ReplicaRig rig;
  ReplicaSetOptions opt;
  opt.replication_factor = 2;
  opt.maintenance_interval_ms = 5;
  InitReplicaRig(&rig, opt);
  for (const auto& d : MakeCorpus(ChaosCorpus(), 51)) {
    ASSERT_TRUE(rig.set->Insert(d).ok());
  }
  ASSERT_TRUE(rig.set->KillReplica(1).ok());
  bool recovered = false;
  for (int spin = 0; spin < 2000 && !recovered; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    recovered = rig.set->replica_state(1) == ReplicaState::kHealthy;
  }
  EXPECT_TRUE(recovered);
  EXPECT_GE(rig.set->GetStatus().recoveries, 1u);
}

}  // namespace
}  // namespace i3
