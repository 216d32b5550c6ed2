// Chaos-under-load tests of the serving front end: the fault-injected
// storage stack of tests/test_chaos.cc, now behind the TCP server, with
// concurrent wire clients in flight while fault profiles fire.
//
// The serving contract under chaos: every in-flight request ends in a
// well-formed response -- ok with the complete top-k, or a clean error
// frame -- never a crash, a hang, or a torn connection caused by index
// faults. After Heal() the server answers byte-identically (by
// result checksum) to its own pre-fault baseline. Seed count follows
// I3_CHAOS_SEEDS like the library-level chaos suite.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "i3/i3_index.h"
#include "model/sharded_index.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "storage/fault_injection.h"
#include "test_util.h"

namespace i3 {
namespace net {
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

struct ServingChaosRig {
  /// The index's physical backing, owned by the index.
  FaultInjectionPageFile* injector = nullptr;
  std::unique_ptr<ShardedIndex> index;
  std::unique_ptr<Server> server;

  void Arm(const FaultProfile& base, uint64_t seed) {
    FaultProfile p = base;
    p.seed = seed + 1;
    injector->injector()->SetProfile(p);
  }
};

CorpusOptions ChaosCorpus() {
  CorpusOptions copt;
  copt.num_docs = 300;
  copt.vocab_size = 25;
  return copt;
}

void InitRig(ServingChaosRig* rig, uint64_t corpus_seed,
             ServerOptions opts = {}) {
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
  for (const auto& d : MakeCorpus(ChaosCorpus(), corpus_seed)) {
    ASSERT_TRUE(rig->index->Insert(d).ok());
  }
  rig->server = std::make_unique<Server>(rig->index.get(), opts);
  ASSERT_TRUE(rig->server->Start().ok());
}

Request SearchRequest(const Query& q, uint64_t id, uint32_t deadline_ms = 0) {
  Request req;
  req.request_id = id;
  req.k = q.k;
  req.semantics = q.semantics;
  req.deadline_ms = deadline_ms;
  req.x = q.location.x;
  req.y = q.location.y;
  req.alpha = 0.5;
  req.terms = q.terms;
  return req;
}

Result<std::unique_ptr<Client>> Connect(const Server& server) {
  ClientOptions copts;
  copts.port = server.port();
  copts.recv_timeout_ms = 30000;
  return Client::Connect(copts);
}

// Fault profiles firing on the storage while concurrent clients keep
// requests in flight: each one ends ok / clean error, the connections
// stay whole, and healing restores the pre-fault baseline.
TEST(NetChaosTest, ServingUnderFaultsEndsEveryRequestCleanly) {
  ServingChaosRig rig;
  ServerOptions sopts;
  sopts.worker_threads = 3;
  InitRig(&rig, /*corpus_seed=*/11, sopts);
  const CorpusOptions copt = ChaosCorpus();
  const auto queries = MakeQueries(copt, /*num_queries=*/24, /*qn=*/2,
                                   /*k=*/10, Semantics::kOr, /*seed=*/12);

  // Pre-fault baseline, collected over the wire itself.
  rig.index->ClearCache();
  std::vector<uint64_t> baseline;
  {
    auto client = Connect(*rig.server);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (size_t i = 0; i < queries.size(); ++i) {
      auto resp = client.ValueOrDie()->Call(SearchRequest(queries[i], i));
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      ASSERT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kOk)
          << resp.ValueOrDie().message;
      baseline.push_back(ResultChecksum(resp.ValueOrDie().results));
    }
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

    constexpr int kClients = 4;
    std::atomic<uint64_t> ok_count{0};
    std::atomic<uint64_t> error_count{0};
    std::atomic<bool> contract_broken{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        auto client = Connect(*rig.server);
        if (!client.ok()) {
          contract_broken.store(true);
          return;
        }
        for (size_t i = t; i < queries.size();
             i += static_cast<size_t>(kClients)) {
          auto resp =
              client.ValueOrDie()->Call(SearchRequest(queries[i], i));
          if (!resp.ok()) {  // transport must survive index faults
            contract_broken.store(true);
            return;
          }
          const Response& r = resp.ValueOrDie();
          if (r.request_id != i) contract_broken.store(true);
          switch (r.outcome) {
            case ResponseOutcome::kOk:
              ok_count.fetch_add(1);
              break;
            case ResponseOutcome::kError:
              // Clean index failure: IOError/Corruption from the fault
              // stack (or a deadline). Anything else is contract-breaking.
              if (r.code != StatusCode::kIOError &&
                  r.code != StatusCode::kCorruption &&
                  r.code != StatusCode::kDeadlineExceeded) {
                contract_broken.store(true);
              }
              error_count.fetch_add(1);
              break;
            default:  // shed is impossible: no limits armed
              contract_broken.store(true);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_FALSE(contract_broken.load()) << "seed " << seed;
    EXPECT_EQ(ok_count.load() + error_count.load(), queries.size())
        << "seed " << seed;

    // Healed: the wire serves the pre-fault baseline byte-identically.
    rig.injector->Heal();
    rig.index->ClearCache();
    auto client = Connect(*rig.server);
    ASSERT_TRUE(client.ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto resp = client.ValueOrDie()->Call(SearchRequest(queries[i], i));
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      ASSERT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kOk);
      EXPECT_EQ(ResultChecksum(resp.ValueOrDie().results), baseline[i])
          << "seed " << seed << " query " << i;
    }
  }
  EXPECT_EQ(rig.server->requests_shed(), 0u);
}

// A hard storage failure is a clean error frame (there is no partial
// answer to serve), never a torn response or an empty success -- and the
// connection still serves the complete answer after healing.
TEST(NetChaosTest, TotalShardFailureIsACleanErrorFrame) {
  ServingChaosRig rig;
  InitRig(&rig, /*corpus_seed=*/31);
  Query q;
  q.location = {50, 50};
  q.terms = {0};
  q.k = 20;
  q.semantics = Semantics::kOr;
  q.Normalize();

  auto client = Connect(*rig.server);
  ASSERT_TRUE(client.ok());
  rig.index->ClearCache();
  auto full = client.ValueOrDie()->Call(SearchRequest(q, 0));
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full.ValueOrDie().outcome, ResponseOutcome::kOk);
  rig.injector->set_fail_all(true);
  rig.index->ClearCache();
  auto resp = client.ValueOrDie()->Call(SearchRequest(q, 1));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kError);
  EXPECT_EQ(resp.ValueOrDie().code, StatusCode::kIOError);
  EXPECT_FALSE(resp.ValueOrDie().message.empty());
  EXPECT_TRUE(resp.ValueOrDie().results.empty());

  rig.injector->Heal();
  rig.index->ClearCache();
  auto after = client.ValueOrDie()->Call(SearchRequest(q, 2));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie().outcome, ResponseOutcome::kOk);
  EXPECT_EQ(ResultChecksum(after.ValueOrDie().results),
            ResultChecksum(full.ValueOrDie().results));
}

// Wire deadlines propagate into the query plan: a budget that cannot
// cover the slowed-down search ends in a clean DeadlineExceeded error --
// and a generous budget still serves.
TEST(NetChaosTest, WireDeadlinePropagatesUnderLatencyFaults) {
  ServingChaosRig rig;
  InitRig(&rig, /*corpus_seed=*/41);
  const CorpusOptions copt = ChaosCorpus();
  const auto queries = MakeQueries(copt, /*num_queries=*/8, /*qn=*/2,
                                   /*k=*/10, Semantics::kOr, /*seed=*/42);

  // Every storage op eats a 5ms latency spike; a 1ms budget cannot cover
  // a cold-cache search.
  FaultProfile slow;
  slow.latency_spike_rate = 1.0;
  slow.latency_spike_us = 5000;
  rig.Arm(slow, /*seed=*/1);

  auto client = Connect(*rig.server);
  ASSERT_TRUE(client.ok());
  int expired = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    rig.index->ClearCache();
    auto resp = client.ValueOrDie()->Call(
        SearchRequest(queries[i], i, /*deadline_ms=*/1));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    const Response& r = resp.ValueOrDie();
    if (r.outcome == ResponseOutcome::kError) {
      EXPECT_EQ(r.code, StatusCode::kDeadlineExceeded) << r.message;
      ++expired;
    } else {
      ASSERT_EQ(r.outcome, ResponseOutcome::kOk);
    }
  }
  EXPECT_GT(expired, 0) << "1ms budgets against 5ms-per-op storage "
                           "never expired -- deadline not propagating";

  // A generous budget under the same faults serves complete results.
  rig.index->ClearCache();
  auto resp = client.ValueOrDie()->Call(
      SearchRequest(queries[0], 100, /*deadline_ms=*/30000));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kOk);
}

}  // namespace
}  // namespace net
}  // namespace i3
