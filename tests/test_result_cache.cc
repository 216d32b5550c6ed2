// Tests of the whole-query result cache (net/result_cache.h), level 3 of
// the cache hierarchy: canonical-key semantics, write-log replay (an entry
// survives exactly the writes that cannot change its answer), the SIEVE
// entry bound, and the server-level contract -- repeated requests are
// served byte-identically from cache, a write that changes an answer makes
// the very next identical request see fresh results, no_cache bypasses,
// and error responses are never cached. A seeded interleaving of writes
// and repeated wire searches, over one replica and over two with replica
// kills, recoveries and scrubs mixed in, is checked against the
// brute-force oracle.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "i3/i3_index.h"
#include "i3/replica_ops.h"
#include "model/brute_force.h"
#include "model/replica_set.h"
#include "model/write_log.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/result_cache.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "storage/fault_injection.h"
#include "test_util.h"

namespace i3 {
namespace net {
namespace {

using testutil::CorpusOptions;
using testutil::MakeCorpus;
using testutil::MakeQueries;

Request MakeRequest(uint64_t id = 1) {
  Request req;
  req.request_id = id;
  req.tenant = 3;
  req.k = 10;
  req.semantics = Semantics::kAnd;
  req.deadline_ms = 250;
  req.x = 12.5;
  req.y = 33.25;
  req.alpha = 0.6;
  req.terms = {2, 7, 19};
  return req;
}

std::vector<ScoredDoc> SomeResults() {
  return {{41, 0.93, {1, 2}}, {7, 0.81, {3, 4}}, {112, 0.5, {5, 6}}};
}

const Rect kSpace{0.0, 0.0, 100.0, 100.0};

SpatialDocument Doc(DocId id, Point at, std::vector<WeightedTerm> terms) {
  SpatialDocument d;
  d.id = id;
  d.location = at;
  d.terms = std::move(terms);
  return d;
}

// The key names the *search*, not the caller: identity fields
// (request_id, tenant, deadline_ms, no_cache) must not split the key,
// while every search-relevant field must.
TEST(ResultCacheTest, KeyCanonicalizesIdentityFields) {
  const std::string base = ResultCache::KeyOf(MakeRequest());

  Request req = MakeRequest(/*id=*/999);
  req.tenant = 8;
  req.deadline_ms = 0;
  req.no_cache = true;
  EXPECT_EQ(ResultCache::KeyOf(req), base);

  req = MakeRequest();
  req.k = 11;
  EXPECT_NE(ResultCache::KeyOf(req), base);
  req = MakeRequest();
  req.semantics = Semantics::kOr;
  EXPECT_NE(ResultCache::KeyOf(req), base);
  req = MakeRequest();
  req.alpha = 0.61;
  EXPECT_NE(ResultCache::KeyOf(req), base);
  req = MakeRequest();
  req.x += 0.001;
  EXPECT_NE(ResultCache::KeyOf(req), base);
  req = MakeRequest();
  req.terms = {2, 7};
  EXPECT_NE(ResultCache::KeyOf(req), base);
}

// An entry tagged with the current generation is served as it is. One
// behind it is served only if no write since can change its answer: a
// delete outside the answer leaves it (and advances its tag), a delete of
// one of its documents makes the lookup miss and drop it.
TEST(ResultCacheTest, LookupServesOnlyMatchingGeneration) {
  ResultCache cache({/*capacity_entries=*/16, /*stripes=*/2});
  WriteLog log(kSpace);
  const std::string key = ResultCache::KeyOf(MakeRequest());
  cache.Insert(key, log.generation(), SomeResults());

  Response out;
  uint64_t replayed = 99;
  ASSERT_TRUE(cache.Lookup(key, log, &out, &replayed));
  EXPECT_EQ(out.outcome, ResponseOutcome::kOk);
  EXPECT_EQ(ResultChecksum(out.results), ResultChecksum(SomeResults()));
  EXPECT_EQ(replayed, 0u);

  // Deleting a document outside the answer cannot change it.
  log.Append(WriteLog::Kind::kDelete,
             Doc(500, {12.5, 33.25}, {{2, 1.0f}, {7, 1.0f}}), {},
             WriteLog::Outcome::kApplied);
  ASSERT_TRUE(cache.Lookup(key, log, &out, &replayed));
  EXPECT_EQ(ResultChecksum(out.results), ResultChecksum(SomeResults()));
  EXPECT_EQ(replayed, 1u);
  // The hit advanced the tag: nothing is left to replay.
  ASSERT_TRUE(cache.Lookup(key, log, &out, &replayed));
  EXPECT_EQ(replayed, 0u);

  // Deleting doc 41, which the answer holds, makes the entry stale: the
  // lookup misses AND drops it, so a second lookup cannot resurrect the
  // stale answer.
  log.Append(WriteLog::Kind::kDelete, Doc(41, {1, 2}, {{2, 0.5f}}), {},
             WriteLog::Outcome::kApplied);
  EXPECT_FALSE(cache.Lookup(key, log, &out));
  EXPECT_FALSE(cache.Lookup(key, log, &out));
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(ResultCacheTest, InsertReplacesAndEvictionBoundsEntries) {
  ResultCache cache({/*capacity_entries=*/8, /*stripes=*/2});
  WriteLog log(kSpace);
  log.Append(WriteLog::Kind::kClear, {}, {}, WriteLog::Outcome::kApplied);
  log.Append(WriteLog::Kind::kClear, {}, {}, WriteLog::Outcome::kApplied);
  // Re-inserting the same key at a newer generation replaces in place.
  const std::string key = ResultCache::KeyOf(MakeRequest());
  cache.Insert(key, 1, SomeResults());
  cache.Insert(key, 2, SomeResults());
  EXPECT_EQ(cache.entry_count(), 1u);
  Response out;
  EXPECT_TRUE(cache.Lookup(key, log, &out));

  // Flooding with distinct keys never exceeds the configured bound.
  for (uint64_t i = 0; i < 64; ++i) {
    Request req = MakeRequest();
    req.terms = {static_cast<TermId>(i + 1)};
    cache.Insert(ResultCache::KeyOf(req), 2, SomeResults());
  }
  EXPECT_LE(cache.entry_count(), 8u);

  cache.Clear();
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache({/*capacity_entries=*/0});
  EXPECT_FALSE(cache.enabled());
}

// --- Replay rules, one write at a time. ---

/// Same doc ids in the same order with bit-identical scores.
void ExpectSameAnswer(const std::vector<ScoredDoc>& got,
                      const std::vector<ScoredDoc>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << what << ", rank " << i;
    EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score, sizeof(double)), 0)
        << what << ", rank " << i;
  }
}

Request Ask(std::vector<TermId> terms, Semantics semantics, uint32_t k) {
  Request req;
  req.k = k;
  req.semantics = semantics;
  req.x = 50.0;
  req.y = 50.0;
  req.alpha = 0.5;
  req.terms = std::move(terms);
  return req;
}

/// The brute-force oracle in a one-replica serving set, with a result cache
/// in front driven the way the server drives it: a lookup first, and on a
/// miss a search tagged with the generation read before it.
class ReplayRig {
 public:
  struct Served {
    std::vector<ScoredDoc> results;
    bool hit = false;
    uint64_t replayed = 0;
  };

  ReplayRig() : index_(OneIndex()), cache_({/*capacity_entries=*/64}) {}

  ReplicaSet& index() { return index_; }

  Served Serve(const Request& req) {
    Served s;
    Response out;
    const std::string key = ResultCache::KeyOf(req);
    s.hit = cache_.Lookup(key, index_.write_log(), &out, &s.replayed);
    if (s.hit) {
      s.results = std::move(out.results);
    } else {
      const uint64_t generation = index_.write_log().generation();
      s.results = Fresh(req);
      cache_.Insert(key, generation, s.results);
    }
    return s;
  }

  /// What a search of the index answers now.
  std::vector<ScoredDoc> Fresh(const Request& req) {
    auto got = index_.Search(req.ToQuery(), req.alpha);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    return got.ok() ? got.MoveValue() : std::vector<ScoredDoc>{};
  }

 private:
  static std::vector<std::unique_ptr<SpatialKeywordIndex>> OneIndex() {
    std::vector<std::unique_ptr<SpatialKeywordIndex>> one;
    one.push_back(std::make_unique<BruteForceIndex>(kSpace));
    return one;
  }

  ReplicaSet index_;
  ResultCache cache_;
};

// An insert that ties the k-th score changes the answer when its doc id
// is smaller (the tie-break ranks it in) and leaves it when larger; the
// replay counts both as a change, so both requests are answered afresh.
TEST(ResultCacheReplayTest, InsertTyingTheKthScoreIsAChange) {
  ReplayRig rig;
  for (DocId id : {10u, 20u, 30u, 40u}) {
    ASSERT_TRUE(
        rig.index().Insert(Doc(id, {50.0 + id / 10, 50.0}, {{1, 0.5f}})).ok());
  }
  const Request req = Ask({1}, Semantics::kOr, /*k=*/3);  // 10, 20, 30
  EXPECT_FALSE(rig.Serve(req).hit);
  EXPECT_TRUE(rig.Serve(req).hit);

  // Doc 5 on doc 30's spot: the same score, a smaller id.
  ASSERT_TRUE(rig.index().Insert(Doc(5, {53.0, 50.0}, {{1, 0.5f}})).ok());
  ReplayRig::Served s = rig.Serve(req);
  EXPECT_FALSE(s.hit);
  ExpectSameAnswer(s.results, rig.Fresh(req), "smaller-id tie");
  EXPECT_EQ(s.results.back().doc, 5u);
  EXPECT_TRUE(rig.Serve(req).hit);

  // Doc 35 on the same spot: the same score, a larger id. The answer
  // stays 10, 20, 5, but a tie is not worth resolving.
  ASSERT_TRUE(rig.index().Insert(Doc(35, {53.0, 50.0}, {{1, 0.5f}})).ok());
  s = rig.Serve(req);
  EXPECT_FALSE(s.hit);
  ExpectSameAnswer(s.results, rig.Fresh(req), "larger-id tie");
  EXPECT_EQ(s.results.back().doc, 5u);
}

// While fewer than k documents match, any matching insert joins the
// answer however low it scores; a document without the keyword does not.
TEST(ResultCacheReplayTest, ShortAnswerTakesAnyMatchingInsert) {
  ReplayRig rig;
  for (DocId id : {1u, 2u, 3u}) {
    ASSERT_TRUE(
        rig.index().Insert(Doc(id, {50.0 + id, 50.0}, {{1, 0.9f}})).ok());
  }
  const Request req = Ask({1}, Semantics::kOr, /*k=*/10);
  EXPECT_FALSE(rig.Serve(req).hit);

  ASSERT_TRUE(rig.index().Insert(Doc(4, {50.0, 50.0}, {{2, 1.0f}})).ok());
  ReplayRig::Served s = rig.Serve(req);
  EXPECT_TRUE(s.hit);
  EXPECT_EQ(s.replayed, 1u);
  ExpectSameAnswer(s.results, rig.Fresh(req), "non-matching insert");

  ASSERT_TRUE(rig.index().Insert(Doc(5, {99.0, 99.0}, {{1, 0.05f}})).ok());
  s = rig.Serve(req);
  EXPECT_FALSE(s.hit);
  ExpectSameAnswer(s.results, rig.Fresh(req), "far low-weight match");
  EXPECT_EQ(s.results.size(), 4u);
}

// Under AND, a document missing one of the query's keywords cannot join,
// however well it would score on the other.
TEST(ResultCacheReplayTest, InsertFailingAnAndQuerySurvives) {
  ReplayRig rig;
  for (DocId id = 1; id <= 5; ++id) {
    ASSERT_TRUE(rig.index()
                    .Insert(Doc(id, {50.0 + id, 50.0},
                                {{1, 0.5f}, {2, 0.5f}}))
                    .ok());
  }
  const Request req = Ask({1, 2}, Semantics::kAnd, /*k=*/3);
  EXPECT_FALSE(rig.Serve(req).hit);

  ASSERT_TRUE(rig.index().Insert(Doc(100, {50.0, 50.0}, {{1, 1.0f}})).ok());
  const ReplayRig::Served s = rig.Serve(req);
  EXPECT_TRUE(s.hit);
  EXPECT_EQ(s.replayed, 1u);
  ExpectSameAnswer(s.results, rig.Fresh(req), "AND non-match");
}

// Deleting a document outside the answer leaves it, and so does an
// Update whose delete and insert both miss it (one write replayed: an
// update is one record); deleting a document of the answer does not.
TEST(ResultCacheReplayTest, DeleteOutsideTheAnswerSurvives) {
  ReplayRig rig;
  std::vector<SpatialDocument> docs;
  for (DocId id = 1; id <= 5; ++id) {
    docs.push_back(Doc(id, {50.0 + id, 50.0}, {{1, 0.5f}}));
    ASSERT_TRUE(rig.index().Insert(docs.back()).ok());
  }
  const Request req = Ask({1}, Semantics::kOr, /*k=*/3);  // 1, 2, 3
  EXPECT_FALSE(rig.Serve(req).hit);

  ASSERT_TRUE(rig.index().Delete(docs[4]).ok());
  ReplayRig::Served s = rig.Serve(req);
  EXPECT_TRUE(s.hit);
  EXPECT_EQ(s.replayed, 1u);
  ExpectSameAnswer(s.results, rig.Fresh(req), "delete outside");

  ASSERT_TRUE(
      rig.index().Update(docs[3], Doc(6, {90.0, 90.0}, {{2, 0.5f}})).ok());
  s = rig.Serve(req);
  EXPECT_TRUE(s.hit);
  EXPECT_EQ(s.replayed, 1u);
  ExpectSameAnswer(s.results, rig.Fresh(req), "update outside");

  ASSERT_TRUE(rig.index().Delete(docs[1]).ok());
  s = rig.Serve(req);
  EXPECT_FALSE(s.hit);
  ExpectSameAnswer(s.results, rig.Fresh(req), "delete inside");
}

// A write that fails, and a cache clear, may have changed anything: the
// next lookup misses.
TEST(ResultCacheReplayTest, FailedWriteAndClearAreMisses) {
  ReplayRig rig;
  for (DocId id : {1u, 2u, 3u}) {
    ASSERT_TRUE(
        rig.index().Insert(Doc(id, {50.0 + id, 50.0}, {{1, 0.5f}})).ok());
  }
  const Request req = Ask({1}, Semantics::kOr, /*k=*/3);
  EXPECT_FALSE(rig.Serve(req).hit);
  EXPECT_TRUE(rig.Serve(req).hit);

  // Doc 2 is indexed already, so this insert fails.
  EXPECT_FALSE(rig.index().Insert(Doc(2, {10.0, 10.0}, {{7, 0.5f}})).ok());
  EXPECT_FALSE(rig.Serve(req).hit);
  EXPECT_TRUE(rig.Serve(req).hit);

  rig.index().ClearCache();
  EXPECT_FALSE(rig.Serve(req).hit);
}

// An entry exactly as many writes behind as the ring holds is still
// replayed; one more write and it is a miss.
TEST(ResultCacheReplayTest, TagOlderThanTheRingIsAMiss) {
  ReplayRig rig;
  for (DocId id : {1u, 2u, 3u}) {
    ASSERT_TRUE(
        rig.index().Insert(Doc(id, {50.0 + id, 50.0}, {{1, 0.5f}})).ok());
  }
  const Request req = Ask({1}, Semantics::kOr, /*k=*/3);
  DocId next = 1000;
  auto harmless_writes = [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(
          rig.index().Insert(Doc(next++, {10.0, 10.0}, {{2, 0.5f}})).ok());
    }
  };
  EXPECT_FALSE(rig.Serve(req).hit);

  harmless_writes(WriteLog::kCapacity);
  ReplayRig::Served s = rig.Serve(req);
  EXPECT_TRUE(s.hit);
  EXPECT_EQ(s.replayed, WriteLog::kCapacity);

  harmless_writes(WriteLog::kCapacity + 1);
  s = rig.Serve(req);
  EXPECT_FALSE(s.hit);
  ExpectSameAnswer(s.results, rig.Fresh(req), "older than the ring");
}

// --- Server-level contract over loopback. ---

double MetricValue(const char* name) {
  const auto snap = obs::MetricsRegistry::Global().Snapshot();
  const auto* m = snap.Find(name);
  return m == nullptr ? 0.0 : m->value;
}

CorpusOptions CacheCorpus() {
  CorpusOptions copt;
  copt.num_docs = 400;
  copt.vocab_size = 30;
  return copt;
}

class ResultCacheServerTest : public ::testing::Test {
 protected:
  /// Replica `r`'s options: its page file is fault-injected, and a
  /// recovery that re-homes the replica plants the new file's injector.
  I3Options OptionsFor(uint32_t r) {
    I3Options opt;
    opt.space = {0.0, 0.0, 100.0, 100.0};
    opt.page_size = codec::kV2MinPageSize;
    opt.signature_bits = 64;
    opt.page_file_factory = [this, r](size_t page_size) {
      auto file = std::make_unique<FaultInjectionPageFile>(
          std::make_unique<InMemoryPageFile>(page_size));
      injectors_[r] = file.get();
      return file;
    };
    return opt;
  }

  void StartServer(ServerOptions opts = {}, uint64_t corpus_seed = 77,
                   uint32_t replicas = 1) {
    server_.reset();
    index_.reset();
    injectors_.assign(replicas, nullptr);
    std::vector<std::unique_ptr<SpatialKeywordIndex>> indexes;
    for (uint32_t r = 0; r < replicas; ++r) {
      indexes.push_back(std::make_unique<I3Index>(OptionsFor(r)));
    }
    auto ops = MakeI3ReplicaOps([this](uint32_t r) { return OptionsFor(r); });
    index_ = std::make_unique<ReplicaSet>(std::move(indexes), ops);
    corpus_ = MakeCorpus(CacheCorpus(), corpus_seed);
    for (const auto& d : corpus_) {
      ASSERT_TRUE(index_->Insert(d).ok());
    }
    server_ = std::make_unique<Server>(index_.get(), opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  Result<std::unique_ptr<Client>> Connect() {
    ClientOptions copts;
    copts.port = server_->port();
    copts.recv_timeout_ms = 10000;
    return Client::Connect(copts);
  }

  Request SearchRequest(const Query& q, uint64_t id) {
    Request req;
    req.request_id = id;
    req.k = q.k;
    req.semantics = q.semantics;
    req.x = q.location.x;
    req.y = q.location.y;
    req.alpha = 0.5;
    req.terms = q.terms;
    return req;
  }

  /// Per replica, owned by the index.
  std::vector<FaultInjectionPageFile*> injectors_;
  std::vector<SpatialDocument> corpus_;
  std::unique_ptr<ReplicaSet> index_;
  std::unique_ptr<Server> server_;
};

// Repeats of the same request hit the cache and stay byte-identical to
// the first (uncached) response; distinct request ids are re-stamped per
// caller.
TEST_F(ResultCacheServerTest, RepeatedRequestsServeIdenticalBytes) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto queries = MakeQueries(CacheCorpus(), /*num_queries=*/10,
                                   /*qn=*/2, /*k=*/10, Semantics::kOr,
                                   /*seed=*/78);

  const double hits0 = MetricValue("i3_result_cache_hits_total");
  std::vector<uint64_t> first_pass;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto resp = client.ValueOrDie()->Call(SearchRequest(queries[i], i));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kOk);
    first_pass.push_back(ResultChecksum(resp.ValueOrDie().results));
  }
  for (int rep = 0; rep < 3; ++rep) {
    for (size_t i = 0; i < queries.size(); ++i) {
      const uint64_t id = 1000 + rep * 100 + i;
      auto resp = client.ValueOrDie()->Call(SearchRequest(queries[i], id));
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      const Response& r = resp.ValueOrDie();
      ASSERT_EQ(r.outcome, ResponseOutcome::kOk);
      EXPECT_EQ(r.request_id, id);
      EXPECT_EQ(ResultChecksum(r.results), first_pass[i])
          << "rep " << rep << " query " << i;
    }
  }
  // All 30 repeats were cache hits (the metric is process-global, so
  // compare deltas).
  EXPECT_GE(MetricValue("i3_result_cache_hits_total") - hits0, 30.0);
}

// A write that changes a cached answer invalidates it: the very next
// identical request reflects the post-mutation index, with no window
// where a stale cached top-k is served.
TEST_F(ResultCacheServerTest, MutationInvalidatesAcrossTheWire) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Query q;
  q.location = {50, 50};
  q.terms = {1};
  q.k = 5;
  q.semantics = Semantics::kOr;
  q.Normalize();

  auto before = client.ValueOrDie()->Call(SearchRequest(q, 1));
  ASSERT_TRUE(before.ok());
  // Warm the cache, then prove the repeat matches.
  auto warm = client.ValueOrDie()->Call(SearchRequest(q, 2));
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(ResultChecksum(before.ValueOrDie().results),
            ResultChecksum(warm.ValueOrDie().results));

  // A new best document at the query point dominates any old top-k.
  SpatialDocument d;
  d.id = 999999;
  d.location = {50, 50};
  d.terms = {{1, 1.0f}};
  ASSERT_TRUE(index_->Insert(d).ok());

  auto after = client.ValueOrDie()->Call(SearchRequest(q, 3));
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.ValueOrDie().outcome, ResponseOutcome::kOk);
  ASSERT_FALSE(after.ValueOrDie().results.empty());
  EXPECT_EQ(after.ValueOrDie().results[0].doc, 999999u)
      << "cached pre-mutation top-k served after an Insert";

  // And the post-mutation answer matches a direct search exactly.
  auto direct = index_->Search(q, 0.5);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(ResultChecksum(after.ValueOrDie().results),
            ResultChecksum(direct.ValueOrDie()));
}

// The wire no_cache flag: the request reaches the index every time and
// its response is never inserted, observable via the bypass metric and
// an untouched hit counter.
TEST_F(ResultCacheServerTest, NoCacheFlagBypasses) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Query q;
  q.location = {25, 25};
  q.terms = {2};
  q.k = 5;
  q.semantics = Semantics::kOr;
  q.Normalize();

  const double hits0 = MetricValue("i3_result_cache_hits_total");
  const double bypass0 = MetricValue("i3_result_cache_bypass_total");
  uint64_t checksum = 0;
  for (uint64_t i = 0; i < 4; ++i) {
    Request req = SearchRequest(q, i);
    req.no_cache = true;
    auto resp = client.ValueOrDie()->Call(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kOk);
    const uint64_t c = ResultChecksum(resp.ValueOrDie().results);
    if (i == 0) checksum = c;
    EXPECT_EQ(c, checksum);
  }
  EXPECT_EQ(MetricValue("i3_result_cache_hits_total"), hits0);
  EXPECT_GE(MetricValue("i3_result_cache_bypass_total") - bypass0, 4.0);
}

// Error responses are never cached, and a complete answer cached before a
// failure is not served past it: under a hard storage failure every
// repeat reaches the index and errors; after healing, the complete answer
// returns -- never a cached error.
TEST_F(ResultCacheServerTest, DegradedResponsesAreNotCached) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto queries = MakeQueries(CacheCorpus(), /*num_queries=*/5,
                                   /*qn=*/2, /*k=*/10, Semantics::kOr,
                                   /*seed=*/79);

  // Pre-fault baseline fills the cache; ClearCache (which bumps the
  // generation) forces the fault phase to the index.
  std::vector<uint64_t> baseline;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto resp = client.ValueOrDie()->Call(SearchRequest(queries[i], i));
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kOk);
    baseline.push_back(ResultChecksum(resp.ValueOrDie().results));
  }
  index_->ClearCache();

  injectors_[0]->injector()->set_fail_all(true);
  for (int rep = 0; rep < 2; ++rep) {
    for (size_t i = 0; i < queries.size(); ++i) {
      auto resp = client.ValueOrDie()->Call(
          SearchRequest(queries[i], 100 + rep * 10 + i));
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      const Response& r = resp.ValueOrDie();
      EXPECT_EQ(r.outcome, ResponseOutcome::kError)
          << "rep " << rep << " query " << i
          << ": a complete pre-fault response leaked from the cache";
      EXPECT_EQ(r.code, StatusCode::kIOError) << r.message;
    }
  }

  injectors_[0]->Heal();
  index_->ClearCache();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto resp = client.ValueOrDie()->Call(SearchRequest(queries[i], 200 + i));
    ASSERT_TRUE(resp.ok());
    const Response& r = resp.ValueOrDie();
    ASSERT_EQ(r.outcome, ResponseOutcome::kOk) << r.message;
    EXPECT_EQ(ResultChecksum(r.results), baseline[i]) << "query " << i;
  }
}

// A server configured with result_cache_entries = 0 still answers
// correctly -- the cache is a pure optimization.
TEST_F(ResultCacheServerTest, DisabledCacheStillServes) {
  ServerOptions opts;
  opts.result_cache_entries = 0;
  StartServer(opts);
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Query q;
  q.location = {10, 10};
  q.terms = {1, 2};
  q.k = 10;
  q.semantics = Semantics::kOr;
  q.Normalize();

  auto direct = index_->Search(q, 0.5);
  ASSERT_TRUE(direct.ok());
  for (uint64_t i = 0; i < 3; ++i) {
    auto resp = client.ValueOrDie()->Call(SearchRequest(q, i));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kOk);
    EXPECT_EQ(ResultChecksum(resp.ValueOrDie().results),
              ResultChecksum(direct.ValueOrDie()));
  }
}

// --- Seeded replay differential over the wire. ---

uint64_t ChaosSeeds() {
  const char* env = std::getenv("I3_CHAOS_SEEDS");
  if (env == nullptr) return 3;
  const uint64_t n = std::strtoull(env, nullptr, 10);
  return n > 0 ? n : 3;
}

/// True when a traced response was a result-cache hit; `*replayed`
/// receives the writes it was replayed across.
bool CacheHit(const Response& r, uint64_t* replayed) {
  bool hit = false;
  *replayed = 0;
  for (const WireTraceAnnotation& a : r.trace.annotations) {
    if (a.name == "result_cache_hit" && a.value != 0) hit = true;
    if (a.name == "replayed_writes") *replayed = a.value;
  }
  return hit;
}

class ResultCacheReplayWireTest : public ResultCacheServerTest {};

// Per seed: an interleaving of Insert, Delete, Update, ClearCache and one
// write the fault injector fails, with repeated traced searches from a
// small request pool over the wire between writes. Every response must
// equal the brute-force oracle's answer by doc ids and score bits, and
// some hits must have been replayed across a write -- a cache that still
// drops every entry on any write cannot pass. Each seed runs over one
// replica, then over two, where a replica kill, recovery or scrub may
// follow each write and the failed write fails every replica's device.
TEST_F(ResultCacheReplayWireTest, SeededWritesMatchTheOracle) {
  const CorpusOptions copt = CacheCorpus();
  // No request asks for this keyword.
  const TermId kUnasked = copt.vocab_size + 100;
  const uint64_t seeds = ChaosSeeds();
  for (uint64_t run = 0; run < 2 * seeds; ++run) {
    const uint32_t replicas = 1 + static_cast<uint32_t>(run / seeds);
    const uint64_t seed = 1 + run % seeds;
    SCOPED_TRACE(std::to_string(replicas) + " replica(s), seed " +
                 std::to_string(seed));
    StartServer({}, /*corpus_seed=*/1000 + seed, replicas);
    BruteForceIndex oracle(copt.space);
    for (const auto& d : corpus_) ASSERT_TRUE(oracle.Insert(d).ok());
    std::vector<SpatialDocument> live = corpus_;
    CorpusOptions fresh_opt = copt;
    fresh_opt.num_docs = 100;
    fresh_opt.first_id = 100000;
    const auto fresh = MakeCorpus(fresh_opt, 2000 + seed);
    size_t next_fresh = 0;

    // Both semantics, several k and alpha; few enough that searches
    // repeat between writes.
    std::vector<Request> pool;
    const double alphas[] = {0.3, 0.5, 0.8};
    auto add = [&](uint32_t n, uint32_t qn, uint32_t k, Semantics sem,
                   uint64_t qseed) {
      for (const Query& q : MakeQueries(copt, n, qn, k, sem, qseed)) {
        Request req = SearchRequest(q, 0);
        req.alpha = alphas[pool.size() % 3];
        req.trace = true;
        pool.push_back(req);
      }
    };
    add(2, 1, 10, Semantics::kOr, 3000 + seed);
    add(2, 2, 5, Semantics::kOr, 4000 + seed);
    add(2, 2, 3, Semantics::kAnd, 5000 + seed);

    auto client = Connect();
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    uint64_t request_id = 0;
    uint64_t replayed_hits = 0;
    // One request over the wire, checked against the oracle; returns
    // whether it was a hit.
    auto serve = [&](Request req, const char* what) {
      req.request_id = ++request_id;
      auto resp = client.ValueOrDie()->Call(req);
      EXPECT_TRUE(resp.ok()) << resp.status().ToString();
      if (!resp.ok()) return false;
      const Response& r = resp.ValueOrDie();
      EXPECT_EQ(r.outcome, ResponseOutcome::kOk) << r.message;
      auto want = oracle.Search(req.ToQuery(), req.alpha);
      EXPECT_TRUE(want.ok());
      ExpectSameAnswer(r.results, want.ValueOrDie(),
                       std::string(what) + ", request " +
                           std::to_string(request_id));
      uint64_t replayed = 0;
      const bool hit = CacheHit(r, &replayed);
      if (hit && replayed > 0) ++replayed_hits;
      return hit;
    };
    Rng rng(seed);
    auto search_round = [&]() {
      for (int i = 0; i < 8; ++i) {
        serve(pool[rng.UniformInt(0, pool.size() - 1)], "search");
      }
    };

    constexpr int kWrites = 40;
    const int failing_step =
        static_cast<int>(rng.UniformInt(kWrites / 4, 3 * kWrites / 4));
    const double replayed0 =
        MetricValue("i3_result_cache_replayed_hits_total");
    search_round();
    for (int step = 0; step < kWrites; ++step) {
      const int op = static_cast<int>(rng.UniformInt(0, 9));
      if (step == failing_step) {
        // A one-keyword insert under a keyword no request asks for, failed
        // by the device: whatever of it landed, no answer can show it, so
        // the oracle stays -- but the cache must take the failure as a
        // write that may have changed anything.
        serve(pool[0], "before the failed write");
        ASSERT_TRUE(serve(pool[0], "cached before the failed write"));
        for (FaultInjectionPageFile* f : injectors_) f->set_fail_all(true);
        const Status st = index_->Insert(
            Doc(200000, {50.0, 50.0}, {{kUnasked, 0.5f}}));
        for (FaultInjectionPageFile* f : injectors_) f->Heal();
        EXPECT_FALSE(st.ok()) << "the injected fault did not fail the write";
        EXPECT_FALSE(serve(pool[0], "after the failed write"))
            << "a cached answer survived a failed write";
      } else if (op < 4 && next_fresh < fresh.size()) {
        const SpatialDocument& d = fresh[next_fresh++];
        ASSERT_TRUE(index_->Insert(d).ok());
        ASSERT_TRUE(oracle.Insert(d).ok());
        live.push_back(d);
      } else if (op < 7 && !live.empty()) {
        const size_t v = rng.UniformInt(0, live.size() - 1);
        ASSERT_TRUE(index_->Delete(live[v]).ok());
        ASSERT_TRUE(oracle.Delete(live[v]).ok());
        live[v] = live.back();
        live.pop_back();
      } else if (op < 9 && !live.empty() && next_fresh < fresh.size()) {
        const size_t v = rng.UniformInt(0, live.size() - 1);
        const SpatialDocument& d = fresh[next_fresh++];
        ASSERT_TRUE(index_->Update(live[v], d).ok());
        ASSERT_TRUE(oracle.Delete(live[v]).ok());
        ASSERT_TRUE(oracle.Insert(d).ok());
        live[v] = d;
      } else {
        index_->ClearCache();
      }
      if (replicas > 1) {
        // Kill a replica (refused for the last healthy one), recover one
        // (a no-op when it is healthy), scrub, or leave the set alone.
        const int m = static_cast<int>(rng.UniformInt(0, 3));
        const auto r = static_cast<uint32_t>(rng.UniformInt(0, 1));
        if (m == 0) {
          const Status st = index_->KillReplica(r);
          EXPECT_TRUE(st.ok() || st.code() == StatusCode::kResourceExhausted)
              << st.ToString();
        } else if (m == 1) {
          const Status st = index_->RecoverReplica(r);
          EXPECT_TRUE(st.ok()) << st.ToString();
        } else if (m == 2) {
          const Status st = index_->ScrubTick();
          EXPECT_TRUE(st.ok()) << st.ToString();
        }
      }
      search_round();
    }
    EXPECT_GT(replayed_hits, 0u) << "no cached answer survived a write";
    if (replicas > 1) {
      EXPECT_GT(index_->GetStatus().recoveries, 0u) << "nothing recovered";
    }
    EXPECT_EQ(MetricValue("i3_result_cache_replayed_hits_total") - replayed0,
              static_cast<double>(replayed_hits));
  }
}

}  // namespace
}  // namespace net
}  // namespace i3
