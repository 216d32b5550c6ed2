// Tests of the whole-query result cache (net/result_cache.h), level 3 of
// the cache hierarchy: canonical-key semantics, generation invalidation,
// the SIEVE entry bound, and the server-level contract -- repeated
// requests are served byte-identically from cache, any index mutation
// makes the very next identical request see fresh results, no_cache
// bypasses, and error responses are never cached.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "i3/i3_index.h"
#include "model/sharded_index.h"
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

TEST(ResultCacheTest, LookupServesOnlyMatchingGeneration) {
  ResultCache cache({/*capacity_entries=*/16, /*stripes=*/2});
  const std::string key = ResultCache::KeyOf(MakeRequest());
  cache.Insert(key, /*generation=*/5, SomeResults());

  Response out;
  ASSERT_TRUE(cache.Lookup(key, /*generation=*/5, &out));
  EXPECT_EQ(out.outcome, ResponseOutcome::kOk);
  EXPECT_EQ(ResultChecksum(out.results), ResultChecksum(SomeResults()));

  // One generation later the entry is stale: the lookup misses AND drops
  // it, so even a (buggy) caller re-asking with the old generation
  // cannot resurrect the stale answer.
  EXPECT_FALSE(cache.Lookup(key, /*generation=*/6, &out));
  EXPECT_FALSE(cache.Lookup(key, /*generation=*/5, &out));
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(ResultCacheTest, InsertReplacesAndEvictionBoundsEntries) {
  ResultCache cache({/*capacity_entries=*/8, /*stripes=*/2});
  // Re-inserting the same key at a newer generation replaces in place.
  const std::string key = ResultCache::KeyOf(MakeRequest());
  cache.Insert(key, 1, SomeResults());
  cache.Insert(key, 2, SomeResults());
  EXPECT_EQ(cache.entry_count(), 1u);
  Response out;
  EXPECT_TRUE(cache.Lookup(key, 2, &out));

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
  void StartServer(ServerOptions opts = {}) {
    I3Options opt;
    opt.space = {0.0, 0.0, 100.0, 100.0};
    opt.page_size = 128;
    opt.signature_bits = 64;
    opt.page_file_factory = [this](size_t page_size) {
      auto file = std::make_unique<FaultInjectionPageFile>(
          std::make_unique<InMemoryPageFile>(page_size));
      injector_ = file.get();
      return file;
    };
    std::vector<std::unique_ptr<SpatialKeywordIndex>> one;
    one.push_back(std::make_unique<I3Index>(opt));
    index_ = std::make_unique<ShardedIndex>(std::move(one));
    for (const auto& d : MakeCorpus(CacheCorpus(), /*seed=*/77)) {
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

  FaultInjectionPageFile* injector_ = nullptr;
  std::unique_ptr<ShardedIndex> index_;
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

// Any mutation invalidates: the very next identical request reflects the
// post-mutation index, with no window where a stale cached top-k is
// served.
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

  injector_->injector()->set_fail_all(true);
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

  injector_->Heal();
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

}  // namespace
}  // namespace net
}  // namespace i3
