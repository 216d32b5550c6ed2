// End-to-end tests of the observability plane (ISSUE: tracing, slow-query
// log, introspection): a traced request returns a span timeline whose
// stages are consistent with the wire latency while its results stay
// byte-identical to the untraced twin; the slow-query log captures
// requests (with replayable canonical bytes) under concurrent load; the
// four HTTP endpoints serve strictly valid JSON while search traffic is
// in flight; and the /metrics + 404 responses carry exact conformance
// headers (Content-Type, Content-Length, Connection: close).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "i3/i3_index.h"
#include "model/sharded_index.h"
#include "net/client.h"
#include "net/introspection.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/clock.h"
#include "test_util.h"

namespace i3 {
namespace net {
namespace {

using testutil::CorpusOptions;
using testutil::MakeCorpus;
using testutil::MakeQueries;

CorpusOptions ServingCorpus() {
  CorpusOptions copt;
  copt.num_docs = 400;
  copt.vocab_size = 30;
  return copt;
}

std::unique_ptr<ShardedIndex> MakeIndex(const CorpusOptions& copt,
                                        uint64_t seed) {
  I3Options opt;
  opt.space = copt.space;
  opt.page_size = codec::kV2MinPageSize;
  opt.signature_bits = 64;
  std::vector<std::unique_ptr<SpatialKeywordIndex>> one;
  one.push_back(std::make_unique<I3Index>(opt));
  auto index = std::make_unique<ShardedIndex>(std::move(one));
  for (const auto& d : MakeCorpus(copt, seed)) {
    EXPECT_TRUE(index->Insert(d).ok());
  }
  return index;
}

Request SearchRequest(const Query& q, uint64_t id, double alpha,
                      uint32_t tenant = 0) {
  Request req;
  req.request_id = id;
  req.tenant = tenant;
  req.k = q.k;
  req.semantics = q.semantics;
  req.x = q.location.x;
  req.y = q.location.y;
  req.alpha = alpha;
  req.terms = q.terms;
  return req;
}

// ---------------------------------------------------------------------------
// Strict JSON validity (recursive descent over the full grammar). The CI
// smoke runs python3 -m json.tool against the live endpoints; this is the
// in-process equivalent so a formatting regression fails here first.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const unsigned char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return false;  // raw control char: invalid
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

bool IsValidJson(const std::string& s) { return JsonChecker(s).Valid(); }

// ---------------------------------------------------------------------------
// HealthzJson as a pure function: the replica-aware shape.

TEST(HealthzJsonTest, UnreplicatedFormStaysMinimal) {
  const std::string ok = HealthzJson(true, 12);
  EXPECT_TRUE(IsValidJson(ok)) << ok;
  EXPECT_NE(ok.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(ok.find("\"uptime_s\": 12"), std::string::npos);
  EXPECT_NE(ok.find("\"shards\": []"), std::string::npos);

  const std::string stopping = HealthzJson(false, 99);
  EXPECT_TRUE(IsValidJson(stopping)) << stopping;
  EXPECT_NE(stopping.find("\"status\": \"stopping\""), std::string::npos);
}

TEST(HealthzJsonTest, RendersPerShardReplicaHealth) {
  ReplicaSetStatus shard;
  shard.shard = 3;
  shard.replicated = true;
  shard.log_head = 1234;
  shard.scrub_pages_verified = 500;
  shard.scrub_corrupt_found = 2;
  shard.scrub_pages_healed = 2;
  shard.failovers = 7;
  shard.recoveries = 1;
  ReplicaStatus healthy;
  healthy.state = ReplicaState::kHealthy;
  healthy.watermark = 1234;
  ReplicaStatus behind;
  behind.state = ReplicaState::kRecovering;
  behind.watermark = 1200;
  behind.lag = 34;
  behind.quarantined_pages = 1;
  behind.read_failures = 4;
  shard.replicas = {healthy, behind};

  const std::string body = HealthzJson(true, 60, {shard});
  EXPECT_TRUE(IsValidJson(body)) << body;
  for (const char* key :
       {"\"shard\": 3", "\"replicated\": true", "\"log_head\": 1234",
        "\"failovers\": 7", "\"recoveries\": 1",
        "\"scrub\": {\"pages_verified\": 500", "\"corrupt_found\": 2",
        "\"pages_healed\": 2", "\"state\": \"healthy\"",
        "\"state\": \"recovering\"", "\"watermark\": 1200", "\"lag\": 34",
        "\"quarantined_pages\": 1", "\"read_failures\": 4"}) {
    EXPECT_NE(body.find(key), std::string::npos) << key << " in " << body;
  }
}

// ---------------------------------------------------------------------------
// Minimal HTTP/1.1 response parsing for conformance checks.

struct HttpResponse {
  int status = 0;
  std::map<std::string, std::string> headers;
  std::string body;

  std::string Header(const std::string& name) const {
    auto it = headers.find(name);
    return it == headers.end() ? "" : it->second;
  }
};

HttpResponse ParseHttp(const std::string& raw) {
  HttpResponse r;
  const size_t line_end = raw.find("\r\n");
  EXPECT_NE(line_end, std::string::npos) << raw;
  const size_t sp = raw.find(' ');
  if (sp != std::string::npos && sp < line_end) {
    r.status = std::atoi(raw.c_str() + sp + 1);
  }
  const size_t hdr_end = raw.find("\r\n\r\n");
  EXPECT_NE(hdr_end, std::string::npos) << raw;
  size_t pos = line_end + 2;
  while (pos < hdr_end) {
    const size_t eol = raw.find("\r\n", pos);
    const size_t colon = raw.find(':', pos);
    EXPECT_NE(colon, std::string::npos);
    EXPECT_LT(colon, eol);
    std::string name = raw.substr(pos, colon - pos);
    size_t vstart = colon + 1;
    while (vstart < eol && raw[vstart] == ' ') ++vstart;
    r.headers[name] = raw.substr(vstart, eol - vstart);
    pos = eol + 2;
  }
  r.body = raw.substr(hdr_end + 4);
  return r;
}

std::string HexToBytes(const std::string& hex) {
  std::string out;
  EXPECT_EQ(hex.size() % 2, 0u);
  out.reserve(hex.size() / 2);
  auto nib = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    const int hi = nib(hex[i]), lo = nib(hex[i + 1]);
    EXPECT_GE(hi, 0) << "non-hex digit in request_hex";
    EXPECT_GE(lo, 0) << "non-hex digit in request_hex";
    out.push_back(static_cast<char>(hi << 4 | lo));
  }
  return out;
}

class IntrospectionTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions opts = {}) {
    index_ = MakeIndex(ServingCorpus(), /*seed=*/21);
    server_ = std::make_unique<Server>(index_.get(), opts);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  Result<std::unique_ptr<Client>> Connect(ClientOptions opts = {}) {
    opts.port = server_->port();
    if (opts.recv_timeout_ms == 0) opts.recv_timeout_ms = 10000;
    return Client::Connect(opts);
  }

  std::string Get(const std::string& path) {
    auto res = HttpGet("127.0.0.1", server_->port(), path);
    EXPECT_TRUE(res.ok()) << path << ": " << res.status().ToString();
    return res.ok() ? res.ValueOrDie() : "";
  }

  std::unique_ptr<ShardedIndex> index_;
  std::unique_ptr<Server> server_;
};

// A traced request comes back with a span timeline covering the serving
// stages, and the timeline is consistent: the server's end-to-end time
// bounds every stage and is itself bounded by the client-observed wall
// time; the synchronous serving stages sum to no more than the total.
TEST_F(IntrospectionTest, TracedResponseTimelineIsConsistent) {
  StartServer();
  const CorpusOptions copt = ServingCorpus();
  const auto queries = MakeQueries(copt, 5, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/111);
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::vector<uint64_t> seen_ids;
  for (size_t i = 0; i < queries.size(); ++i) {
    Request req = SearchRequest(queries[i], i, 0.5);
    req.trace = true;
    req.no_cache = true;  // force the full queue + index path
    const uint64_t t0 = obs::NowNanos();
    auto wire = client.ValueOrDie()->Call(req);
    const uint64_t wall_ns = obs::NowNanos() - t0;
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    const Response& resp = wire.ValueOrDie();
    ASSERT_EQ(resp.outcome, ResponseOutcome::kOk) << resp.message;
    ASSERT_TRUE(resp.has_trace);
    EXPECT_NE(resp.trace.trace_id, 0u);
    EXPECT_GT(resp.trace.total_ns, 0u);
    // Server-measured total is within the client-observed wall time.
    EXPECT_LE(resp.trace.total_ns, wall_ns);

    std::map<std::string, uint64_t> stage;
    for (const auto& s : resp.trace.spans) {
      EXPECT_FALSE(s.name.empty());
      EXPECT_LE(s.name.size(), kMaxTraceName);
      EXPECT_GE(s.calls, 1u);
      // No single stage outruns the request's end-to-end time.
      EXPECT_LE(s.total_ns, resp.trace.total_ns) << s.name;
      stage[s.name] += s.total_ns;
    }
    // The serving stages are all present...
    for (const char* name : {"admission", "queue_wait", "encode"}) {
      EXPECT_TRUE(stage.count(name)) << "missing stage " << name;
    }
    // ...as is the wrapper's search stage.
    EXPECT_TRUE(stage.count("search"));
    // The wrapper's search and the serving stages around it sum to no
    // more than the server's end-to-end time.
    EXPECT_LE(stage["admission"] + stage["queue_wait"] + stage["search"] +
                  stage["encode"],
              resp.trace.total_ns);

    std::map<std::string, uint64_t> notes;
    for (const auto& a : resp.trace.annotations) notes[a.name] = a.value;
    EXPECT_TRUE(notes.count("batch_size"));
    ASSERT_TRUE(notes.count("results"));
    EXPECT_EQ(notes["results"], resp.results.size());

    // Distinct requests get distinct trace ids.
    seen_ids.push_back(resp.trace.trace_id);
  }
  std::sort(seen_ids.begin(), seen_ids.end());
  EXPECT_EQ(std::unique(seen_ids.begin(), seen_ids.end()),
            seen_ids.end());
}

// The differential acceptance property: tracing never changes the
// answer. Every traced response carries exactly the results of its
// untraced twin and of a direct library call.
TEST_F(IntrospectionTest, TracingDoesNotPerturbResults) {
  StartServer();
  const CorpusOptions copt = ServingCorpus();
  auto queries = MakeQueries(copt, 20, /*qn=*/2, /*k=*/10, Semantics::kOr,
                             /*seed=*/121);
  const auto and_q = MakeQueries(copt, 20, /*qn=*/2, /*k=*/10,
                                 Semantics::kAnd, /*seed=*/122);
  queries.insert(queries.end(), and_q.begin(), and_q.end());

  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto direct = index_->Search(queries[i], 0.5);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    const uint64_t expect = ResultChecksum(direct.ValueOrDie());

    Request plain = SearchRequest(queries[i], 2 * i, 0.5);
    plain.no_cache = true;
    Request traced = SearchRequest(queries[i], 2 * i + 1, 0.5);
    traced.no_cache = true;
    traced.trace = true;

    auto r0 = client.ValueOrDie()->Call(plain);
    auto r1 = client.ValueOrDie()->Call(traced);
    ASSERT_TRUE(r0.ok() && r1.ok());
    ASSERT_EQ(r0.ValueOrDie().outcome, ResponseOutcome::kOk);
    ASSERT_EQ(r1.ValueOrDie().outcome, ResponseOutcome::kOk);
    EXPECT_FALSE(r0.ValueOrDie().has_trace);
    EXPECT_TRUE(r1.ValueOrDie().has_trace);
    EXPECT_EQ(ResultChecksum(r0.ValueOrDie().results), expect) << i;
    EXPECT_EQ(ResultChecksum(r1.ValueOrDie().results), expect) << i;
  }
}

// Traced requests on the short-circuit paths still get timelines: a
// result-cache hit is annotated as such (and shares the cache line of
// its untraced twin), and a shed response carries its admission stage.
TEST_F(IntrospectionTest, CacheHitAndShedCarryTimelines) {
  StartServer();
  const CorpusOptions copt = ServingCorpus();
  const auto queries = MakeQueries(copt, 1, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/131);
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Populate the cache untraced, then hit it traced.
  auto miss = client.ValueOrDie()->Call(SearchRequest(queries[0], 1, 0.5));
  ASSERT_TRUE(miss.ok());
  ASSERT_EQ(miss.ValueOrDie().outcome, ResponseOutcome::kOk);

  Request traced = SearchRequest(queries[0], 2, 0.5);
  traced.trace = true;
  auto hit = client.ValueOrDie()->Call(traced);
  ASSERT_TRUE(hit.ok());
  const Response& resp = hit.ValueOrDie();
  ASSERT_EQ(resp.outcome, ResponseOutcome::kOk);
  ASSERT_TRUE(resp.has_trace);
  EXPECT_EQ(ResultChecksum(resp.results),
            ResultChecksum(miss.ValueOrDie().results));
  bool cache_hit_note = false;
  for (const auto& a : resp.trace.annotations) {
    if (a.name == "result_cache_hit" && a.value == 1) cache_hit_note = true;
  }
  EXPECT_TRUE(cache_hit_note);
  bool cache_stage = false;
  for (const auto& s : resp.trace.spans) {
    if (s.name == "result_cache") cache_stage = true;
  }
  EXPECT_TRUE(cache_stage);
}

TEST_F(IntrospectionTest, TracedShedCarriesTimeline) {
  ServerOptions opts;
  opts.max_queue = 0;  // shed every search deterministically
  StartServer(opts);
  const CorpusOptions copt = ServingCorpus();
  const auto queries = MakeQueries(copt, 1, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/141);
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  Request req = SearchRequest(queries[0], 7, 0.5);
  req.trace = true;
  auto resp = client.ValueOrDie()->Call(req);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kShed);
  ASSERT_TRUE(resp.ValueOrDie().has_trace);
  bool admission = false, shed_note = false;
  for (const auto& s : resp.ValueOrDie().trace.spans) {
    if (s.name == "admission") admission = true;
  }
  for (const auto& a : resp.ValueOrDie().trace.annotations) {
    if (a.name == "shed" && a.value == 1) shed_note = true;
  }
  EXPECT_TRUE(admission);
  EXPECT_TRUE(shed_note);
}

// With the threshold on the floor, every request under concurrent load
// lands in the slow-query log, and each captured record's canonical
// request bytes decode and re-encode byte-identically (replayable).
TEST_F(IntrospectionTest, SlowLogCapturesUnderConcurrentLoad) {
  ServerOptions opts;
  opts.slow_threshold_us = 0;  // capture everything
  opts.slow_log_ring = 16;
  opts.slow_log_top = 4;
  opts.worker_threads = 3;
  StartServer(opts);
  const CorpusOptions copt = ServingCorpus();
  constexpr int kClients = 4;
  constexpr int kPerClient = 25;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientOptions copts;
      copts.port = server_->port();
      copts.recv_timeout_ms = 20000;
      auto client = Client::Connect(copts);
      if (!client.ok()) {
        ++failures;
        return;
      }
      const auto queries = MakeQueries(copt, kPerClient, /*qn=*/2,
                                       /*k=*/10, Semantics::kOr,
                                       /*seed=*/200 + c);
      for (int i = 0; i < kPerClient; ++i) {
        Request req = SearchRequest(
            queries[i], uint64_t{static_cast<uint32_t>(c)} << 32 | i, 0.5,
            /*tenant=*/static_cast<uint32_t>(c));
        req.no_cache = true;
        req.trace = i % 2 == 0;  // mix traced and untraced records
        auto resp = client.ValueOrDie()->Call(req);
        if (!resp.ok() ||
            resp.ValueOrDie().outcome != ResponseOutcome::kOk) {
          ++failures;
          return;
        }
      }
    });
  }
  // Read the log concurrently with the writers (the TSan CI config runs
  // this test; a torn read or lock-order issue fails there).
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      (void)server_->slow_log().Recent();
      (void)server_->slow_log().Slowest();
      (void)Get("/tracez");
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true);
  reader.join();
  ASSERT_EQ(failures.load(), 0);

  const obs::SlowQueryLog& log = server_->slow_log();
  EXPECT_EQ(log.recorded(), uint64_t{kClients} * kPerClient);
  const auto recent = log.Recent();
  ASSERT_EQ(recent.size(), opts.slow_log_ring);  // ring is full
  size_t with_trace_id = 0;
  for (const auto& rec : recent) {
    EXPECT_EQ(rec.outcome, "ok");
    if (rec.trace_id != 0) ++with_trace_id;
    // The captured frame replays: hex -> frame -> decode -> re-encode is
    // byte-identical (the canonical-bytes property of the codec).
    const std::string frame = HexToBytes(rec.request_hex);
    ASSERT_GT(frame.size(), kFrameHeaderBytes);
    auto decoded = DecodeRequest(
        reinterpret_cast<const uint8_t*>(frame.data()) + kFrameHeaderBytes,
        frame.size() - kFrameHeaderBytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    std::string reencoded;
    EncodeRequest(decoded.ValueOrDie(), &reencoded);
    EXPECT_EQ(reencoded, frame);
    // Every record carries a timeline (traced requests bring the full
    // span set; untraced ones get synthesized server stages).
    EXPECT_FALSE(rec.trace.stages.empty());
  }
  // Traced requests (half the load) carry their server-stamped id.
  EXPECT_GT(with_trace_id, 0u);
  // The rolling top is full and sorted slowest-first.
  const auto top = log.Slowest();
  ASSERT_EQ(top.size(), opts.slow_log_top);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].total_us, top[i].total_us);
  }
}

// An untraced request's slow-log record carries that request's own work
// counters and fan-out outcome as annotations -- each once, and equal to
// what a direct search of the same query puts in its context.
TEST_F(IntrospectionTest, UntracedSlowLogRecordCarriesWorkCounters) {
  ServerOptions opts;
  opts.slow_threshold_us = 0;  // capture everything
  StartServer(opts);
  const auto queries = MakeQueries(ServingCorpus(), 5, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/131);
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    Request req = SearchRequest(queries[i], i, 0.5);
    req.no_cache = true;
    auto wire = client.ValueOrDie()->Call(req);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    ASSERT_EQ(wire.ValueOrDie().outcome, ResponseOutcome::kOk);

    QueryStats direct;
    Query q = req.ToQuery();
    q.control.stats = &direct;
    ASSERT_TRUE(index_->Search(q, 0.5).ok());
    ASSERT_GT(direct.work.Get("docs_scored"), 0u);

    // The record is filed before the response is sent.
    const auto recent = server_->slow_log().Recent();
    ASSERT_EQ(recent.size(), i + 1);
    const obs::SlowQueryRecord& rec = recent.back();
    EXPECT_EQ(rec.trace_id, 0u);
    std::map<std::string, uint64_t> notes;
    std::map<std::string, int> seen;
    for (const auto& [key, value] : rec.trace.annotations) {
      notes[key] = value;
      ++seen[key];
    }
    for (const auto& [key, n] : seen) EXPECT_EQ(n, 1) << key;
    EXPECT_EQ(notes["docs_scored"], direct.work.Get("docs_scored"));
    EXPECT_EQ(notes["cells_pruned_score"],
              direct.work.Get("cells_pruned_score"));
    // The record carries the index's work counters and nothing else: no
    // failover happened, and the wrapper adds no annotation of its own.
    EXPECT_EQ(seen.size(), direct.work.count);
  }
}

// All four introspection endpoints serve strictly valid JSON while
// search traffic is in flight, and /statusz reflects the SLO windows.
TEST_F(IntrospectionTest, EndpointsServeValidJsonUnderTraffic) {
  StartServer();
  const CorpusOptions copt = ServingCorpus();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::atomic<bool> exited{false};
  std::thread traffic([&] {
    auto client = Connect();
    const auto queries = MakeQueries(copt, 50, /*qn=*/2, /*k=*/10,
                                     Semantics::kOr, /*seed=*/151);
    uint64_t id = 0;
    while (client.ok() && !stop.load()) {
      Request req =
          SearchRequest(queries[id % queries.size()], id, 0.5,
                        /*tenant=*/static_cast<uint32_t>(id % 3));
      req.trace = id % 4 == 0;
      if (!client.ValueOrDie()->Call(req).ok()) break;
      served.store(++id);
    }
    exited.store(true);
  });

  for (int round = 0; round < 3; ++round) {
    for (const char* path : {"/statusz", "/tracez", "/cachez", "/healthz"}) {
      const HttpResponse r = ParseHttp(Get(path));
      EXPECT_EQ(r.status, 200) << path;
      EXPECT_EQ(r.Header("Content-Type"), "application/json") << path;
      EXPECT_EQ(r.Header("Connection"), "close") << path;
      EXPECT_EQ(r.Header("Content-Length"),
                std::to_string(r.body.size()))
          << path;
      EXPECT_TRUE(IsValidJson(r.body)) << path << ":\n" << r.body;
    }
  }
  // The endpoint rounds can finish before the first search is answered;
  // keep the traffic running until every tenant has been served once, so
  // /statusz below has their SLO windows to report.
  while (served.load() < 3 && !exited.load()) std::this_thread::yield();
  stop.store(true);
  traffic.join();

  // /statusz carries build identity, config, live gauges, and the SLO
  // windows of the tenants that sent traffic.
  const HttpResponse statusz = ParseHttp(Get("/statusz"));
  for (const char* key :
       {"\"build\"", "\"config\"", "\"live\"", "\"slo\"",
        "\"window_seconds\"", "\"protocol_version\"", "\"documents\"",
        "\"requests_ok\"", "\"uptime_s\"", "\"replication\"",
        "\"replicated_shards\""}) {
    EXPECT_NE(statusz.body.find(key), std::string::npos) << key;
  }
  EXPECT_NE(statusz.body.find("\"tenant\": 0"), std::string::npos)
      << statusz.body;

  // /tracez exposes both the sampled-trace ring and the slow-query log.
  const HttpResponse tracez = ParseHttp(Get("/tracez"));
  for (const char* key :
       {"\"sample_rate\"", "\"recent\"", "\"slow_log\"", "\"threshold_us\"",
        "\"slowest\""}) {
    EXPECT_NE(tracez.body.find(key), std::string::npos) << key;
  }

  // /cachez exposes per-level hit ratios and stripe balance.
  const HttpResponse cachez = ParseHttp(Get("/cachez"));
  for (const char* key :
       {"\"levels\"", "\"result_cache\"", "\"cell_cache\"",
        "\"buffer_pool\"", "\"hit_ratio\"", "\"replayed_hits\"",
        "\"result_cache_stripe_entries\""}) {
    EXPECT_NE(cachez.body.find(key), std::string::npos) << key;
  }

  // /healthz says ok while running; the index here is not replicated, so
  // the "shards" section is present but empty.
  const HttpResponse healthz = ParseHttp(Get("/healthz"));
  EXPECT_NE(healthz.body.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(healthz.body.find("\"shards\": []"), std::string::npos);
}

// Conformance of the /metrics handler and the 404 fallback: exact
// Content-Length, the Prometheus text content type, Connection: close,
// and the fixed 404 body. The SLO gauges appear in the exposition.
TEST_F(IntrospectionTest, MetricsHandlerConformance) {
  StartServer();
  const CorpusOptions copt = ServingCorpus();
  const auto queries = MakeQueries(copt, 3, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/161);
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(
        client.ValueOrDie()->Call(SearchRequest(queries[i], i, 0.5)).ok());
  }

  const HttpResponse metrics = ParseHttp(Get("/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.Header("Content-Type"), "text/plain; version=0.0.4");
  EXPECT_EQ(metrics.Header("Connection"), "close");
  ASSERT_TRUE(metrics.headers.count("Content-Length"));
  EXPECT_EQ(metrics.Header("Content-Length"),
            std::to_string(metrics.body.size()));
  EXPECT_FALSE(metrics.body.empty());
  EXPECT_EQ(metrics.body.back(), '\n');
  // The scrape pulls the SLO window gauges and the slow-query counter.
  for (const char* series :
       {"i3_slo_window_requests", "i3_slo_window_p99_us",
        "i3_slow_queries_total", "i3_net_traced_requests_total"}) {
    EXPECT_NE(metrics.body.find(series), std::string::npos) << series;
  }

  const HttpResponse missing = ParseHttp(Get("/nope"));
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(missing.body, "not found\n");
  EXPECT_EQ(missing.Header("Content-Type"), "text/plain");
  EXPECT_EQ(missing.Header("Connection"), "close");
  EXPECT_EQ(missing.Header("Content-Length"),
            std::to_string(missing.body.size()));
}

}  // namespace
}  // namespace net
}  // namespace i3
