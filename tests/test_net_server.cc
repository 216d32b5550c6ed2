// End-to-end tests of the serving front end (net/server.h) over loopback:
// a differential harness proving wire responses byte-identical (by
// order-sensitive checksum) to direct ReplicaSet::Search calls under a
// seeded concurrent mixed workload; protocol-abuse scenarios (garbage,
// oversized frames, slow dribbling writers, pipelining); the HTTP metrics
// side channel; the admission-control contract -- a saturating tenant
// is shed fast with bounded latency while other tenants are unaffected;
// and the event loops -- connections spread over them, a loop stalled on
// storage does not hold up the others, and a client that never reads is
// met with back-pressure instead of unbounded buffering.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "i3/i3_index.h"
#include "model/replica_set.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/token_bucket.h"
#include "obs/clock.h"
#include "storage/fault_injection.h"
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

/// The one-replica serving set of an I3 index over `copt`'s space, with
/// `factory` (when set) as its page file.
std::unique_ptr<ReplicaSet> WrappedI3(
    const CorpusOptions& copt,
    std::function<std::unique_ptr<PageFile>(size_t)> factory = nullptr) {
  I3Options opt;
  opt.space = copt.space;
  opt.page_size = codec::kV2MinPageSize;
  opt.signature_bits = 64;
  opt.page_file_factory = std::move(factory);
  std::vector<std::unique_ptr<SpatialKeywordIndex>> one;
  one.push_back(std::make_unique<I3Index>(opt));
  return std::make_unique<ReplicaSet>(std::move(one));
}

std::unique_ptr<ReplicaSet> MakeIndex(const CorpusOptions& copt,
                                      uint64_t seed) {
  auto index = WrappedI3(copt);
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

class NetServerTest : public ::testing::Test {
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

  std::unique_ptr<ReplicaSet> index_;
  std::unique_ptr<Server> server_;
};

TEST_F(NetServerTest, PingPong) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.ValueOrDie()->Ping().ok());
  }
}

// The core differential property: responses served over the wire carry
// exactly the results a direct library call produces -- same docs, same
// scores, same order -- proven via the order-sensitive checksum.
TEST_F(NetServerTest, WireResultsMatchDirectSearch) {
  StartServer();
  const CorpusOptions copt = ServingCorpus();
  auto queries = MakeQueries(copt, /*num_queries=*/30, /*qn=*/2, /*k=*/10,
                             Semantics::kOr, /*seed=*/31);
  const auto and_queries =
      MakeQueries(copt, /*num_queries=*/30, /*qn=*/2, /*k=*/10,
                  Semantics::kAnd, /*seed=*/32);
  queries.insert(queries.end(), and_queries.begin(), and_queries.end());

  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    const double alpha = i % 2 == 0 ? 0.5 : 0.8;
    auto direct = index_->Search(queries[i], alpha);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    auto wire =
        client.ValueOrDie()->Call(SearchRequest(queries[i], i, alpha));
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    const Response& resp = wire.ValueOrDie();
    ASSERT_EQ(resp.outcome, ResponseOutcome::kOk) << resp.message;
    EXPECT_EQ(resp.request_id, i);
    EXPECT_EQ(ResultChecksum(resp.results),
              ResultChecksum(direct.ValueOrDie()))
        << "query " << i;
  }
  EXPECT_EQ(server_->requests_error(), 0u);
}

// N concurrent clients, pipelined batches, seeded mixed AND/OR workload:
// every response matches its request id and the direct result checksum,
// under whatever batching/reordering the server does internally.
TEST_F(NetServerTest, ConcurrentClientsDifferential) {
  ServerOptions sopts;
  sopts.worker_threads = 3;
  StartServer(sopts);
  const CorpusOptions copt = ServingCorpus();
  constexpr int kClients = 6;
  constexpr int kPerClient = 40;

  // Precompute direct baselines (the index is concurrent-search safe, but
  // a fixed baseline keeps the comparison exact and race-free).
  std::vector<std::vector<Query>> workload(kClients);
  std::vector<std::vector<uint64_t>> baseline(kClients);
  for (int c = 0; c < kClients; ++c) {
    workload[c] =
        MakeQueries(copt, kPerClient, /*qn=*/2, /*k=*/10,
                    c % 2 == 0 ? Semantics::kAnd : Semantics::kOr,
                    /*seed=*/100 + c);
    for (const Query& q : workload[c]) {
      auto direct = index_->Search(q, 0.5);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      baseline[c].push_back(ResultChecksum(direct.ValueOrDie()));
    }
  }

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
      // Pipeline in bursts of 4, then read the burst back. Responses on
      // one connection may interleave across worker batches; match by id.
      constexpr int kBurst = 4;
      for (int base = 0; base < kPerClient; base += kBurst) {
        for (int i = base; i < base + kBurst; ++i) {
          const uint64_t id = uint64_t{static_cast<uint32_t>(c)} << 32 | i;
          if (!client.ValueOrDie()
                   ->Send(SearchRequest(workload[c][i], id, 0.5))
                   .ok()) {
            ++failures;
            return;
          }
        }
        for (int i = 0; i < kBurst; ++i) {
          auto resp = client.ValueOrDie()->ReadResponse();
          if (!resp.ok() ||
              resp.ValueOrDie().outcome != ResponseOutcome::kOk) {
            ++failures;
            return;
          }
          const uint64_t id = resp.ValueOrDie().request_id;
          const int qi = static_cast<int>(id & 0xffffffff);
          const int qc = static_cast<int>(id >> 32);
          if (qc != c || qi < base || qi >= base + kBurst ||
              ResultChecksum(resp.ValueOrDie().results) !=
                  baseline[qc][qi]) {
            ++failures;
            return;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server_->requests_ok(), uint64_t{kClients} * kPerClient);
  EXPECT_EQ(server_->requests_error(), 0u);
  EXPECT_EQ(server_->requests_shed(), 0u);
}

// A client dribbling one frame a few bytes at a time (slow writer /
// pathological segmentation) must still be served correctly.
TEST_F(NetServerTest, SlowPartialWritesAreReassembled) {
  StartServer();
  const CorpusOptions copt = ServingCorpus();
  const auto queries = MakeQueries(copt, 5, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/41);
  ClientOptions copts;
  copts.write_chunk = 3;
  copts.write_chunk_delay_us = 200;
  auto client = Connect(copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto direct = index_->Search(queries[i], 0.5);
    ASSERT_TRUE(direct.ok());
    auto wire = client.ValueOrDie()->Call(SearchRequest(queries[i], i, 0.5));
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    ASSERT_EQ(wire.ValueOrDie().outcome, ResponseOutcome::kOk);
    EXPECT_EQ(ResultChecksum(wire.ValueOrDie().results),
              ResultChecksum(direct.ValueOrDie()));
  }
}

// Malformed-but-framed payloads get an error response and the connection
// survives; an oversized length prefix gets an error response and a
// close; raw garbage cannot crash the server. In every case the server
// keeps serving other clients.
TEST_F(NetServerTest, ProtocolAbuseGetsCleanErrors) {
  StartServer();
  const CorpusOptions copt = ServingCorpus();
  const auto queries = MakeQueries(copt, 1, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/51);

  {  // Malformed payload inside a sound frame: error, connection lives.
    auto client = Connect();
    ASSERT_TRUE(client.ok());
    std::string frame;
    EncodeRequest(SearchRequest(queries[0], 77, 0.5), &frame);
    frame[kFrameHeaderBytes] ^= 0xff;  // break the magic
    ASSERT_TRUE(client.ValueOrDie()
                    ->SendBytes(frame.data(), frame.size())
                    .ok());
    auto resp = client.ValueOrDie()->ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kError);
    // Framing stayed sound, so the same connection still serves.
    EXPECT_TRUE(client.ValueOrDie()->Ping().ok());
  }
  {  // Damaged payload with an intact request id: the error echoes it.
    auto client = Connect();
    ASSERT_TRUE(client.ok());
    std::string frame;
    EncodeRequest(SearchRequest(queries[0], 0xabcd, 0.5), &frame);
    frame[kFrameHeaderBytes + 20] = 9;  // semantics out of range
    ASSERT_TRUE(client.ValueOrDie()
                    ->SendBytes(frame.data(), frame.size())
                    .ok());
    auto resp = client.ValueOrDie()->ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kError);
    EXPECT_EQ(resp.ValueOrDie().request_id, 0xabcdu);
  }
  {  // Oversized length prefix: error response, then the server closes.
    auto client = Connect();
    ASSERT_TRUE(client.ok());
    const uint32_t huge = kMaxFramePayload + 1;
    uint8_t hdr[4];
    for (int i = 0; i < 4; ++i) hdr[i] = static_cast<uint8_t>(huge >> i * 8);
    ASSERT_TRUE(client.ValueOrDie()->SendBytes(hdr, sizeof(hdr)).ok());
    auto resp = client.ValueOrDie()->ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kError);
    auto after = client.ValueOrDie()->ReadResponse();
    EXPECT_FALSE(after.ok());  // clean close
  }
  {  // Seeded raw-garbage storm across fresh connections.
    Rng rng(61);
    for (int iter = 0; iter < 20; ++iter) {
      auto client = Connect({.recv_timeout_ms = 2000});
      ASSERT_TRUE(client.ok());
      std::string junk;
      const int n = static_cast<int>(rng.UniformInt(1, 200));
      for (int i = 0; i < n; ++i) {
        junk.push_back(static_cast<char>(rng.UniformInt(0, 255)));
      }
      ASSERT_TRUE(
          client.ValueOrDie()->SendBytes(junk.data(), junk.size()).ok());
      client.ValueOrDie()->CloseWrite();
      // Whatever comes back (error frames, a close, or a timeout while
      // the server waits for more bytes) must be clean, not a crash.
      while (client.ValueOrDie()->ReadResponse().ok()) {
      }
    }
  }
  // The server survived it all.
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.ValueOrDie()->Ping().ok());
}

TEST_F(NetServerTest, HttpMetricsSideChannel) {
  StartServer();
  // Generate some traffic so the serving metrics exist and move.
  const CorpusOptions copt = ServingCorpus();
  const auto queries = MakeQueries(copt, 3, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/71);
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto resp = client.ValueOrDie()->Call(SearchRequest(queries[i], i, 0.5));
    ASSERT_TRUE(resp.ok());
  }

  auto metrics = HttpGet("127.0.0.1", server_->port(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const std::string& text = metrics.ValueOrDie();
  EXPECT_NE(text.find("HTTP/1.1 200 OK"), std::string::npos);
  for (const char* series :
       {"i3_net_connections", "i3_net_queue_depth", "i3_requests_shed_total",
        "i3_net_requests_total", "i3_request_latency_us",
        "i3_net_batch_size"}) {
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }

  auto missing = HttpGet("127.0.0.1", server_->port(), "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_NE(missing.ValueOrDie().find("404"), std::string::npos);
}

// Admission control, tenant isolation, and shed latency: a tenant with a
// tiny budget saturates; its overflow is shed fast (never touching the
// index) while a second tenant's requests all succeed.
TEST_F(NetServerTest, SaturatedTenantShedsFastAndIsolated) {
  ServerOptions opts;
  opts.worker_threads = 2;
  // Tenant 1 gets ~5 requests of budget; tenant 2 is unlimited.
  opts.tenant_limits.push_back({1, {.rate = 1.0, .burst = 5.0}});
  StartServer(opts);
  const CorpusOptions copt = ServingCorpus();
  const auto queries = MakeQueries(copt, 60, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/81);

  auto hog = Connect();
  auto polite = Connect();
  ASSERT_TRUE(hog.ok());
  ASSERT_TRUE(polite.ok());

  int hog_ok = 0, hog_shed = 0;
  uint64_t worst_shed_us = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const uint64_t t0 = obs::NowNanos();
    auto resp = hog.ValueOrDie()->Call(
        SearchRequest(queries[i], i, 0.5, /*tenant=*/1));
    const uint64_t elapsed_us = (obs::NowNanos() - t0) / 1000;
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    if (resp.ValueOrDie().outcome == ResponseOutcome::kShed) {
      ++hog_shed;
      worst_shed_us = std::max(worst_shed_us, elapsed_us);
      EXPECT_TRUE(resp.ValueOrDie().results.empty());
      EXPECT_FALSE(resp.ValueOrDie().message.empty());
    } else {
      ASSERT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kOk);
      ++hog_ok;
    }
  }
  // The burst passes, the overflow sheds.
  EXPECT_GE(hog_ok, 5);
  EXPECT_GE(hog_shed, 40);
  // Shed responses never run a search; even a generous bound (loopback
  // RTT + loop-thread turn) separates them from index latency.
  EXPECT_LT(worst_shed_us, 100000u);

  // The polite tenant is untouched by the hog's saturation.
  for (size_t i = 0; i < 20; ++i) {
    auto direct = index_->Search(queries[i], 0.5);
    ASSERT_TRUE(direct.ok());
    auto resp = polite.ValueOrDie()->Call(
        SearchRequest(queries[i], 1000 + i, 0.5, /*tenant=*/2));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kOk);
    EXPECT_EQ(ResultChecksum(resp.ValueOrDie().results),
              ResultChecksum(direct.ValueOrDie()));
  }

  EXPECT_EQ(server_->requests_shed(), static_cast<uint64_t>(hog_shed));
  EXPECT_EQ(server_->requests_error(), 0u);

  // The shed counter and queue gauge are visible on /metrics.
  auto metrics = HttpGet("127.0.0.1", server_->port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  const std::string& text = metrics.ValueOrDie();
  // Anchor at line start so the sample line matches, not its HELP line.
  const size_t pos = text.find("\ni3_requests_shed_total ");
  ASSERT_NE(pos, std::string::npos);
  const double shed_value =
      std::strtod(text.c_str() + pos + strlen("\ni3_requests_shed_total "),
                  nullptr);
  EXPECT_GE(shed_value, static_cast<double>(hog_shed));
}

// max_queue = 0 sheds every search deterministically (the overload
// backstop with the bar on the floor) while pings still answer.
TEST_F(NetServerTest, QueueBoundShedsWhenFull) {
  ServerOptions opts;
  opts.max_queue = 0;
  StartServer(opts);
  const CorpusOptions copt = ServingCorpus();
  const auto queries = MakeQueries(copt, 5, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/91);
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto resp = client.ValueOrDie()->Call(SearchRequest(queries[i], i, 0.5));
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kShed);
    EXPECT_NE(resp.ValueOrDie().message.find("overloaded"),
              std::string::npos);
  }
  EXPECT_TRUE(client.ValueOrDie()->Ping().ok());
  EXPECT_EQ(server_->requests_shed(), queries.size());
}

// With two loops the acceptor hands each connection to the loop with the
// fewest open ones, so four connections land two per loop, each loop
// serves the searches of its own connections, and /statusz lists both.
TEST_F(NetServerTest, ConnectionsSpreadEvenlyOverLoops) {
  ServerOptions opts;
  opts.worker_threads = 2;
  StartServer(opts);
  const auto queries = MakeQueries(ServingCorpus(), 4, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/95);
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 4; ++i) {
    auto client = Connect();
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    clients.push_back(client.MoveValue());
    // The pong proves the connection's loop has adopted it.
    ASSERT_TRUE(clients.back()->Ping().ok());
  }
  std::vector<LoopStatus> loops = server_->loop_statuses();
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_EQ(loops[0].open_connections, 2u);
  EXPECT_EQ(loops[1].open_connections, 2u);

  for (size_t i = 0; i < clients.size(); ++i) {
    auto direct = index_->Search(queries[i], 0.5);
    ASSERT_TRUE(direct.ok());
    auto resp = clients[i]->Call(SearchRequest(queries[i], i, 0.5));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp.ValueOrDie().outcome, ResponseOutcome::kOk);
    EXPECT_EQ(ResultChecksum(resp.ValueOrDie().results),
              ResultChecksum(direct.ValueOrDie()));
  }
  loops = server_->loop_statuses();
  EXPECT_EQ(loops[0].searches, 2u);
  EXPECT_EQ(loops[1].searches, 2u);

  auto statusz = HttpGet("127.0.0.1", server_->port(), "/statusz");
  ASSERT_TRUE(statusz.ok()) << statusz.status().ToString();
  const std::string& body = statusz.ValueOrDie();
  EXPECT_NE(body.find("\"loops\": [{\"loop\": 0, "), std::string::npos)
      << body;
  EXPECT_NE(body.find("{\"loop\": 1, "), std::string::npos) << body;
  EXPECT_EQ(body.find("{\"loop\": 2, "), std::string::npos) << body;
}

// A search stalled on storage holds up only its own loop: while loop 0
// sleeps through injected device latency, a ping on loop 1's connection
// is answered at once.
TEST_F(NetServerTest, SearchStalledOnStorageDoesNotDelayOtherLoop) {
  const CorpusOptions copt = ServingCorpus();
  std::vector<FaultInjectionPageFile*> files;
  index_ = WrappedI3(copt, [&files](size_t page_size) {
    auto file = std::make_unique<FaultInjectionPageFile>(
        std::make_unique<InMemoryPageFile>(page_size));
    files.push_back(file.get());
    return file;
  });
  for (const auto& d : MakeCorpus(copt, /*seed=*/21)) {
    ASSERT_TRUE(index_->Insert(d).ok());
  }
  ServerOptions opts;
  opts.worker_threads = 2;
  server_ = std::make_unique<Server>(index_.get(), opts);
  ASSERT_TRUE(server_->Start().ok());

  // Connected one after the other, the two land on loops 0 and 1.
  auto slow = Connect({.recv_timeout_ms = 30000});
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(slow.ValueOrDie()->Ping().ok());
  auto fast = Connect();
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(fast.ValueOrDie()->Ping().ok());
  const std::vector<LoopStatus> loops = server_->loop_statuses();
  ASSERT_EQ(loops[0].open_connections, 1u);
  ASSERT_EQ(loops[1].open_connections, 1u);

  // Every device read now sleeps 30 ms, and no cache holds a page.
  FaultProfile stall;
  stall.latency_spike_rate = 1.0;
  stall.latency_spike_us = 30000;
  index_->ClearCache();
  for (auto* f : files) f->injector()->SetProfile(stall);
  const auto queries = MakeQueries(copt, 1, /*qn=*/2, /*k=*/10,
                                   Semantics::kOr, /*seed=*/96);
  Request req = SearchRequest(queries[0], 1, 0.5);
  req.no_cache = true;
  Result<Response> slow_resp = Status::IOError("not sent");
  uint64_t slow_us = 0;
  std::thread searcher([&] {
    const uint64_t t0 = obs::NowNanos();
    slow_resp = slow.ValueOrDie()->Call(req);
    slow_us = (obs::NowNanos() - t0) / 1000;
  });
  auto spikes = [&files] {
    uint64_t n = 0;
    for (auto* f : files) n += f->injector()->faults_injected();
    return n;
  };
  // Wait until loop 0 is asleep inside a device read.
  const uint64_t give_up_ns = obs::NowNanos() + 10000000000ull;
  while (spikes() == 0 && obs::NowNanos() < give_up_ns) {
    std::this_thread::yield();
  }
  ASSERT_GT(spikes(), 0u);
  const uint64_t t0 = obs::NowNanos();
  ASSERT_TRUE(fast.ValueOrDie()->Ping().ok());
  const uint64_t ping_us = (obs::NowNanos() - t0) / 1000;
  searcher.join();
  const uint64_t stalled_us = spikes() * stall.latency_spike_us;
  for (auto* f : files) f->Heal();

  ASSERT_TRUE(slow_resp.ok()) << slow_resp.status().ToString();
  ASSERT_EQ(slow_resp.ValueOrDie().outcome, ResponseOutcome::kOk);
  // The search really stalled: it slept through every spiked read, and
  // they outlast the ping's bound below...
  EXPECT_GE(slow_us, stalled_us);
  EXPECT_GT(stalled_us, 100000u);
  // ...and the other loop did not wait for it.
  EXPECT_LT(ping_us, 100000u);
}

// Back-pressure: a client that pipelines requests and never reads stops
// being read once Server::kMaxUnsentBytes of responses wait for it, so
// the server's buffer for it stays bounded even after the kernel socket
// buffers overflow; once the client reads, every response arrives.
TEST_F(NetServerTest, ClientThatNeverReadsMeetsBackPressure) {
  StartServer();
  const auto queries = MakeQueries(ServingCorpus(), 1, /*qn=*/2, /*k=*/200,
                                   Semantics::kOr, /*seed=*/97);
  auto direct = index_->Search(queries[0], 0.5);
  ASSERT_TRUE(direct.ok());
  const uint64_t want = ResultChecksum(direct.ValueOrDie());

  auto client = Connect({.recv_timeout_ms = 30000});
  ASSERT_TRUE(client.ok());
  Client* c = client.ValueOrDie().get();
  // A small fixed receive window keeps the kernel's share of the backlog
  // small, so the server's own buffer must absorb the overflow.
  const int rcvbuf = 64 * 1024;
  ::setsockopt(c->fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  // Warm the result cache: every pipelined copy is then a cheap hit.
  auto first = c->Call(SearchRequest(queries[0], 0, 0.5));
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(ResultChecksum(first.ValueOrDie().results), want);

  // Enough copies for 32 MiB of responses: far past the kernel buffers.
  std::string one_response;
  EncodeResponse(first.ValueOrDie(), &one_response);
  const size_t requests = (size_t{32} << 20) / one_response.size() + 1;
  std::string frames;
  for (size_t i = 1; i <= requests; ++i) {
    EncodeRequest(SearchRequest(queries[0], i, 0.5), &frames);
  }
  std::atomic<bool> sent{false};
  std::thread sender([&] {
    sent.store(c->SendBytes(frames.data(), frames.size()).ok());
  });
  auto peak = [this] {
    uint64_t p = 0;
    for (const LoopStatus& l : server_->loop_statuses()) {
      p = std::max(p, l.peak_unsent_bytes);
    }
    return p;
  };
  const uint64_t give_up_ns = obs::NowNanos() + 20000000000ull;
  while (peak() < Server::kMaxUnsentBytes && obs::NowNanos() < give_up_ns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Give a server that ignored the bound time to overshoot it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const uint64_t bound = Server::kMaxUnsentBytes + kFrameHeaderBytes +
                         kMaxFramePayload;
  EXPECT_GE(peak(), Server::kMaxUnsentBytes);  // the backlog reached it
  EXPECT_LT(peak(), bound);

  std::vector<bool> seen(requests + 1, false);
  for (size_t i = 0; i < requests; ++i) {
    auto resp = c->ReadResponse();
    ASSERT_TRUE(resp.ok()) << i << ": " << resp.status().ToString();
    const Response& r = resp.ValueOrDie();
    ASSERT_EQ(r.outcome, ResponseOutcome::kOk) << r.message;
    ASSERT_GE(r.request_id, 1u);
    ASSERT_LE(r.request_id, requests);
    EXPECT_FALSE(seen[r.request_id]) << r.request_id;
    seen[r.request_id] = true;
    ASSERT_EQ(ResultChecksum(r.results), want) << r.request_id;
  }
  sender.join();
  EXPECT_TRUE(sent.load());
  EXPECT_LT(peak(), bound);
  EXPECT_EQ(server_->requests_error(), 0u);
}

// Token-bucket unit behavior backing the admission tests: deterministic
// virtual time, refill capping, per-tenant independence.
TEST(TokenBucketTest, RefillAndBurstSemantics) {
  const uint64_t ns = 1000000000ull;
  TokenBucket bucket(/*rate=*/2.0, /*burst=*/4.0);
  uint64_t now = 50 * ns;
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(bucket.TryAcquire(now)) << i;
  EXPECT_FALSE(bucket.TryAcquire(now));
  now += ns / 2;  // +0.5s = +1 token at rate 2/s
  EXPECT_TRUE(bucket.TryAcquire(now));
  EXPECT_FALSE(bucket.TryAcquire(now));
  now += 60 * ns;  // long idle refills to burst, not beyond
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(bucket.TryAcquire(now)) << i;
  EXPECT_FALSE(bucket.TryAcquire(now));

  TokenBucket unlimited(/*rate=*/0.0, /*burst=*/0.0);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(unlimited.TryAcquire(now));

  TenantRateLimiter limiter({.rate = 0.0, .burst = 0.0});
  limiter.SetLimit(7, {.rate = 1.0, .burst = 2.0});
  EXPECT_TRUE(limiter.Admit(7, now));
  EXPECT_TRUE(limiter.Admit(7, now));
  EXPECT_FALSE(limiter.Admit(7, now));
  // Other tenants ride the unlimited default.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(limiter.Admit(8, now));
}

// A scan of wire tenant ids cannot grow the limiter. Under a limited
// default, tenants past the cap share one overflow bucket, which still
// sheds; under an unlimited default no tenant gets a bucket at all.
TEST(TokenBucketTest, TenantTableIsCappedAndStillSheds) {
  const uint64_t ns = 1000000000ull;
  const uint64_t now = 50 * ns;
  constexpr size_t kCap = TenantRateLimiter::kMaxTenantBuckets;
  TenantRateLimiter limiter({.rate = 1.0, .burst = 1.0});
  size_t admitted = 0;
  for (uint32_t t = 0; t < 100000; ++t) admitted += limiter.Admit(t, now);
  EXPECT_EQ(limiter.bucket_count(), kCap);
  // Each tabled tenant spent its one-token burst; the other 98976 shared
  // the overflow bucket's single token.
  EXPECT_EQ(admitted, kCap + 1);
  EXPECT_FALSE(limiter.Admit(0, now));
  EXPECT_FALSE(limiter.Admit(99999, now));
  EXPECT_TRUE(limiter.Admit(99999, now + ns));  // one token refilled
  EXPECT_FALSE(limiter.Admit(50000, now + ns));
  // Overrides still get a bucket of their own past the cap.
  limiter.SetLimit(200000, {.rate = 1.0, .burst = 3.0});
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(limiter.Admit(200000, now)) << i;
  EXPECT_FALSE(limiter.Admit(200000, now));
  EXPECT_EQ(limiter.bucket_count(), kCap + 1);

  TenantRateLimiter open({.rate = 0.0, .burst = 0.0});
  open.SetLimit(7, {.rate = 1.0, .burst = 1.0});
  for (uint32_t t = 0; t < 100000; ++t) {
    if (t == 7) continue;
    ASSERT_TRUE(open.Admit(t, now)) << t;
  }
  EXPECT_TRUE(open.Admit(7, now));
  EXPECT_FALSE(open.Admit(7, now));
  EXPECT_EQ(open.bucket_count(), 1u);  // only the override's
}

}  // namespace
}  // namespace net
}  // namespace i3
