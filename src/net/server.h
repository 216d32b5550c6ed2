// The async network serving front end: `worker_threads` epoll event loops
// answering the length-prefixed query protocol (net/protocol.h) over a
// ShardedIndex.
//
// Architecture (DESIGN.md §12), one loop turn:
//
//   epoll ─> read ─> decode ─> admission ─> result cache ─┬─> send
//                                  │   shed / hit ─────────┘   ▲
//                                  └─> the turn's searches, one
//                                      Search each ─> encode ──┘
//
//  - Loop 0 also owns the listener and hands each accepted socket to the
//    loop with the fewest open connections (mailbox + eventfd). Only that
//    loop's thread ever touches the connection, so the I/O plane needs no
//    locks.
//  - Each request is served start to finish on its connection's loop.
//    Admission control (per-tenant token buckets + a per-turn search
//    bound) and the result-cache probe run at decode: a shed or a hit is
//    answered in the turn it arrives, before that turn's searches run at
//    its end, one ShardedIndex::Search each with the request's own
//    QueryControl (deadline, trace sink, QueryStats).
//  - Trade-off: whatever arrives while a loop runs its batch (a shed, a
//    hit, a ping, an accept on loop 0) waits for it, and a search blocked
//    on storage holds up the whole loop; other loops are unaffected. At
//    most `worker_threads` searches run at once.
//  - Back-pressure: a connection owed kMaxUnsentBytes is neither read nor
//    decoded until its peer drains it.
//  - Deadlines propagate from the wire: a request's relative
//    `deadline_ms` becomes an absolute QueryControl deadline at
//    admission, so the wait for the batch counts against the budget.
//  - A connection whose first bytes are an HTTP request line is served
//    as a one-shot HTTP client: `GET /metrics` returns the process
//    metrics registry in Prometheus text format, and /statusz, /tracez,
//    /cachez, /healthz return live JSON introspection
//    (net/introspection.h); anything else 404.
//  - Observability rides the same paths without taxing them: a request
//    with the wire trace flag gets a server-stamped trace id and a span
//    timeline (admission, queue wait, per-shard search, encode) returned
//    in-band; every request's latency feeds per-tenant rolling SLO
//    windows (obs/slo.h); and requests over a threshold land in the
//    slow-query log (obs/slow_log.h) with replayable request bytes --
//    the untraced fast path pays two relaxed loads for all of it.
//
// Protocol violations (bad magic, oversized length prefix) answer with a
// clean error response and close the connection -- a desynchronized
// stream cannot be trusted further. Malformed-but-framed requests answer
// with an error and keep the connection (framing is still sound).

#ifndef I3_NET_SERVER_H_
#define I3_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/sharded_index.h"
#include "net/introspection.h"
#include "net/protocol.h"
#include "net/result_cache.h"
#include "net/token_bucket.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/slow_log.h"
#include "obs/trace.h"

namespace i3 {
namespace net {

struct ServerOptions {
  /// Interface to bind ("127.0.0.1" for loopback-only serving).
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (see Server::port()).
  uint16_t port = 0;
  /// Event loops. Each serves its connections start to finish, searches
  /// included, so this also bounds the searches running at once.
  uint32_t worker_threads = 2;
  /// Default per-tenant admission limit (rate <= 0 = unlimited).
  TenantLimit default_limit;
  /// Per-tenant overrides.
  std::vector<std::pair<uint32_t, TenantLimit>> tenant_limits;
  /// Searches one loop may admit in one turn (its batch) before it
  /// sheds regardless of tenant budgets (overload backstop). 0 sheds
  /// every search request -- useful to tests, not to production.
  size_t max_queue = 4096;
  /// Accepted connections beyond this are closed immediately.
  size_t max_connections = 1024;
  /// Whole-query result cache entries (net/result_cache.h); 0 disables.
  /// Hits are answered during decode, after admission, so cached
  /// requests still spend tenant tokens but skip the batch and the index.
  size_t result_cache_entries = 4096;
  /// Slow-query log (obs/slow_log.h): requests finishing at or over this
  /// latency are captured with their span timeline and canonical request
  /// bytes. 0 captures every request (tests/diagnosis, not production).
  uint64_t slow_threshold_us = 50000;
  /// Over-threshold ring size and rolling slowest-N size.
  size_t slow_log_ring = 64;
  size_t slow_log_top = 8;
  /// Per-tenant rolling SLO window (obs/slo.h).
  uint32_t slo_window_seconds = 60;
  uint32_t slo_max_tenants = 16;
};

/// \brief The serving front end. Start() binds and spawns the event
/// loops; Stop() (or destruction) shuts everything down. Searches run
/// against the caller-owned index, which must outlive the server.
class Server {
 public:
  /// Back-pressure bound: a connection owed this many response bytes (a
  /// waiting search counts as its largest possible response) is not read
  /// until they drain. Unsent bytes exceed it by at most one frame.
  static constexpr size_t kMaxUnsentBytes = size_t{1} << 20;

  Server(ShardedIndex* index, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// \brief Binds, listens, and starts serving. InvalidArgument /
  /// IOError on bad options or socket failure.
  Status Start();

  /// \brief Stops accepting, closes every connection, joins all
  /// threads. Idempotent. Admitted-but-unanswered requests are dropped
  /// (their connections are closing anyway).
  void Stop();

  /// The bound port (after Start(); with options.port == 0 this is the
  /// kernel-assigned ephemeral port).
  uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Cumulative dispositions (also exported as metrics; these accessors
  /// keep tests independent of registry state).
  uint64_t requests_ok() const { return ok_count_.load(); }
  uint64_t requests_shed() const { return shed_count_.load(); }
  uint64_t requests_error() const { return error_count_.load(); }

  /// Per-loop load, as /statusz renders it (empty before Start()).
  std::vector<LoopStatus> loop_statuses() const;

  /// The server's slow-query log and SLO windows (read-only views for
  /// tests and embedding processes; the HTTP side channel renders both).
  const obs::SlowQueryLog& slow_log() const { return slow_log_; }
  const obs::SloTracker& slo() const { return slo_; }

 private:
  struct Connection;
  struct PendingSearch;
  struct Loop;

  void RunLoop(Loop* loop);

  /// Loop 0: accepts and hands each socket to a loop's mailbox.
  void AcceptAll();
  void HandleReadable(Loop* loop, Connection* conn);
  /// Consumes complete frames from conn's read buffer; returns false if
  /// the connection must close (protocol violation).
  bool ConsumeFrames(Loop* loop, Connection* conn);
  /// Dispatches one decoded request: ping, shed, cache hit, or a search
  /// for the turn's batch.
  void DispatchRequest(Loop* loop, Connection* conn, Request req,
                       uint64_t arrival_ns);
  /// Serves the HTTP side channel; returns false to close.
  bool ConsumeHttp(Connection* conn);
  /// Answers the searches the loop admitted this turn, one Search each,
  /// then sends every response.
  void RunBatch(Loop* loop);

  /// Sends what the socket takes of conn's write buffer (responses are
  /// appended to it, then flushed once the caller is done with conn) and
  /// re-arms epoll for write interest and back-pressure. May free conn.
  void FlushWrites(Loop* loop, Connection* conn);
  void CloseConnection(Loop* loop, Connection* conn);
  /// Registers (EPOLL_CTL_ADD) or re-arms (EPOLL_CTL_MOD) conn's interest.
  void UpdateEpoll(Loop* loop, Connection* conn, int op);

  void RecordOutcome(Loop* loop, ResponseOutcome outcome, bool degraded,
                     bool deadline_miss, uint32_t tenant,
                     uint64_t arrival_ns);

  /// \brief Files a slow-query record when (done - arrival) qualifies;
  /// below the bar this is two relaxed loads and a return (the zero-
  /// allocation fast path). `trace` may be null (untraced request): the
  /// record then synthesizes coarse server stages from the timestamps
  /// and is annotated from `stats` (null when the index was not
  /// searched).
  void MaybeLogSlow(const Request& req, ResponseOutcome outcome,
                    uint64_t trace_id, uint64_t arrival_ns,
                    uint64_t admitted_ns, uint64_t search_ns,
                    uint64_t done_ns, const obs::QueryTrace* trace,
                    const QueryStats* stats);

  /// \brief Builds the wire trace section from a finished span timeline.
  static WireTrace BuildWireTrace(uint64_t trace_id, uint64_t total_ns,
                                  const obs::QueryTrace& trace);

  ShardedIndex* index_;
  ServerOptions options_;
  TenantRateLimiter limiter_;
  ResultCache result_cache_;
  obs::SlowQueryLog slow_log_;
  obs::SloTracker slo_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  /// Steady-clock Start() time (uptime on /statusz and /healthz).
  uint64_t start_ns_ = 0;
  /// Trace-id generator: mixed counter, stamped per traced request.
  std::atomic<uint64_t> next_trace_seq_{1};
  /// Acceptor's rotating tie-break among equally loaded loops (loop 0's
  /// thread only).
  uint32_t next_loop_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::vector<std::unique_ptr<Loop>> loops_;

  std::atomic<uint64_t> ok_count_{0};
  std::atomic<uint64_t> shed_count_{0};
  std::atomic<uint64_t> error_count_{0};

  // Cached metric handles (registration is slow-path; see obs/metrics.h).
  obs::Gauge* connections_gauge_;
  obs::Gauge* queue_depth_gauge_;
  obs::Counter* shed_metric_;
  obs::Counter* protocol_errors_metric_;
  obs::Counter* degraded_metric_;
  obs::Counter* requests_metric_[3];   ///< by ResponseOutcome
  obs::Histogram* latency_us_[3];      ///< by ResponseOutcome
  obs::Histogram* batch_size_;
  obs::Counter* traced_requests_metric_;
  obs::Counter* slow_queries_metric_;
};

}  // namespace net
}  // namespace i3

#endif  // I3_NET_SERVER_H_
