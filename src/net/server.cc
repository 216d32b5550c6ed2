#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/clock.h"
#include "obs/export.h"

namespace i3 {
namespace net {

namespace {

/// epoll user-data tags for a loop's two non-connection descriptors;
/// connection ids start above them.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kFirstConnId = 2;

constexpr size_t kReadChunk = 4096;
/// An HTTP request line + headers larger than this is not /metrics.
constexpr size_t kMaxHttpHeader = 8192;
/// The largest response frame: what a search waiting in the turn's batch
/// holds of its connection's Server::kMaxUnsentBytes.
constexpr size_t kMaxResponseFrame = kFrameHeaderBytes + kMaxFramePayload;

/// Best-effort request id of an undecodable-but-framed payload, so the
/// error response still matches the client's outstanding request.
uint64_t PeekRequestId(const uint8_t* payload, size_t len) {
  if (len < 12) return 0;
  const uint16_t magic = static_cast<uint16_t>(payload[0]) |
                         static_cast<uint16_t>(payload[1]) << 8;
  if (magic != kRequestMagic) return 0;
  uint64_t id = 0;
  for (int i = 7; i >= 0; --i) id = id << 8 | payload[4 + i];
  return id;
}

Response ErrorResponse(uint64_t request_id, const Status& st) {
  Response resp;
  resp.outcome = ResponseOutcome::kError;
  resp.request_id = request_id;
  resp.code = st.code();
  resp.message = st.message().substr(0, kMaxErrorMessage);
  return resp;
}

/// SplitMix64 finalizer over the trace-id sequence: ids look random on
/// the wire (no cross-request guessing of "the next id") while staying a
/// bijection of a plain counter -- no RNG state, no collisions.
uint64_t MixTraceId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string HexEncode(const std::string& bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xf]);
  }
  return out;
}

void Wake(int event_fd) {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(event_fd, &one, sizeof(one));
}

}  // namespace

/// Loop-thread-only per-connection state.
struct Server::Connection {
  uint64_t id = 0;
  int fd = -1;
  /// Unconsumed inbound bytes (partial frames accumulate here).
  std::vector<uint8_t> read_buf;
  /// Encoded outbound bytes; [write_pos, size) is still unsent.
  std::string write_buf;
  size_t write_pos = 0;
  /// kMaxResponseFrame per search of this connection waiting in the
  /// turn's batch: decoding counts it against kMaxUnsentBytes.
  size_t reserved = 0;
  /// Sniffed from the first bytes: binary frames or one-shot HTTP.
  enum class Mode { kUnknown, kBinary, kHttp } mode = Mode::kUnknown;
  /// Set when the connection must close once write_buf drains.
  bool close_after_flush = false;
  /// Whether EPOLLOUT is armed, and whether EPOLLIN is dropped because
  /// kMaxUnsentBytes wait to be sent (back-pressure).
  bool want_write = false;
  bool paused = false;
  /// Decoding stopped at the bound with frames left in read_buf.
  bool stalled = false;

  size_t unsent() const { return write_buf.size() - write_pos; }
};

/// One admitted search waiting for its loop's end-of-turn batch.
struct Server::PendingSearch {
  uint64_t conn_id = 0;
  uint64_t arrival_ns = 0;
  /// When admission + cache probe finished (queue wait counts from here).
  uint64_t admitted_ns = 0;
  /// Server-stamped trace id (0 when untraced).
  uint64_t trace_id = 0;
  /// Canonical result-cache key; empty when the response must not be
  /// cached (cache disabled or the request opted out via no_cache).
  std::string cache_key;
  /// The decoded request (moved, not copied): tenant, flags, alpha, and
  /// the slow-query log's canonical re-encode.
  Request request;
  /// request.ToQuery() with the wire deadline anchored at admission.
  Query query;
};

/// One event loop: its epoll set, the connections it owns, and the
/// searches it admitted this turn.
struct Server::Loop {
  int epoll_fd = -1;
  int wake_fd = -1;
  // Loop thread only.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
  uint64_t next_conn_id = kFirstConnId;
  std::vector<PendingSearch> pending;
  /// Stalled connections back under the bound, decoded again next turn
  /// (their frames wait in read_buf; no socket event may come).
  std::vector<uint64_t> revisit;
  /// Sockets the acceptor handed over that the loop has not adopted yet.
  std::mutex mailbox_mutex;
  std::vector<int> mailbox;
  /// Counted up by the acceptor at hand-off, down by the loop at close.
  std::atomic<uint64_t> open_connections{0};
  std::atomic<uint64_t> searches{0};
  std::atomic<uint64_t> peak_unsent_bytes{0};
  /// Declared last: joined (in Server::Stop) before the state above dies.
  std::thread thread;
};

Server::Server(ReplicaSet* index, ServerOptions options)
    : index_(index),
      options_(std::move(options)),
      limiter_(options_.default_limit),
      result_cache_(ResultCacheOptions{options_.result_cache_entries, 0}),
      slow_log_(obs::SlowQueryLog::Options{options_.slow_log_ring,
                                           options_.slow_log_top,
                                           options_.slow_threshold_us}),
      slo_(obs::SloTracker::Options{options_.slo_window_seconds,
                                    options_.slo_max_tenants}) {
  for (const auto& [tenant, limit] : options_.tenant_limits) {
    limiter_.SetLimit(tenant, limit);
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  connections_gauge_ =
      reg.GetGauge("i3_net_connections", "Open client connections.");
  queue_depth_gauge_ = reg.GetGauge(
      "i3_net_queue_depth",
      "Admitted searches waiting for their loop's end-of-turn batch.");
  shed_metric_ = reg.GetCounter(
      "i3_requests_shed_total",
      "Requests rejected by admission control (token bucket or queue "
      "bound) before reaching the index.");
  protocol_errors_metric_ = reg.GetCounter(
      "i3_net_protocol_errors_total",
      "Frames rejected as malformed, oversized, or desynchronized.");
  const char* outcomes[3] = {"ok", "shed", "error"};
  for (int i = 0; i < 3; ++i) {
    requests_metric_[i] =
        reg.GetCounter("i3_net_requests_total", "Requests by disposition.",
                       {{"outcome", outcomes[i]}});
    latency_us_[i] = reg.GetHistogram(
        "i3_request_latency_us",
        "Wire-request latency from admission to response enqueue.",
        {{"outcome", outcomes[i]}});
  }
  batch_size_ = reg.GetHistogram(
      "i3_net_batch_size", "Searches answered per loop turn.");
  traced_requests_metric_ = reg.GetCounter(
      "i3_net_traced_requests_total",
      "Requests that carried the wire trace flag (span timeline "
      "returned in-band).");
  slow_queries_metric_ = reg.GetCounter(
      "i3_slow_queries_total",
      "Requests captured by the slow-query log (over the latency "
      "threshold or among the rolling slowest).");
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load()) return Status::InvalidArgument("already running");
  if (index_ == nullptr) return Status::InvalidArgument("null index");
  if (options_.worker_threads == 0) {
    return Status::InvalidArgument("worker_threads must be >= 1");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Status::IOError("socket: " + std::string(
                                                 std::strerror(errno)));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  // Failures release whatever was set up (errno is read before Stop()).
  auto fail = [this](Status st) {
    Stop();
    return st;
  };
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return fail(Status::InvalidArgument("bad host: " + options_.host));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail(Status::IOError("bind: " + std::string(std::strerror(errno))));
  }
  if (::listen(listen_fd_, 128) < 0) {
    return fail(
        Status::IOError("listen: " + std::string(std::strerror(errno))));
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  loops_.clear();
  epoll_event ev{};
  ev.events = EPOLLIN;
  for (uint32_t i = 0; i < options_.worker_threads; ++i) {
    Loop* loop = loops_.emplace_back(std::make_unique<Loop>()).get();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->wake_fd < 0) {
      return fail(Status::IOError("epoll/eventfd setup failed"));
    }
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
  }
  ev.data.u64 = kListenerTag;
  ::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);

  stopping_.store(false);
  start_ns_ = obs::NowNanos();
  running_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    loop->thread = std::thread([this, l = loop.get()] { RunLoop(l); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (!stopping_.exchange(true)) {
    // Final pull-model refresh: an embedding process that snapshots the
    // registry after Stop() still sees current SLO windows.
    slo_.ExportMetrics(obs::NowNanos());
    for (auto& loop : loops_) {
      if (loop->wake_fd >= 0) Wake(loop->wake_fd);
    }
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Loops close their connections on exit; close sockets never adopted
  // and the descriptors here, so a failed Start() can also call Stop().
  for (auto& loop : loops_) {
    for (int fd : loop->mailbox) ::close(fd);
    loop->mailbox.clear();
    for (int* fd : {&loop->epoll_fd, &loop->wake_fd}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  running_.store(false, std::memory_order_release);
}

std::vector<LoopStatus> Server::loop_statuses() const {
  std::vector<LoopStatus> out;
  for (const auto& loop : loops_) {
    out.push_back({loop->open_connections.load(std::memory_order_relaxed),
                   loop->searches.load(std::memory_order_relaxed),
                   loop->peak_unsent_bytes.load(std::memory_order_relaxed)});
  }
  return out;
}

void Server::RunLoop(Loop* loop) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  std::vector<uint64_t> revisit;
  while (!stopping_.load(std::memory_order_acquire)) {
    revisit.swap(loop->revisit);
    const int n = ::epoll_wait(loop->epoll_fd, events, kMaxEvents,
                               revisit.empty() ? 100 : 0);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        AcceptAll();
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t drain;
        [[maybe_unused]] ssize_t r =
            ::read(loop->wake_fd, &drain, sizeof(drain));
        std::vector<int> fds;
        {
          std::lock_guard<std::mutex> lock(loop->mailbox_mutex);
          fds.swap(loop->mailbox);
        }
        for (int fd : fds) {  // adopt the handed-over sockets
          auto conn = std::make_unique<Connection>();
          conn->id = loop->next_conn_id++;
          conn->fd = fd;
          UpdateEpoll(loop, conn.get(), EPOLL_CTL_ADD);
          connections_gauge_->Add(1);
          loop->conns.emplace(conn->id, std::move(conn));
        }
        continue;
      }
      auto it = loop->conns.find(tag);
      if (it == loop->conns.end()) continue;
      Connection* conn = it->second.get();
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(loop, conn);
        continue;
      }
      if (events[i].events & EPOLLIN) {
        HandleReadable(loop, conn);
        if (loop->conns.count(tag) == 0) continue;  // closed above
      }
      if (events[i].events & EPOLLOUT) FlushWrites(loop, conn);
    }
    for (uint64_t id : revisit) {
      auto it = loop->conns.find(id);
      if (it != loop->conns.end()) HandleReadable(loop, it->second.get());
    }
    revisit.clear();
    RunBatch(loop);
  }
  // Shutdown: unanswered requests are dropped; peers see a clean close.
  while (!loop->conns.empty()) {
    CloseConnection(loop, loop->conns.begin()->second.get());
  }
}

void Server::AcceptAll() {
  auto open = [](const Loop* loop) {
    return loop->open_connections.load(std::memory_order_relaxed);
  };
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error; epoll will re-arm
    // The loop with the fewest open connections gets the socket; the
    // rotating scan start breaks ties, so even short-lived connections
    // spread over every loop.
    Loop* target = loops_[next_loop_].get();
    uint64_t open_total = 0;
    for (size_t i = 0; i < loops_.size(); ++i) {
      Loop* loop = loops_[(next_loop_ + i) % loops_.size()].get();
      open_total += open(loop);
      if (open(loop) < open(target)) target = loop;
    }
    if (open_total >= options_.max_connections) {
      ::close(fd);
      continue;
    }
    next_loop_ = (next_loop_ + 1) % loops_.size();
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    target->open_connections.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(target->mailbox_mutex);
      target->mailbox.push_back(fd);
    }
    Wake(target->wake_fd);
  }
}

void Server::HandleReadable(Loop* loop, Connection* conn) {
  // A paused connection is not read until its peer drains the responses
  // it is owed; buffered input is held to the same bound.
  uint8_t chunk[kReadChunk];
  while (!conn->paused && conn->read_buf.size() < kMaxUnsentBytes) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->read_buf.insert(conn->read_buf.end(), chunk, chunk + n);
      if (n < static_cast<ssize_t>(sizeof(chunk))) break;
      continue;
    }
    if (n == 0) {  // orderly peer close
      CloseConnection(loop, conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(loop, conn);
    return;
  }
  if (conn->read_buf.empty()) return;
  if (conn->mode == Connection::Mode::kUnknown) {
    // Sniff once: an HTTP metrics scrape starts with "GET "; anything
    // else is the binary protocol (whose length prefix can never spell
    // ASCII "GET " -- that value exceeds kMaxFramePayload).
    if (conn->read_buf.size() < 4) return;
    conn->mode = std::memcmp(conn->read_buf.data(), "GET ", 4) == 0
                     ? Connection::Mode::kHttp
                     : Connection::Mode::kBinary;
  }
  const bool keep = conn->mode == Connection::Mode::kHttp
                        ? ConsumeHttp(conn)
                        : ConsumeFrames(loop, conn);
  // A protocol violation (or a one-shot HTTP exchange) closes after any
  // queued response drains. FlushWrites may free conn, so it is the last
  // thing this handler touches.
  if (!keep) conn->close_after_flush = true;
  FlushWrites(loop, conn);
}

bool Server::ConsumeFrames(Loop* loop, Connection* conn) {
  size_t consumed = 0;
  const uint64_t arrival_ns = obs::NowNanos();
  while (true) {
    const uint8_t* base = conn->read_buf.data() + consumed;
    const size_t avail = conn->read_buf.size() - consumed;
    uint32_t payload_len = 0;
    const FrameStatus fs = NextFrame(base, avail, &payload_len);
    if (fs == FrameStatus::kNeedMore) break;
    // Back-pressure: every frame adds at most one response, so decoding
    // stops at the bound and resumes once it drains.
    if (conn->unsent() + conn->reserved >= kMaxUnsentBytes) {
      conn->stalled = true;
      break;
    }
    if (fs == FrameStatus::kTooLarge) {
      protocol_errors_metric_->Increment();
      const Status st =
          Status::InvalidArgument("frame exceeds maximum payload size");
      EncodeResponse(ErrorResponse(0, st), &conn->write_buf);
      conn->read_buf.clear();
      return false;  // stream cannot be resynchronized
    }
    const uint8_t* payload = base + kFrameHeaderBytes;
    auto req = DecodeRequest(payload, payload_len);
    consumed += kFrameHeaderBytes + payload_len;
    if (!req.ok()) {
      protocol_errors_metric_->Increment();
      EncodeResponse(
          ErrorResponse(PeekRequestId(payload, payload_len), req.status()),
          &conn->write_buf);
      // Framing is still sound (the length prefix was honored), so the
      // connection survives a malformed payload.
      continue;
    }
    DispatchRequest(loop, conn, req.MoveValue(), arrival_ns);
  }
  conn->read_buf.erase(conn->read_buf.begin(),
                       conn->read_buf.begin() + consumed);
  return true;
}

void Server::DispatchRequest(Loop* loop, Connection* conn, Request req,
                             uint64_t arrival_ns) {
  if (req.type == MessageType::kPing) {
    Response pong;
    pong.request_id = req.request_id;
    EncodeResponse(pong, &conn->write_buf);
    return;
  }
  // Trace opt-in: the server stamps the id (clients cannot forge
  // cross-request correlation) and carries the flag with the search.
  // Untraced requests pay nothing here beyond the flag test.
  const bool traced = req.trace;
  uint64_t trace_id = 0;
  if (traced) {
    traced_requests_metric_->Increment();
    trace_id =
        MixTraceId(next_trace_seq_.fetch_add(1, std::memory_order_relaxed));
  }
  // A shed or a result-cache hit is answered right here, before this
  // turn's batch runs, so under overload shed latency is bounded by one
  // loop turn rather than by the searches queued behind it.
  Response now;
  now.request_id = req.request_id;
  now.outcome = ResponseOutcome::kShed;
  uint64_t admit_done_ns = 0;
  uint64_t replayed_writes = 0;
  if (!limiter_.Admit(req.tenant, arrival_ns)) {
    now.message = "tenant rate limit exceeded";
  } else {
    admit_done_ns = traced ? obs::NowNanos() : 0;
    // Result-cache probe, after admission (a cached answer still spends
    // tenant tokens -- the cache must not turn one tenant's hot query
    // into free capacity) but before the batch: a hit never touches the
    // index.
    std::string cache_key;
    if (result_cache_.enabled()) {
      if (req.no_cache) {
        result_cache_.CountBypass();
      } else {
        cache_key = ResultCache::KeyOf(req);
      }
    }
    if (!cache_key.empty() &&
        result_cache_.Lookup(cache_key, index_->write_log(), &now,
                             &replayed_writes)) {
      // `now` holds the cached answer.
    } else if (loop->pending.size() >= options_.max_queue) {
      now.message = "server overloaded (queue full)";
    } else {
      PendingSearch& p = loop->pending.emplace_back();
      p.conn_id = conn->id;
      p.arrival_ns = arrival_ns;
      p.admitted_ns = obs::NowNanos();
      p.trace_id = trace_id;
      p.cache_key = std::move(cache_key);
      p.query = req.ToQuery();
      if (req.deadline_ms > 0) {
        // Propagate the wire deadline: anchor the absolute budget now so
        // the wait for the batch is charged against it.
        p.query.control =
            QueryControl::AfterMicros(uint64_t{req.deadline_ms} * 1000);
      }
      p.request = std::move(req);
      conn->reserved += kMaxResponseFrame;
      queue_depth_gauge_->Add(1);
      return;
    }
  }
  const bool shed = now.outcome == ResponseOutcome::kShed;
  if (shed) shed_metric_->Increment();
  const uint64_t done_ns = obs::NowNanos();
  obs::QueryTrace trace;
  if (traced) {
    trace.label = "serve";
    trace.start_ns = arrival_ns;
    trace.total_ns = done_ns - arrival_ns;
    if (shed) {
      trace.AddStage("admission", done_ns - arrival_ns);
      trace.Annotate("shed", 1);
    } else {
      trace.AddStage("admission", admit_done_ns - arrival_ns);
      trace.AddStage("result_cache", done_ns - admit_done_ns);
      trace.Annotate("result_cache_hit", 1);
      // How many writes the hit was revalidated across (0: its entry was
      // current).
      trace.Annotate("replayed_writes", replayed_writes);
    }
    now.has_trace = true;
    now.trace = BuildWireTrace(trace_id, trace.total_ns, trace);
  }
  EncodeResponse(now, &conn->write_buf);
  RecordOutcome(loop, now.outcome, /*deadline_miss=*/false, req.tenant,
                arrival_ns);
  MaybeLogSlow(req, now.outcome, trace_id, arrival_ns, done_ns,
               /*search_ns=*/0, done_ns, traced ? &trace : nullptr,
               /*stats=*/nullptr);
}

bool Server::ConsumeHttp(Connection* conn) {
  static constexpr char kDelim[] = "\r\n\r\n";
  const auto& buf = conn->read_buf;
  auto it = std::search(buf.begin(), buf.end(), kDelim, kDelim + 4);
  if (it == buf.end()) {
    return buf.size() <= kMaxHttpHeader;  // keep reading headers
  }
  const std::string request_line(buf.begin(), it);
  const size_t path_begin = request_line.find(' ');
  const size_t path_end = request_line.find(' ', path_begin + 1);
  std::string path = "/";
  if (path_begin != std::string::npos && path_end != std::string::npos) {
    path = request_line.substr(path_begin + 1, path_end - path_begin - 1);
  }
  const uint64_t now_ns = obs::NowNanos();
  const uint64_t uptime_s =
      start_ns_ == 0 ? 0 : (now_ns - start_ns_) / 1000000000ull;
  std::string http;
  if (path == "/metrics") {
    // Pull-model gauges refresh at scrape time, not per request.
    slo_.ExportMetrics(now_ns);
    http = HttpOk(
        "text/plain; version=0.0.4",
        obs::ToPrometheusText(obs::MetricsRegistry::Global().Snapshot()));
  } else if (path == "/statusz") {
    ServerStatus s;
    s.build_compiler = __VERSION__;
#ifdef NDEBUG
    s.build_mode = "release";
#else
    s.build_mode = "debug";
#endif
    s.protocol_version = kProtocolVersion;
    s.worker_threads = options_.worker_threads;
    s.max_queue = options_.max_queue;
    s.max_connections = options_.max_connections;
    s.result_cache_entries = options_.result_cache_entries;
    s.slow_threshold_us = slow_log_.threshold_us();
    s.slo_window_seconds = slo_.window_seconds();
    s.uptime_s = uptime_s;
    s.documents = index_->DocumentCount();
    s.loops = loop_statuses();
    s.queue_depth = queue_depth_gauge_->Value();
    s.requests_ok = requests_ok();
    s.requests_shed = requests_shed();
    s.requests_error = requests_error();
    const ReplicaSetStatus st = index_->GetStatus();
    s.replicated_shards = st.replicated ? 1 : 0;
    s.failovers = st.failovers;
    s.recoveries = st.recoveries;
    s.scrub_pages_healed = st.scrub_pages_healed;
    s.slo_json = slo_.ToJson(now_ns);
    http = HttpOk("application/json", StatuszJson(s));
  } else if (path == "/tracez") {
    http = HttpOk("application/json",
                  TracezJson(obs::Tracer::Global().sample_rate(),
                             obs::Tracer::Global().Recent(), slow_log_));
  } else if (path == "/cachez") {
    http = HttpOk("application/json",
                  CachezJson(obs::MetricsRegistry::Global().Snapshot(),
                             result_cache_.StripeOccupancy()));
  } else if (path == "/healthz") {
    const bool healthy = running_.load(std::memory_order_acquire) &&
                         !stopping_.load(std::memory_order_acquire);
    http = HttpOk("application/json",
                  HealthzJson(healthy, uptime_s, {index_->GetStatus()}));
  } else {
    http = HttpNotFound();
  }
  conn->write_buf += http;
  return false;  // one-shot: close after the response flushes
}

void Server::FlushWrites(Loop* loop, Connection* conn) {
  // Single writer (this loop), so a plain load/store keeps the peak.
  if (conn->unsent() >
      loop->peak_unsent_bytes.load(std::memory_order_relaxed)) {
    loop->peak_unsent_bytes.store(conn->unsent(), std::memory_order_relaxed);
  }
  while (conn->write_pos < conn->write_buf.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->write_buf.data() + conn->write_pos,
               conn->unsent(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->write_pos += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(loop, conn);
    return;
  }
  if (conn->write_pos * 2 >= conn->write_buf.size()) {
    // Drop the sent prefix once it is half the buffer (or all of it).
    conn->write_buf.erase(0, conn->write_pos);
    conn->write_pos = 0;
  }
  const bool want_write = conn->unsent() > 0;
  const bool paused = conn->unsent() >= kMaxUnsentBytes;
  if (want_write != conn->want_write || paused != conn->paused) {
    conn->want_write = want_write;
    conn->paused = paused;
    UpdateEpoll(loop, conn, EPOLL_CTL_MOD);
  }
  if (!paused && conn->stalled) {
    conn->stalled = false;
    loop->revisit.push_back(conn->id);
  }
  if (!want_write && conn->close_after_flush) CloseConnection(loop, conn);
}

void Server::UpdateEpoll(Loop* loop, Connection* conn, int op) {
  epoll_event ev{};
  ev.events = (conn->paused ? 0u : EPOLLIN) |
              (conn->want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  ::epoll_ctl(loop->epoll_fd, op, conn->fd, &ev);
}

void Server::CloseConnection(Loop* loop, Connection* conn) {
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  connections_gauge_->Sub(1);
  loop->open_connections.fetch_sub(1, std::memory_order_relaxed);
  loop->conns.erase(conn->id);  // frees conn
}

void Server::RecordOutcome(Loop* loop, ResponseOutcome outcome,
                           bool deadline_miss, uint32_t tenant,
                           uint64_t arrival_ns) {
  const uint64_t now_ns = obs::NowNanos();
  const uint64_t latency_us = (now_ns - arrival_ns) / 1000;
  const int idx = static_cast<int>(outcome);
  requests_metric_[idx]->Increment();
  latency_us_[idx]->Record(latency_us);
  slo_.Record(tenant, latency_us, outcome == ResponseOutcome::kShed,
              deadline_miss, now_ns);
  switch (outcome) {
    case ResponseOutcome::kOk:
      ok_count_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseOutcome::kShed:
      shed_count_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseOutcome::kError:
      error_count_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (outcome != ResponseOutcome::kShed) {
    loop->searches.fetch_add(1, std::memory_order_relaxed);
  }
}

WireTrace Server::BuildWireTrace(uint64_t trace_id, uint64_t total_ns,
                                 const obs::QueryTrace& trace) {
  WireTrace wt;
  wt.trace_id = trace_id;
  wt.total_ns = total_ns;
  wt.spans.reserve(trace.stages.size());
  for (const auto& stage : trace.stages) {
    WireTraceSpan span;
    span.name = stage.name;
    span.total_ns = stage.total_ns;
    span.calls = static_cast<uint32_t>(
        std::min<uint64_t>(stage.calls, UINT32_MAX));
    wt.spans.push_back(std::move(span));
  }
  wt.annotations.reserve(trace.annotations.size());
  for (const auto& [key, value] : trace.annotations) {
    wt.annotations.push_back(WireTraceAnnotation{key, value});
  }
  return wt;
}

void Server::MaybeLogSlow(const Request& req, ResponseOutcome outcome,
                          uint64_t trace_id, uint64_t arrival_ns,
                          uint64_t admitted_ns, uint64_t search_ns,
                          uint64_t done_ns, const obs::QueryTrace* trace,
                          const QueryStats* stats) {
  const uint64_t total_us = (done_ns - arrival_ns) / 1000;
  if (!slow_log_.Qualifies(total_us)) return;
  slow_queries_metric_->Increment();
  obs::SlowQueryRecord rec;
  rec.trace_id = trace_id;
  rec.when_ns = done_ns;
  rec.total_us = total_us;
  rec.tenant = req.tenant;
  rec.outcome = ResponseOutcomeName(outcome);
  std::string frame;
  EncodeRequest(req, &frame);
  rec.request_hex = HexEncode(frame);
  if (trace != nullptr) {
    rec.trace = *trace;
  } else {
    // Untraced request: synthesize the coarse stages the timestamps
    // alone can attribute -- admission, index search, and the remainder
    // (wait for the batch + the batch's other searches + dispatch).
    rec.trace.label = "serve";
    rec.trace.start_ns = arrival_ns;
    rec.trace.total_ns = done_ns - arrival_ns;
    rec.trace.AddStage("admission", admitted_ns - arrival_ns);
    if (search_ns > 0) rec.trace.AddStage("search", search_ns);
    const uint64_t accounted = (admitted_ns - arrival_ns) + search_ns;
    if (rec.trace.total_ns > accounted) {
      rec.trace.AddStage("queue_and_dispatch",
                         rec.trace.total_ns - accounted);
    }
    // What the search did -- which prune devices fired, whether a
    // replica failed over -- from the request's own context.
    if (stats != nullptr) stats->AnnotateTrace(&rec.trace);
  }
  slow_log_.Record(std::move(rec));
}

void Server::RunBatch(Loop* loop) {
  std::vector<PendingSearch>& batch = loop->pending;
  if (batch.empty()) return;
  const uint64_t dequeue_ns = obs::NowNanos();
  queue_depth_gauge_->Sub(static_cast<int64_t>(batch.size()));
  batch_size_->Record(batch.size());
  for (PendingSearch& p : batch) {
    QueryStats stats;
    p.query.control.stats = &stats;
    obs::QueryTrace trace;
    if (p.request.trace) {
      trace.label = "serve";
      trace.start_ns = p.arrival_ns;
      trace.AddStage("admission", p.admitted_ns - p.arrival_ns);
      trace.AddStage("queue_wait", dequeue_ns - p.admitted_ns);
      trace.Annotate("batch_size", batch.size());
      // Request-scoped trace: the index layers add their stages (the
      // replica set's search, descent, cell-cache hits) to this object.
      p.query.control.trace = &trace;
      p.query.control.trace_id = p.trace_id;
    }
    // Read the generation BEFORE the search: the answer then reflects
    // every write up to it, and a lookup replays the writes after it
    // (model/write_log.h).
    const uint64_t generation = index_->write_log().generation();
    const uint64_t search_start_ns = obs::NowNanos();
    auto res = index_->Search(p.query, p.request.alpha);
    const uint64_t search_ns = obs::NowNanos() - search_start_ns;
    Response resp;
    resp.request_id = p.request.request_id;
    if (res.ok()) {
      resp.outcome = ResponseOutcome::kOk;
      resp.results = res.MoveValue();
      if (!p.cache_key.empty()) {
        result_cache_.Insert(p.cache_key, generation, resp.results);
      }
    } else {
      resp = ErrorResponse(p.request.request_id, res.status());
    }
    const bool deadline_miss = resp.outcome == ResponseOutcome::kError &&
                               resp.code == StatusCode::kDeadlineExceeded;
    if (p.request.trace) {
      // Time the encode against a scratch buffer first -- the real
      // encode must carry the trace, and the trace must contain the
      // encode stage. The double encode is traced-path-only cost, and
      // it keeps the result bytes identical to the untraced twin
      // (asserted by the differential test).
      std::string scratch;
      const uint64_t encode_start_ns = obs::NowNanos();
      EncodeResponse(resp, &scratch);
      trace.AddStage("encode", obs::NowNanos() - encode_start_ns);
      stats.AnnotateTrace(&trace);
      trace.Annotate("results", resp.results.size());
      trace.total_ns = obs::NowNanos() - p.arrival_ns;
      resp.has_trace = true;
      resp.trace = BuildWireTrace(p.trace_id, trace.total_ns, trace);
    }
    const uint64_t done_ns = obs::NowNanos();
    RecordOutcome(loop, resp.outcome, deadline_miss, p.request.tenant,
                  p.arrival_ns);
    MaybeLogSlow(p.request, resp.outcome, p.trace_id, p.arrival_ns,
                 p.admitted_ns, search_ns, done_ns,
                 p.request.trace ? &trace : nullptr, &stats);
    auto it = loop->conns.find(p.conn_id);
    if (it == loop->conns.end()) continue;  // client left; drop it
    it->second->reserved -= kMaxResponseFrame;
    EncodeResponse(resp, &it->second->write_buf);
  }
  // Flush once every response is queued: the first flush of a connection
  // sends them all, later ones find nothing left to send.
  for (const PendingSearch& p : batch) {
    auto it = loop->conns.find(p.conn_id);
    if (it != loop->conns.end()) FlushWrites(loop, it->second.get());
  }
  batch.clear();
}

}  // namespace net
}  // namespace i3
