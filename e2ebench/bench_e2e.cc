// bench_e2e: one workload of the end-to-end serving benchmark per process.
//
//   bench_e2e --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//             [--quick] [--out=DIR]
//
// Builds the workload's (fixed) corpus and its request streams from the
// seed, sets the serving stack up
// (build the index under default I3Options, SaveTo, LoadFrom onto the
// workload's storage stack, start a loopback net::Server with the
// `spatialkw_cli serve` defaults), warms it, then drives it for --seconds
// from kReaders closed-loop connections (plus an open-loop writer on
// update_stream), in one-second windows with the load paused between
// them. Afterwards a sample of requests is checked byte for byte
// against a BruteForceIndex that saw the same writes. With --trace=1 the
// timed phase is split into an untraced and a traced half, and the layer
// ledger (ledger.h) runs.
//
// Output: every metric as `name value unit`, then one line
// `RESULT {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
// Exit status 0 only when every operation succeeded and every checked
// response matched the oracle.

#include <pthread.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "i3/i3_index.h"
#include "ledger.h"
#include "model/brute_force.h"
#include "model/sharded_index.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/clock.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "spans.h"
#include "workload.h"

namespace i3 {
namespace e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool quick = false;
  std::string out = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    auto value = [&s](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return s.compare(0, n, flag) == 0 ? s.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      a->workload = v;
    } else if (const char* v = value("--seed=")) {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      a->seconds = std::atof(v);
    } else if (const char* v = value("--trace=")) {
      a->traced = std::strcmp(v, "1") == 0;
    } else if (const char* v = value("--out=")) {
      a->out = v;
    } else if (s == "--quick") {
      a->quick = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", s.c_str());
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

// ------------------------------------------------------------ host probes

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Aggregate CPU jiffies from /proc/stat: steal and the total of the
/// user..steal fields.
struct HostCpu {
  uint64_t steal = 0;
  uint64_t total = 0;
};

HostCpu ReadHostCpu() {
  HostCpu h;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  for (int field = 0; field < 8 && in; ++field) {
    uint64_t v = 0;
    in >> v;
    h.total += v;
    if (field == 7) h.steal = v;
  }
  return h;
}

double StealPct(const HostCpu& a, const HostCpu& b) {
  const uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

// Host-speed reference. The host's neighbours change its CPU speed by up
// to 1.6x from one run to the next (more than any regression bound), and
// CPU time stretches with it even though steal is excluded from it. A
// fixed, benchmark-owned kernel, timed just before and after the work
// while the server is idle, slows down in step with the host but not with
// the code under test, so the bounded times are reported scaled to the
// kernel's nominal speed: raw CPU time x kRefNominalUs / the kernel's CPU
// time nearby.

/// The reference kernel's CPU time on an uncontended core of the host the
/// bounds were set on (a 4-vCPU x86-64 VM).
constexpr double kRefNominalUs = 5000.0;

volatile uint32_t g_ref_sink = 0;

/// Thread-CPU microseconds of one reference computation: sorting 64K
/// pseudo-random integers.
double RefKernelOnce() {
  static std::vector<uint32_t> v(1u << 16);
  static uint64_t x = 88172645463325252ull;
  for (uint32_t& e : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = static_cast<uint32_t>(x);
  }
  const double t0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  std::sort(v.begin(), v.end());
  const double t1 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  g_ref_sink = v[v.size() / 2];
  return (t1 - t0) * 1e6;
}

/// Exact order statistic (nearest rank) of `v`, which is sorted in place.
double Quantile(std::vector<uint64_t>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  rank = std::clamp<size_t>(rank, 1, v->size());
  return static_cast<double>((*v)[rank - 1]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Appends the CPU times of `reps` reference computations to `out`. One
/// computation varies by ~10% from the next, so a run scales by the median
/// of all of its timings, not by the ones nearest each measurement.
void TimeRefKernel(int reps, std::vector<double>* out) {
  for (int i = 0; i < reps; ++i) out->push_back(RefKernelOnce());
}

/// `cpu` (any unit) scaled to the reference kernel's nominal speed.
double AtNominalSpeed(double cpu, double ref_us) {
  return ref_us == 0.0 ? 0.0 : cpu * kRefNominalUs / ref_us;
}

// ---------------------------------------------------------- serving stack

/// The serving stack: the server is declared last so it stops before the
/// index it searches is destroyed.
struct Serving {
  std::unique_ptr<ShardedIndex> index;
  std::unique_ptr<net::Server> server;

  void Reset() {
    server.reset();
    index.reset();
  }
};

struct SetupTime {
  double wall_s = 0.0;
  /// CPU of the calling thread, which does all of the set-up work.
  double cpu_s = 0.0;
};

/// Builds, saves, reloads and serves `ds`.
Result<SetupTime> SetUp(const WorkloadSpec& spec, const Dataset& ds,
                        const std::string& path, SpanLog* log, Serving* out) {
  ScopedSpan setup(log, "setup");
  const uint64_t t0 = obs::NowNanos();
  const double cpu0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  {
    I3Options o;
    o.space = ds.space;
    I3Index built(o);
    {
      ScopedSpan span(log, "build", setup.id());
      for (const SpatialDocument& d : ds.docs) {
        I3_RETURN_NOT_OK(built.Insert(d));
      }
    }
    ScopedSpan span(log, "save", setup.id());
    I3_RETURN_NOT_OK(built.SaveTo(path));
  }
  std::vector<std::unique_ptr<SpatialKeywordIndex>> shards;
  {
    ScopedSpan span(log, "load", setup.id());
    auto loaded = I3Index::LoadFrom(path, WorkloadOptions(spec));
    if (!loaded.ok()) return loaded.status();
    shards.push_back(loaded.MoveValue());
  }
  out->index = std::make_unique<ShardedIndex>(std::move(shards));
  ScopedSpan span(log, "server_start", setup.id());
  out->server = std::make_unique<net::Server>(out->index.get(),
                                              net::ServerOptions{});
  I3_RETURN_NOT_OK(out->server->Start());
  return SetupTime{static_cast<double>(obs::NowNanos() - t0) / 1e9,
                   CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0};
}

// ------------------------------------------------------------- timed phase

/// \brief Runs the load window by window. Load threads send only while a
/// window is open and park between windows, so the main thread reads the
/// CPU clocks and times the reference kernel on an idle server.
class Gate {
 public:
  explicit Gate(uint32_t threads) : threads_(threads) {}

  /// Load thread: parks until a window later than `*window` opens (true;
  /// updates `*window` and `*open_ns`, the window's start) or the phase
  /// stops (false).
  bool Park(uint64_t* window, uint64_t* open_ns) {
    std::unique_lock<std::mutex> lock(mu_);
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock,
             [&] { return stopped_ || (IsOpen() && window_ > *window); });
    --parked_;
    *window = window_;
    *open_ns = open_ns_;
    return !stopped_;
  }

  /// Load thread: whether the current window is still open.
  bool IsOpen() const { return open_.load(std::memory_order_relaxed); }

  /// Main thread: waits until every load thread is parked.
  void WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return parked_ == threads_; });
  }

  void Open(uint64_t now_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    ++window_;
    open_ns_ = now_ns;
    open_.store(true, std::memory_order_relaxed);
    cv_.notify_all();
  }

  /// Closes the window and waits until every load thread has parked.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_.store(false, std::memory_order_relaxed);
    }
    WaitParked();
  }

  void Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    cv_.notify_all();
  }

 private:
  const uint32_t threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint32_t parked_ = 0;
  uint64_t window_ = 0;
  uint64_t open_ns_ = 0;
  bool stopped_ = false;
  /// Written under mu_; load threads also poll it between requests.
  std::atomic<bool> open_{false};
};

/// One closed-loop reader connection: one request in flight at a time.
struct Reader {
  Reader(RequestStream s, std::unique_ptr<SpanLog> l)
      : stream(std::move(s)), spans(std::move(l)) {}

  RequestStream stream;
  std::unique_ptr<SpanLog> spans;  ///< null when untraced
  clockid_t cpu_clock{};
  std::atomic<uint64_t> ok{0};
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Microseconds. A fixed-size histogram, so the benchmark's own memory
  /// does not grow with throughput and move peak_rss_mb.
  obs::HistogramSnapshot latency_us;
};

/// Sends the stream's next request and waits for its response; records
/// its latency when `timed`. False when the connection is unusable.
bool Issue(net::Client* client, Reader* r, bool timed) {
  const net::Request req = r->stream.Next();
  SpanLog* log = r->spans.get();
  ScopedSpan root(log, "request", kNoParent, req.request_id);
  const uint64_t t0 = obs::NowNanos();
  std::string frame;
  {
    ScopedSpan span(log, "encode", root.id(), req.request_id);
    net::EncodeRequest(req, &frame);
  }
  Status sent;
  {
    ScopedSpan span(log, "send", root.id(), req.request_id);
    sent = client->SendBytes(frame.data(), frame.size());
  }
  Result<net::Response> resp = Status::IOError("request not sent");
  if (sent.ok()) {
    ScopedSpan span(log, "read_response", root.id(), req.request_id);
    resp = client->ReadResponse();
  }
  const uint64_t t1 = obs::NowNanos();
  ++r->attempted;
  if (!resp.ok()) {
    ++r->failed;
    return false;
  }
  const net::Response& rr = resp.ValueOrDie();
  if (rr.request_id != req.request_id ||
      rr.outcome != net::ResponseOutcome::kOk || rr.degraded) {
    ++r->failed;
    return true;
  }
  if (timed) r->latency_us.Record((t1 - t0) / 1000);
  r->ok.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void RunReader(Reader* r, uint16_t port, uint32_t warmup, Gate* gate) {
  pthread_getcpuclockid(pthread_self(), &r->cpu_clock);
  net::ClientOptions co;
  co.port = port;
  co.recv_timeout_ms = 30000;
  auto client = net::Client::Connect(co);
  bool usable = client.ok();
  if (!usable) ++r->failed;
  for (uint32_t i = 0; usable && i < warmup; ++i) {
    usable = Issue(client.ValueOrDie().get(), r, false);
  }
  // A broken connection keeps parking until the phase stops: the main
  // thread waits for every load thread at each window boundary.
  uint64_t window = 0, open_ns = 0;
  while (gate->Park(&window, &open_ns)) {
    while (usable && gate->IsOpen()) {
      usable = Issue(client.ValueOrDie().get(), r, true);
    }
  }
}

/// The open-loop writer: pair i of a window (delete the oldest document,
/// insert a new tweet) is due at the window's start + i / rate, and is
/// timed from that due time. Each window runs all of its pairs, late ones
/// included, before the writer parks.
struct Writer {
  uint32_t begin = 0;
  /// Pairs per window.
  std::vector<uint32_t> per_window;
  std::unique_ptr<SpanLog> spans;
  std::atomic<uint64_t> done{0};
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> latency_ns;
  std::vector<uint64_t> lateness_ns;
};

void RunWriter(Writer* w, ShardedIndex* index, const Corpus& corpus,
               uint32_t rate, Gate* gate) {
  SpanLog* log = w->spans.get();
  uint32_t j = w->begin;
  uint64_t window = 0, open_ns = 0;
  while (gate->Park(&window, &open_ns)) {
    const uint32_t n = window <= w->per_window.size()
                           ? w->per_window[window - 1]
                           : 0;
    for (uint32_t i = 0; i < n; ++i, ++j) {
      const uint64_t due =
          open_ns + static_cast<uint64_t>(i) * 1000000000ull / rate;
      const uint64_t now = obs::NowNanos();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      w->lateness_ns.push_back(obs::NowNanos() - due);
      ScopedSpan pair(log, "write_pair", kNoParent, j);
      Status st;
      {
        ScopedSpan span(log, "delete", pair.id(), j);
        st = index->Delete(corpus.initial.docs[j]);
      }
      if (st.ok()) {
        ScopedSpan span(log, "insert", pair.id(), j);
        st = index->Insert(corpus.inserts[j]);
      }
      w->latency_ns.push_back(obs::NowNanos() - due);
      ++w->attempted;
      w->done.fetch_add(1, std::memory_order_relaxed);
      if (!st.ok()) {
        ++w->failed;
        std::fprintf(stderr, "write pair %u failed: %s\n", j,
                     st.ToString().c_str());
      }
    }
  }
}

/// Process-wide counters the per-layer metrics difference over a phase.
struct Counters {
  uint64_t pool_hits = 0, pool_misses = 0;
  uint64_t cell_hits = 0, cell_misses = 0, cell_evictions = 0;
  uint64_t rc_hits = 0, rc_misses = 0;
  uint64_t shed = 0;
  uint64_t batches = 0, batched = 0;

  static Counters Read() {
    Counters c;
    c.pool_hits = CounterValue("i3_buffer_pool_hits_total");
    c.pool_misses = CounterValue("i3_buffer_pool_misses_total");
    c.cell_hits = CounterValue("i3_cell_cache_hits_total");
    c.cell_misses = CounterValue("i3_cell_cache_misses_total");
    c.cell_evictions = CounterValue("i3_cell_cache_evictions_total");
    c.rc_hits = CounterValue("i3_result_cache_hits_total");
    c.rc_misses = CounterValue("i3_result_cache_misses_total");
    c.shed = CounterValue("i3_requests_shed_total");
    const obs::HistogramSnapshot b = obs::MetricsRegistry::Global()
                                         .GetHistogram("i3_net_batch_size", "")
                                         ->Snapshot();
    c.batches = b.count();
    c.batched = b.sum();
    return c;
  }

  Counters Since(const Counters& a) const {
    Counters d;
    d.pool_hits = pool_hits - a.pool_hits;
    d.pool_misses = pool_misses - a.pool_misses;
    d.cell_hits = cell_hits - a.cell_hits;
    d.cell_misses = cell_misses - a.cell_misses;
    d.cell_evictions = cell_evictions - a.cell_evictions;
    d.rc_hits = rc_hits - a.rc_hits;
    d.rc_misses = rc_misses - a.rc_misses;
    d.shed = shed - a.shed;
    d.batches = batches - a.batches;
    d.batched = batched - a.batched;
    return d;
  }
};

struct PhaseResult {
  std::vector<double> window_qps;
  /// Server CPU per served operation (read or write pair).
  std::vector<double> window_cpu_us;
  /// Reference-kernel timings taken at every window boundary.
  std::vector<double> ref_us;
  obs::HistogramSnapshot latency_us;
  /// Writer pairs applied.
  uint32_t writes = 0;
  std::vector<uint64_t> write_ns;
  std::vector<uint64_t> lateness_ns;
  uint64_t completed = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double steal_pct = 0.0;
  Counters counters;
};

/// Everything a phase reads; owned by Main.
struct Context {
  const WorkloadSpec* spec;
  const Args* args;
  const Corpus* corpus;
  const QueryGenerator* gen;
  const std::vector<net::Request>* pool;
  Serving* serving;
  /// Spans of the traced phase's threads, kept for the trace file.
  std::vector<std::unique_ptr<SpanLog>>* phase_spans;
};

/// Runs `seconds` of load in one-second windows. The writer (if the
/// workload writes) applies pairs write_begin, write_begin + 1, ... up to
/// the corpus's supply; PhaseResult::writes counts them.
PhaseResult RunPhase(const Context& ctx, uint32_t phase, double seconds,
                     uint32_t warmup, bool traced, uint32_t write_begin) {
  // Windows: qps and CPU per operation are medians over equal slices of
  // the phase, so a burst of host contention moves one slice, not all.
  const uint32_t windows =
      std::max<uint32_t>(2, static_cast<uint32_t>(std::lround(seconds)));
  const double window_s = seconds / windows;
  const uint32_t rate = ctx.spec->write_pairs_per_s;
  const bool writes = rate > 0;
  Writer writer;
  writer.begin = write_begin;
  const uint32_t supply =
      static_cast<uint32_t>(ctx.corpus->inserts.size()) - write_begin;
  const auto due_by = [&](uint32_t w) {
    return static_cast<uint32_t>(std::floor(w * window_s * rate));
  };
  uint32_t pairs = 0;
  for (uint32_t w = 1; writes && w <= windows; ++w) {
    const uint32_t n = std::min(supply - pairs, due_by(w) - due_by(w - 1));
    writer.per_window.push_back(n);
    pairs += n;
  }
  writer.latency_ns.reserve(pairs);
  writer.lateness_ns.reserve(pairs);

  Gate gate(kReaders + (writes ? 1 : 0));
  std::vector<std::unique_ptr<Reader>> readers;
  for (uint32_t c = 0; c < kReaders; ++c) {
    readers.push_back(std::make_unique<Reader>(
        RequestStream(ctx.gen, ctx.pool, StreamSeed(ctx.args->seed, phase, c)),
        traced ? std::make_unique<SpanLog>("reader" + std::to_string(c))
               : nullptr));
  }
  const uint16_t port = ctx.serving->server->port();
  std::vector<std::thread> threads;
  for (auto& r : readers) {
    threads.emplace_back(RunReader, r.get(), port, warmup, &gate);
  }
  if (writes) {
    if (traced) writer.spans = std::make_unique<SpanLog>("writer");
    threads.emplace_back(RunWriter, &writer, ctx.serving->index.get(),
                         std::cref(*ctx.corpus), rate, &gate);
  }
  gate.WaitParked();

  // Server CPU is the process's minus the clients': the readers and this
  // thread, which runs the reference kernel. The writer's Delete/Insert
  // runs against the served index, so its CPU is server work and each of
  // its pairs an operation served.
  struct Sample {
    uint64_t reads = 0;
    uint64_t ops = 0;
    double client_cpu = 0.0;
    double process_cpu = 0.0;
    uint64_t ns = 0;
  };
  auto sample = [&]() {
    Sample s;
    s.client_cpu = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    for (auto& r : readers) {
      s.reads += r->ok.load(std::memory_order_relaxed);
      s.client_cpu += CpuSeconds(r->cpu_clock);
    }
    s.ops = s.reads + writer.done.load(std::memory_order_relaxed);
    s.process_cpu = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    s.ns = obs::NowNanos();
    return s;
  };
  // The reference kernel runs only while every load thread is parked.
  constexpr int kRefReps = 5;
  PhaseResult res;
  const Counters counters_before = Counters::Read();
  const HostCpu host_before = ReadHostCpu();
  TimeRefKernel(kRefReps, &res.ref_us);
  for (uint32_t w = 0; w < windows; ++w) {
    const Sample s0 = sample();
    gate.Open(s0.ns);
    std::this_thread::sleep_for(std::chrono::duration<double>(window_s));
    gate.Close();
    const Sample s1 = sample();
    TimeRefKernel(kRefReps, &res.ref_us);
    const uint64_t ops = s1.ops - s0.ops;
    if (ops > 0) {
      res.window_qps.push_back(static_cast<double>(s1.reads - s0.reads) /
                               (static_cast<double>(s1.ns - s0.ns) / 1e9));
      res.window_cpu_us.push_back((s1.process_cpu - s0.process_cpu -
                                   (s1.client_cpu - s0.client_cpu)) *
                                  1e6 / static_cast<double>(ops));
    }
  }
  gate.Stop();
  for (auto& t : threads) t.join();
  res.steal_pct = StealPct(host_before, ReadHostCpu());
  res.counters = Counters::Read().Since(counters_before);

  for (auto& r : readers) {
    res.completed += r->ok.load();
    res.attempted += r->attempted;
    res.failed += r->failed;
    res.latency_us.MergeFrom(r->latency_us);
    if (r->spans != nullptr) ctx.phase_spans->push_back(std::move(r->spans));
  }
  res.writes = static_cast<uint32_t>(writer.attempted);
  res.attempted += writer.attempted;
  res.failed += writer.failed;
  res.write_ns = std::move(writer.latency_ns);
  res.lateness_ns = std::move(writer.lateness_ns);
  if (writer.spans != nullptr) {
    ctx.phase_spans->push_back(std::move(writer.spans));
  }
  return res;
}

// -------------------------------------------------------------- validation

struct Validation {
  uint64_t checksum = 1469598103934665603ull;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
};

void Fold(uint64_t* acc, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *acc ^= v >> (i * 8) & 0xff;
    *acc *= 1099511628211ull;
  }
}

/// The first `n` requests of reader 0's stream in the first timed phase.
std::vector<net::Request> FirstRequests(const Context& ctx, uint32_t n) {
  RequestStream stream(ctx.gen, ctx.pool, StreamSeed(ctx.args->seed, 0, 0));
  std::vector<net::Request> out;
  for (uint32_t i = 0; i < n; ++i) out.push_back(stream.Next());
  return out;
}

/// Replays the first requests of reader 0's stream over the wire and
/// compares each response with a BruteForceIndex holding the corpus with
/// the first `writes` writer pairs applied.
Validation Validate(const Context& ctx, uint32_t writes, SpanLog* log) {
  ScopedSpan span(log, "validate");
  Validation v;
  BruteForceIndex oracle(ctx.corpus->initial.space);
  for (const SpatialDocument& d : ctx.corpus->initial.docs) {
    if (!oracle.Insert(d).ok()) ++v.failed;
  }
  for (uint32_t j = 0; j < writes; ++j) {
    if (!oracle.Delete(ctx.corpus->initial.docs[j]).ok() ||
        !oracle.Insert(ctx.corpus->inserts[j]).ok()) {
      ++v.failed;
    }
  }
  net::ClientOptions co;
  co.port = ctx.serving->server->port();
  co.recv_timeout_ms = 30000;
  auto client = net::Client::Connect(co);
  if (!client.ok()) {
    ++v.attempted;
    ++v.failed;
    return v;
  }
  for (const net::Request& req :
       FirstRequests(ctx, ctx.spec->validate_requests)) {
    ++v.attempted;
    auto resp = client.ValueOrDie()->Call(req);
    auto want = oracle.Search(req.ToQuery(), req.alpha);
    if (!resp.ok() || !want.ok() ||
        resp.ValueOrDie().outcome != net::ResponseOutcome::kOk ||
        resp.ValueOrDie().degraded) {
      ++v.failed;
      continue;
    }
    const uint64_t got = net::ResultChecksum(resp.ValueOrDie().results);
    Fold(&v.checksum, got);
    if (got != net::ResultChecksum(want.ValueOrDie())) {
      ++v.mismatches;
      ++v.failed;
    }
  }
  return v;
}

// ------------------------------------------------------------------- main

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=NAME [--seed=N] [--seconds=S] "
                 "[--trace=0|1] [--quick] [--out=DIR]\n");
    return 2;
  }
  std::unique_ptr<WorkloadSpec> spec = FindWorkload(args.workload, args.quick);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  if (::mkdir(args.out.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s\n", args.out.c_str());
    return 2;
  }
  const uint64_t origin_ns = obs::NowNanos();
  std::unique_ptr<SpanLog> main_log =
      args.traced ? std::make_unique<SpanLog>("main") : nullptr;

  const Corpus corpus = MakeCorpus(*spec);
  const QueryGenerator gen(corpus.initial);
  const std::vector<net::Request> pool = MakeRepeatPool(*spec, gen, args.seed);
  const std::string index_path = args.out + "/" + spec->name + "." +
                                 std::to_string(::getpid()) + ".i3";

  Serving serving;
  std::vector<double> setup_cpu_s, setup_wall_s, setup_ref_us;
  for (uint32_t rep = 0; rep < spec->setup_reps; ++rep) {
    serving.Reset();
    TimeRefKernel(5, &setup_ref_us);
    auto t = SetUp(*spec, corpus.initial, index_path, main_log.get(),
                   &serving);
    if (!t.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   t.status().ToString().c_str());
      std::remove(index_path.c_str());
      return 1;
    }
    TimeRefKernel(5, &setup_ref_us);
    setup_cpu_s.push_back(t.ValueOrDie().cpu_s);
    setup_wall_s.push_back(t.ValueOrDie().wall_s);
  }
  const double bytes_per_doc =
      Ratio(serving.index->SizeInfo().TotalBytes(),
            serving.index->DocumentCount());

  std::vector<std::unique_ptr<SpanLog>> phase_spans;
  const Context ctx{spec.get(), &args, &corpus, &gen, &pool, &serving,
                    &phase_spans};
  // The untraced phase yields every end-to-end metric; a traced run
  // halves it and repeats the workload with spans on.
  const double untraced_s = args.traced ? args.seconds / 2 : args.seconds;
  PhaseResult a = RunPhase(ctx, 0, untraced_s, spec->warmup_per_conn,
                           /*traced=*/false, 0);
  const double peak_rss_mb = PeakRssMb();
  PhaseResult b;
  if (args.traced) {
    b = RunPhase(ctx, 1, args.seconds / 2, 0, /*traced=*/true, a.writes);
  }
  const Validation v = Validate(ctx, a.writes + b.writes, main_log.get());
  serving.Reset();

  std::vector<Metric> m;
  m.push_back({"setup_s",
               AtNominalSpeed(Median(setup_cpu_s), Median(setup_ref_us)),
               "s"});
  m.push_back({"cpu_us_per_req",
               AtNominalSpeed(Median(a.window_cpu_us), Median(a.ref_us)),
               "us"});
  m.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  m.push_back({"index_bytes_per_doc", bytes_per_doc, "B"});
  // Raw times, printed on every run but not bounded: they move with the
  // host's load by more than any bound a regression gate could use.
  m.push_back({"qps", Median(a.window_qps), "1/s"});
  m.push_back({"p50_us", static_cast<double>(a.latency_us.Quantile(0.50)),
               "us"});
  m.push_back({"p99_us", static_cast<double>(a.latency_us.Quantile(0.99)),
               "us"});
  m.push_back({"setup_wall_s", Median(setup_wall_s), "s"});
  m.push_back({"cpu_us_per_req_raw", Median(a.window_cpu_us), "us"});
  // Host noise and generator health.
  m.push_back({"host.ref_kernel_us", Median(a.ref_us), "us"});
  m.push_back({"host.steal_pct", a.steal_pct, "%"});
  m.push_back({"gen.write_lateness_p99_ms",
               Quantile(&a.lateness_ns, 0.99) / 1e6, "ms"});

  uint64_t attempted = a.attempted + b.attempted + v.attempted;
  uint64_t failed = a.failed + b.failed + v.failed;
  bool ledger_ok = true;
  if (args.traced) {
    const Counters& c = a.counters;
    const uint64_t searches = a.completed - std::min(a.completed, c.rc_hits);
    const double write_p50_us = Quantile(&a.write_ns, 0.50) / 1e3;
    m.push_back({"write_p50_us", write_p50_us, "us"});
    m.push_back({"write_p99_us", Quantile(&a.write_ns, 0.99) / 1e3, "us"});
    m.push_back({"failed_frac", Ratio(failed, attempted), "ratio"});
    m.push_back({"storage.buffer_pool.hit_ratio",
                 Ratio(c.pool_hits, c.pool_hits + c.pool_misses), "ratio"});
    m.push_back({"i3.cell_cache.hit_ratio",
                 Ratio(c.cell_hits, c.cell_hits + c.cell_misses), "ratio"});
    m.push_back({"i3.cell_cache.evictions_per_query",
                 Ratio(c.cell_evictions, searches), "count"});
    m.push_back({"net.result_cache.hit_ratio",
                 Ratio(c.rc_hits, c.rc_hits + c.rc_misses), "ratio"});
    m.push_back({"net.shed_frac", Ratio(c.shed, a.attempted), "ratio"});
    m.push_back({"net.batch_size_mean", Ratio(c.batched, c.batches),
                 "count"});
    const double qps_a = Median(a.window_qps);
    const double overhead_pct =
        qps_a == 0.0 ? 0.0 : 100.0 * (qps_a - Median(b.window_qps)) / qps_a;
    m.push_back({"obs.trace_overhead_pct", overhead_pct, "%"});

    const std::vector<net::Request> replay =
        FirstRequests(ctx, spec->ledger_requests);
    std::string extra;
    Status st = RunLedger(*spec, index_path, replay, corpus, main_log.get(),
                          &m, &extra);
    if (!st.ok()) {
      std::fprintf(stderr, "ledger failed: %s\n", st.ToString().c_str());
      ledger_ok = false;
      extra.clear();
    }
    double write_us = 0.0;
    for (const Metric& x : m) {
      if (x.name == "i3.write_us") write_us = x.value;
    }
    m.push_back({"model.write_wait_us",
                 spec->write_pairs_per_s == 0 ? 0.0 : write_p50_us - write_us,
                 "us"});
    std::vector<const SpanLog*> logs = {main_log.get()};
    for (const auto& l : phase_spans) logs.push_back(l.get());
    if (!extra.empty()) extra += ",\n";
    extra += "\"obs.trace_overhead_pct\": " + FormatNumber(overhead_pct);
    const std::string trace_path = args.out + "/" + spec->name + ".trace.json";
    st = WriteTraceJson(trace_path, spec->name, logs, origin_ns, extra);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      ledger_ok = false;
    }
    std::printf("trace %s\n", trace_path.c_str());
  }
  std::remove(index_path.c_str());

  const bool correct = v.mismatches == 0 && failed == 0 && ledger_ok;
  for (const Metric& x : m) {
    std::printf("%s %s %s\n", x.name.c_str(), FormatNumber(x.value).c_str(),
                x.unit.c_str());
  }
  std::printf("validation_checksum %016" PRIx64 " hex\n", v.checksum);
  std::printf("validation_mismatches %" PRIu64 " count\n", v.mismatches);
  std::ostringstream json;
  json << "RESULT {\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"validation_checksum\": \"" << std::hex << v.checksum
       << std::dec << "\", \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << m[i].name
         << "\": {\"value\": " << FormatNumber(m[i].value) << ", \"unit\": \""
         << m[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace i3

int main(int argc, char** argv) { return i3::e2e::Main(argc, argv); }
