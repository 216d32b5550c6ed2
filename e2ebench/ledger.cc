#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>

#include "i3/cell_codec.h"
#include "i3/i3_index.h"
#include "model/sharded_index.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "storage/checksum.h"

namespace i3 {
namespace e2e {

namespace {

/// Timed passes per row (after one untimed warm-up pass); rows run
/// interleaved within a pass, so host noise hits every row alike. The
/// minimum of many short passes: the host's load moves a single pass by
/// tens of percent, and five passes rarely include a quiet one.
constexpr int kPasses = 15;
/// A pool this large never evicts: every page stays resident.
constexpr size_t kResidentPages = 1u << 20;
/// Pages the CRC / verify / decode micro-timings sweep.
constexpr uint32_t kMicroPages = 512;
/// Writer pairs replayed on the quiet index.
constexpr uint32_t kQuietWrites = 200;

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

Status CheckResponse(const Result<net::Response>& resp) {
  if (!resp.ok()) return resp.status();
  const net::Response& r = resp.ValueOrDie();
  if (r.outcome != net::ResponseOutcome::kOk || r.degraded) {
    return Status::Internal("ledger request not served: " + r.message);
  }
  return Status::OK();
}

/// A loopback server over `index` plus one connected client.
struct Wire {
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::Client> client;

  static Result<Wire> Start(ShardedIndex* index, size_t cache_entries) {
    Wire w;
    net::ServerOptions so;
    so.result_cache_entries = cache_entries;
    w.server = std::make_unique<net::Server>(index, so);
    I3_RETURN_NOT_OK(w.server->Start());
    net::ClientOptions co;
    co.port = w.server->port();
    co.recv_timeout_ms = 30000;
    auto c = net::Client::Connect(co);
    if (!c.ok()) return c.status();
    w.client = c.MoveValue();
    return w;
  }
};

/// Work counted over one direct pass of the serving I3 index.
struct WorkCounts {
  uint64_t pages_read = 0;
  uint64_t device_reads = 0;
  uint64_t results = 0;
  I3SearchStats stats;
};

void Accumulate(const I3SearchStats& s, I3SearchStats* acc) {
  acc->candidates_pushed += s.candidates_pushed;
  acc->candidates_popped += s.candidates_popped;
  acc->cells_pruned_signature += s.cells_pruned_signature;
  acc->cells_pruned_coverage += s.cells_pruned_coverage;
  acc->cells_pruned_score += s.cells_pruned_score;
  acc->docs_scored += s.docs_scored;
  acc->cells_skipped += s.cells_skipped;
  acc->blockmax_prunes += s.blockmax_prunes;
}

Status DirectPass(SpatialKeywordIndex* index,
                  const std::vector<net::Request>& requests,
                  WorkCounts* counts) {
  I3Index* i3 = counts != nullptr ? static_cast<I3Index*>(index) : nullptr;
  IoStats io_before;
  uint64_t misses_before = 0;
  if (counts != nullptr) {
    io_before = index->io_stats();
    misses_before = CounterValue("i3_buffer_pool_misses_total");
  }
  for (const net::Request& r : requests) {
    auto res = index->Search(r.ToQuery(), r.alpha);
    if (!res.ok()) return res.status();
    if (counts != nullptr) {
      Accumulate(i3->last_search_stats(), &counts->stats);
      counts->results += res.ValueOrDie().size();
    }
  }
  if (counts != nullptr) {
    counts->pages_read = index->io_stats().Since(io_before).TotalReads();
    counts->device_reads =
        CounterValue("i3_buffer_pool_misses_total") - misses_before;
  }
  return Status::OK();
}

/// Request and response frames of one codec pass.
struct Frames {
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
  std::vector<net::Response> responses;
};

/// Row 6: the protocol codec in-process around ShardedIndex::Search.
Status CodecPass(ShardedIndex* index,
                 const std::vector<net::Request>& requests, Frames* frames) {
  std::string req_frame, resp_frame;
  for (const net::Request& r : requests) {
    req_frame.clear();
    net::EncodeRequest(r, &req_frame);
    auto req = net::DecodeRequest(
        reinterpret_cast<const uint8_t*>(req_frame.data()) +
            net::kFrameHeaderBytes,
        req_frame.size() - net::kFrameHeaderBytes);
    if (!req.ok()) return req.status();
    const net::Request& decoded = req.ValueOrDie();
    auto res = index->Search(decoded.ToQuery(), decoded.alpha);
    if (!res.ok()) return res.status();
    net::Response resp;
    resp.request_id = decoded.request_id;
    resp.results = res.MoveValue();
    resp_frame.clear();
    net::EncodeResponse(resp, &resp_frame);
    auto back = net::DecodeResponse(
        reinterpret_cast<const uint8_t*>(resp_frame.data()) +
            net::kFrameHeaderBytes,
        resp_frame.size() - net::kFrameHeaderBytes);
    if (!back.ok()) return back.status();
    if (frames != nullptr) {
      frames->request_bytes += req_frame.size();
      frames->response_bytes += resp_frame.size();
      frames->responses.push_back(std::move(resp));
    }
  }
  return Status::OK();
}

Status WirePass(net::Client* client,
                const std::vector<net::Request>& requests) {
  for (const net::Request& r : requests) {
    I3_RETURN_NOT_OK(CheckResponse(client->Call(r)));
  }
  return Status::OK();
}

/// Minimum over kPasses of `fn`'s wall time, in seconds.
template <typename Fn>
Result<double> MinOfPasses(Fn&& fn) {
  double best = std::numeric_limits<double>::max();
  for (int p = 0; p < kPasses; ++p) {
    const uint64_t t0 = obs::NowNanos();
    I3_RETURN_NOT_OK(fn());
    best = std::min(best, Seconds(obs::NowNanos() - t0));
  }
  return best;
}

/// CRC, verify and decode costs per data page of `index`.
Status MicroTimings(I3Index* index, std::vector<Metric>* out) {
  const uint32_t pages =
      std::min<uint32_t>(kMicroPages, static_cast<uint32_t>(
                                          index->DataPageCount()));
  std::vector<std::vector<uint8_t>> bytes;
  for (uint32_t p = 0; p < pages; ++p) {
    auto b = index->ReadDataPageBytes(p);
    if (!b.ok()) return b.status();
    bytes.push_back(b.MoveValue());
  }
  if (bytes.empty()) return Status::Internal("index has no data pages");
  volatile uint64_t sink = 0;
  auto crc = MinOfPasses([&]() {
    for (const auto& b : bytes) sink = sink + Crc32c(b.data(), b.size());
    return Status::OK();
  });
  if (!crc.ok()) return crc.status();
  auto verify = MinOfPasses([&]() {
    for (uint32_t p = 0; p < pages; ++p) {
      I3_RETURN_NOT_OK(index->VerifyDataPage(p));
    }
    return Status::OK();
  });
  if (!verify.ok()) return verify.status();
  auto decode = MinOfPasses([&]() {
    for (const auto& b : bytes) {
      if (!codec::IsV2Page(b.data(), b.size())) continue;
      auto groups = codec::GroupCount(b.data(), b.size());
      if (!groups.ok()) return groups.status();
      for (uint32_t g = 0; g < groups.ValueOrDie(); ++g) {
        codec::GroupRef ref;
        I3_RETURN_NOT_OK(codec::ReadGroupRef(b.data(), b.size(), g, &ref));
        auto found = codec::FindGroup(b.data(), b.size(), ref.source, &ref);
        if (!found.ok()) return found.status();
        codec::DecodeScratch scratch;
        codec::DecodedGroup d;
        I3_RETURN_NOT_OK(
            codec::DecodeGroup(b.data(), b.size(), ref, &scratch, &d));
        sink = sink + d.n;
      }
    }
    return Status::OK();
  });
  if (!decode.ok()) return decode.status();
  const double n = static_cast<double>(pages);
  out->push_back({"storage.crc_us_per_page", crc.ValueOrDie() * 1e6 / n, "us"});
  out->push_back(
      {"storage.verify_us_per_page", verify.ValueOrDie() * 1e6 / n, "us"});
  out->push_back(
      {"i3.decode_us_per_page", decode.ValueOrDie() * 1e6 / n, "us"});
  return Status::OK();
}

/// Encode + decode of each request and response frame, per request.
Result<double> CodecMicros(const std::vector<net::Request>& requests,
                           const Frames& frames) {
  std::string req_frame, resp_frame;
  auto t = MinOfPasses([&]() {
    for (size_t i = 0; i < requests.size(); ++i) {
      req_frame.clear();
      net::EncodeRequest(requests[i], &req_frame);
      auto req = net::DecodeRequest(
          reinterpret_cast<const uint8_t*>(req_frame.data()) +
              net::kFrameHeaderBytes,
          req_frame.size() - net::kFrameHeaderBytes);
      if (!req.ok()) return req.status();
      resp_frame.clear();
      net::EncodeResponse(frames.responses[i], &resp_frame);
      auto resp = net::DecodeResponse(
          reinterpret_cast<const uint8_t*>(resp_frame.data()) +
              net::kFrameHeaderBytes,
          resp_frame.size() - net::kFrameHeaderBytes);
      if (!resp.ok()) return resp.status();
    }
    return Status::OK();
  });
  if (!t.ok()) return t.status();
  return t.ValueOrDie() * 1e6 / static_cast<double>(requests.size());
}

/// The writer's first pairs on a quiet (reader-free) index: median pair
/// latency and pages written per pair.
Status QuietWrites(ShardedIndex* index, const Corpus& corpus,
                   std::vector<Metric>* out) {
  const uint32_t n = std::min<uint32_t>(
      kQuietWrites, static_cast<uint32_t>(corpus.inserts.size()));
  std::vector<double> us;
  const IoStats before = index->io_stats();
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t t0 = obs::NowNanos();
    I3_RETURN_NOT_OK(index->Delete(corpus.initial.docs[i]));
    I3_RETURN_NOT_OK(index->Insert(corpus.inserts[i]));
    us.push_back(static_cast<double>(obs::NowNanos() - t0) / 1e3);
  }
  const uint64_t written = index->io_stats().Since(before).TotalWrites();
  double median = 0.0, per_write = 0.0;
  if (n > 0) {
    std::sort(us.begin(), us.end());
    median = us[us.size() / 2];
    per_write = static_cast<double>(written) / n;
  }
  out->push_back({"i3.write_us", median, "us"});
  out->push_back({"storage.pages_written_per_write", per_write, "count"});
  return Status::OK();
}

}  // namespace

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name, "")->Value();
}

Status RunLedger(const WorkloadSpec& spec, const std::string& index_path,
                 const std::vector<net::Request>& requests,
                 const Corpus& corpus, SpanLog* log,
                 std::vector<Metric>* out, std::string* rows_json) {
  ScopedSpan ledger_span(log, "ledger");
  if (requests.empty()) return Status::InvalidArgument("no ledger requests");

  // Rows 1-3 each get their own load of the index; rows 4-8 share the
  // serving stack, whose state then evolves deterministically.
  const I3Options serving = WorkloadOptions(spec);
  I3Options pinned = serving;
  pinned.buffer_pool.capacity_pages = kResidentPages;
  pinned.buffer_pool.simulated_miss_latency_us = 0;
  pinned.checksum_pages = false;
  pinned.cell_cache_bytes = 0;
  I3Options pool = serving;
  pool.checksum_pages = false;
  pool.cell_cache_bytes = 0;
  I3Options crc = serving;
  crc.cell_cache_bytes = 0;
  std::vector<std::unique_ptr<I3Index>> direct;
  for (const I3Options& o : {pinned, pool, crc}) {
    auto idx = I3Index::LoadFrom(index_path, o);
    if (!idx.ok()) return idx.status();
    direct.push_back(idx.MoveValue());
  }
  auto full = I3Index::LoadFrom(index_path, serving);
  if (!full.ok()) return full.status();
  I3Index* full_i3 = full.ValueOrDie().get();
  std::vector<std::unique_ptr<SpatialKeywordIndex>> shards;
  shards.push_back(full.MoveValue());
  ShardedIndex sharded(std::move(shards));

  WorkCounts counts;
  Frames frames;
  // Servers are restarted every pass so the result cache starts each pass
  // empty, like the timed phase's (untimed; no index state is touched).
  Wire wire_off, wire_on;
  struct Row {
    const char* name;    ///< the layer metric: this row minus the last
    const char* adds;
    std::function<Status(int pass)> run;
    /// The row's caches, cleared before each pass on a cold workload
    /// (null for row 1, whose pages stay resident by definition).
    SpatialKeywordIndex* caches;
    double best_s = std::numeric_limits<double>::max();
  };
  std::vector<Row> rows = {
      {"i3.search_pinned_us", "I3, all-resident pool, no CRC, no cell cache",
       [&](int) { return DirectPass(direct[0].get(), requests, nullptr); },
       nullptr},
      {"storage.pool_us", "+ workload buffer pool",
       [&](int) { return DirectPass(direct[1].get(), requests, nullptr); },
       direct[1].get()},
      {"storage.crc_us", "+ checksum_pages",
       [&](int) { return DirectPass(direct[2].get(), requests, nullptr); },
       direct[2].get()},
      {"i3.cell_cache_us", "+ cell cache",
       [&](int pass) {
         return DirectPass(full_i3, requests, pass == 1 ? &counts : nullptr);
       },
       &sharded},
      {"model.fanout_us", "+ ShardedIndex",
       [&](int) { return DirectPass(&sharded, requests, nullptr); },
       &sharded},
      {"net.codec_round_us", "+ protocol codec",
       [&](int pass) {
         return CodecPass(&sharded, requests, pass == 1 ? &frames : nullptr);
       },
       &sharded},
      {"net.server_us", "+ loopback server, result cache off",
       [&](int) { return WirePass(wire_off.client.get(), requests); },
       &sharded},
      {"net.result_cache_us", "+ result cache",
       [&](int) { return WirePass(wire_on.client.get(), requests); },
       &sharded},
  };
  for (int pass = 0; pass <= kPasses; ++pass) {
    for (Wire* w : {&wire_off, &wire_on}) {
      if (w->server != nullptr) w->server->Stop();
      auto started = Wire::Start(&sharded, w == &wire_off
                                   ? 0
                                   : net::ServerOptions{}.result_cache_entries);
      if (!started.ok()) return started.status();
      *w = started.MoveValue();
    }
    for (Row& row : rows) {
      // On a cold workload (device reads cost time) the working set exceeds
      // the caches, but a replay of a few requests would fit them and hide
      // the device reads the workload pays: start each pass cold.
      if (spec.miss_latency_us != 0 && row.caches != nullptr) {
        row.caches->ClearCache();
      }
      ScopedSpan row_span(log, row.name, ledger_span.id(), pass);
      const uint64_t t0 = obs::NowNanos();
      I3_RETURN_NOT_OK(row.run(pass));
      // Pass 0 warms caches and is not timed.
      if (pass > 0) {
        row.best_s = std::min(row.best_s, Seconds(obs::NowNanos() - t0));
      }
    }
  }
  wire_off.server->Stop();
  wire_on.server->Stop();

  const double n = static_cast<double>(requests.size());
  double prev_us = 0.0;
  rows_json->append("\"ledger\": [");
  for (size_t i = 0; i < rows.size(); ++i) {
    const double us = rows[i].best_s * 1e6 / n;
    // Row 1 reports its absolute cost; every later row its increment.
    const double inc = i == 0 ? us : us - prev_us;
    out->push_back({rows[i].name, inc, "us"});
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"row\": %zu, \"adds\": \"%s\", \"metric\": \"%s\", "
                  "\"us_per_request\": %.4f, \"increment_us\": %.4f}",
                  i == 0 ? "" : ",", i + 1, rows[i].adds, rows[i].name, us,
                  inc);
    rows_json->append(buf);
    prev_us = us;
  }
  rows_json->append("\n]");

  const I3SearchStats& s = counts.stats;
  auto per_query = [n](uint64_t v) { return static_cast<double>(v) / n; };
  out->push_back({"storage.pages_read_per_query", per_query(counts.pages_read),
                  "count"});
  out->push_back({"storage.device_reads_per_query",
                  per_query(counts.device_reads), "count"});
  out->push_back(
      {"i3.docs_scored_per_query", per_query(s.docs_scored), "count"});
  out->push_back({"i3.candidates_popped_per_query",
                  per_query(s.candidates_popped), "count"});
  out->push_back({"i3.cells_pruned_signature_per_query",
                  per_query(s.cells_pruned_signature), "count"});
  out->push_back({"i3.cells_pruned_coverage_per_query",
                  per_query(s.cells_pruned_coverage), "count"});
  out->push_back({"i3.cells_pruned_score_per_query",
                  per_query(s.cells_pruned_score), "count"});
  out->push_back(
      {"i3.cells_skipped_per_query", per_query(s.cells_skipped), "count"});
  out->push_back({"i3.blockmax_prunes_per_query",
                  per_query(s.blockmax_prunes), "count"});
  out->push_back({"i3.useful_ratio",
                  s.docs_scored == 0 ? 0.0
                                     : static_cast<double>(counts.results) /
                                           static_cast<double>(s.docs_scored),
                  "ratio"});
  out->push_back(
      {"net.frame_bytes_req", per_query(frames.request_bytes), "B"});
  out->push_back(
      {"net.frame_bytes_resp", per_query(frames.response_bytes), "B"});
  auto codec_us = CodecMicros(requests, frames);
  if (!codec_us.ok()) return codec_us.status();
  out->push_back({"net.codec_us", codec_us.ValueOrDie(), "us"});

  {
    ScopedSpan micro_span(log, "micro_timings", ledger_span.id());
    I3_RETURN_NOT_OK(MicroTimings(direct[2].get(), out));
  }
  if (spec.write_pairs_per_s == 0) {
    out->push_back({"i3.write_us", 0.0, "us"});
    out->push_back({"storage.pages_written_per_write", 0.0, "count"});
    return Status::OK();
  }
  ScopedSpan writes_span(log, "quiet_writes", ledger_span.id());
  return QuietWrites(&sharded, corpus, out);
}

}  // namespace e2e
}  // namespace i3
