// spatialkw_cli: build, persist, and query I3 indexes over TSV corpora --
// the end-to-end command-line workflow a downstream user starts from.
//
// Input corpus format (tab-separated, one document per line):
//   id <TAB> lng <TAB> lat <TAB> free text...
//
// Usage:
//   spatialkw_cli build  <corpus.tsv> <index-prefix>
//                        [minlng minlat maxlng maxlat]
//   spatialkw_cli stats  <index-prefix>
//   spatialkw_cli query  <index-prefix> <lng> <lat> <k> <alpha>
//                        <and|or> <text...>
//   spatialkw_cli range  <index-prefix> <minlng> <minlat> <maxlng> <maxlat>
//                        <and|or> <text...>
//   spatialkw_cli serve  <index-prefix> [--port=N] [--workers=N]
//                        [--rate=R] [--burst=B]
//                        [--max-queue=N] [--result-cache-entries=N]
//                        [--slow-threshold-us=N]
//                        [--replicas=N] [--scrub-interval-ms=N]
//
// `serve` loads the index and answers the binary query protocol
// (src/net/protocol.h) over TCP, plus `GET /metrics`, `/statusz`,
// `/tracez`, `/cachez`, and `/healthz` on the same port; --port=0 (the
// default) picks an ephemeral port, printed as "serving on port N" for
// scripts (tools/loadgen) to scrape. --workers=N runs N event loops
// (default 2, at most 64), each serving its connections' requests start to
// finish, searches included. --rate/--burst set the default
// per-tenant admission budget (requests/second and bucket size; 0 =
// unlimited); --slow-threshold-us sets the slow-query-log bar.
// The index is served by a ReplicaSet (model/replica_set.h) of
// --replicas=N byte-identical loads (default 1, at most 16): reads fail
// over transparently and a killed copy is rebuilt online from a peer
// snapshot. --scrub-interval-ms=N starts the set's background maintenance
// thread at that cadence (paced CRC scrub + heal-from-peer +
// auto-recovery); with one replica it still scrubs, but detected damage
// has no peer to heal from. /healthz reports the per-replica picture.
// Integer flags take digits only, within their bounds (--port 0..65535),
// and --rate/--burst a number >= 0; a bad value fails before the index is
// loaded. The process serves until SIGINT or SIGTERM; SIGUSR1 dumps a
// JSON metrics snapshot to stdout without stopping, and a clean shutdown
// prints a final snapshot.
//
// `build` writes <prefix>.i3 (the index) and <prefix>.vocab (the term
// dictionary with document frequencies, needed to interpret query text).
//
// Global flags (any position): --metrics[=PATH] dumps the process metrics
// registry as Prometheus text on exit (stdout when no path);
// --trace-sample-rate=R traces a fraction of queries and prints the
// sampled stage breakdowns as JSON on exit; --fault-profile=SPEC re-homes
// the loaded index onto a fault-injecting in-memory backing (see
// storage/fault_injection.h for the spec grammar -- e.g.
// "seed=7,read_error=0.01,corrupt=0.005") to exercise the error paths;
// --deadline-ms=N bounds each query, returning DeadlineExceeded on
// overrun; --pool-pages=N sizes the data-file buffer pool (0 = uncached)
// and --cell-cache-mb=N the decoded-cell cache (0 = off) of every loaded
// index.

#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/deadline.h"
#include "common/timer.h"
#include "i3/i3_index.h"
#include "i3/replica_ops.h"
#include "model/replica_set.h"
#include "net/server.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/fault_injection.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

using namespace i3;

namespace {

/// Stripped global flags affecting how indexes are loaded and queried.
struct GlobalOptions {
  std::string fault_profile;
  uint64_t deadline_ms = 0;
  /// --pool-pages / --cell-cache-mb: cache sizing of loaded indexes;
  /// negative = keep the I3Options default.
  int64_t pool_pages = -1;
  int64_t cell_cache_mb = -1;
};
GlobalOptions g_opts;

/// Options every loaded index gets, honoring the global cache-sizing and
/// --fault-profile flags (the persisted index is re-homed onto an
/// injecting in-memory backing; the checksum layer above it catches
/// injected payload corruption).
Result<I3Options> BuildLoadOptions() {
  I3Options opt;
  if (g_opts.pool_pages >= 0) {
    opt.buffer_pool.capacity_pages =
        static_cast<size_t>(g_opts.pool_pages);
  }
  if (g_opts.cell_cache_mb >= 0) {
    opt.cell_cache_bytes = static_cast<size_t>(g_opts.cell_cache_mb) << 20;
  }
  if (!g_opts.fault_profile.empty()) {
    auto parsed = FaultProfile::Parse(g_opts.fault_profile);
    if (!parsed.ok()) return parsed.status();
    const FaultProfile profile = parsed.ValueOrDie();
    opt.page_file_factory = [profile](size_t page_size) {
      return std::make_unique<FaultInjectionPageFile>(
          std::make_unique<InMemoryPageFile>(page_size), profile);
    };
  }
  return opt;
}

/// Loads <prefix>.i3 under BuildLoadOptions().
Result<std::unique_ptr<I3Index>> LoadIndex(const std::string& prefix) {
  auto opt = BuildLoadOptions();
  if (!opt.ok()) return opt.status();
  return I3Index::LoadFrom(prefix + ".i3", opt.ValueOrDie());
}

struct RawDoc {
  DocId id;
  Point loc;
  std::string text;
};

int Fail(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  return 1;
}

bool ParseCorpus(const std::string& path, std::vector<RawDoc>* out) {
  std::ifstream is(path);
  if (!is) return false;
  std::string line;
  size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    RawDoc d;
    std::string id_s, lng_s, lat_s;
    if (!std::getline(ls, id_s, '\t') || !std::getline(ls, lng_s, '\t') ||
        !std::getline(ls, lat_s, '\t') || !std::getline(ls, d.text)) {
      std::fprintf(stderr, "skipping malformed line %zu\n", lineno);
      continue;
    }
    d.id = static_cast<DocId>(std::strtoul(id_s.c_str(), nullptr, 10));
    d.loc = {std::atof(lng_s.c_str()), std::atof(lat_s.c_str())};
    out->push_back(std::move(d));
  }
  return true;
}

bool SaveVocab(const std::string& path, const Vocabulary& vocab,
               uint64_t total_docs) {
  std::ofstream os(path);
  if (!os) return false;
  os << total_docs << "\n";
  for (TermId t = 0; t < vocab.size(); ++t) {
    os << vocab.TermString(t) << "\t" << vocab.DocumentFrequency(t) << "\n";
  }
  return static_cast<bool>(os);
}

bool LoadVocab(const std::string& path, Vocabulary* vocab,
               uint64_t* total_docs) {
  std::ifstream is(path);
  if (!is) return false;
  std::string line;
  if (!std::getline(is, line)) return false;
  *total_docs = std::strtoull(line.c_str(), nullptr, 10);
  while (std::getline(is, line)) {
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    const TermId id = vocab->GetOrAdd(line.substr(0, tab));
    const uint64_t df =
        std::strtoull(line.c_str() + tab + 1, nullptr, 10);
    for (uint64_t i = 0; i < df; ++i) vocab->AddDocumentOccurrence(id);
  }
  return true;
}

std::vector<TermId> QueryTerms(const std::string& text,
                               const Vocabulary& vocab) {
  Tokenizer tokenizer;
  std::vector<TermId> terms;
  for (const auto& tok : tokenizer.Tokenize(text)) {
    const TermId t = vocab.Lookup(tok);
    if (t != kInvalidTermId) {
      terms.push_back(t);
    } else {
      std::fprintf(stderr, "note: \"%s\" is not in the vocabulary\n",
                   tok.c_str());
    }
  }
  return terms;
}

int CmdBuild(int argc, char** argv) {
  if (argc < 4) return Fail("build needs <corpus.tsv> <index-prefix>");
  const std::string corpus = argv[2];
  const std::string prefix = argv[3];

  std::vector<RawDoc> raw;
  if (!ParseCorpus(corpus, &raw)) return Fail("cannot read " + corpus);
  if (raw.empty()) return Fail("corpus is empty");
  std::printf("read %zu documents\n", raw.size());

  I3Options opt;
  if (argc >= 8) {
    opt.space = {std::atof(argv[4]), std::atof(argv[5]),
                 std::atof(argv[6]), std::atof(argv[7])};
  } else {
    Rect bounds = Rect::Empty();
    for (const RawDoc& d : raw) bounds.Expand(d.loc);
    // A small margin keeps boundary points strictly inside.
    const double mx = std::max(1e-9, bounds.Width() * 0.01);
    const double my = std::max(1e-9, bounds.Height() * 0.01);
    opt.space = {bounds.min_x - mx, bounds.min_y - my, bounds.max_x + mx,
                 bounds.max_y + my};
  }

  // Pass 1: document frequencies.
  Tokenizer tokenizer;
  Vocabulary vocab;
  std::vector<std::vector<TermId>> tokenized(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    std::unordered_set<TermId> seen;
    for (const auto& tok : tokenizer.Tokenize(raw[i].text)) {
      const TermId t = vocab.GetOrAdd(tok);
      tokenized[i].push_back(t);
      seen.insert(t);
    }
    for (TermId t : seen) vocab.AddDocumentOccurrence(t);
  }

  // Pass 2: weigh and index.
  I3Index index(opt);
  TfIdfWeighter weighter(&vocab, raw.size());
  Timer timer;
  size_t skipped = 0;
  for (size_t i = 0; i < raw.size(); ++i) {
    SpatialDocument d;
    d.id = raw[i].id;
    d.location = raw[i].loc;
    d.terms = weighter.Weigh(tokenized[i]);
    auto st = index.Insert(d);
    if (!st.ok()) {
      std::fprintf(stderr, "doc %u skipped: %s\n", raw[i].id,
                   st.ToString().c_str());
      ++skipped;
    }
  }
  std::printf("indexed %zu documents in %.2fs (%zu skipped)\n",
              raw.size() - skipped, timer.ElapsedSeconds(), skipped);

  auto st = index.SaveTo(prefix + ".i3");
  if (!st.ok()) return Fail(st.ToString());
  if (!SaveVocab(prefix + ".vocab", vocab, raw.size())) {
    return Fail("cannot write " + prefix + ".vocab");
  }
  std::printf("wrote %s.i3 and %s.vocab\n", prefix.c_str(), prefix.c_str());
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc < 3) return Fail("stats needs <index-prefix>");
  auto res = LoadIndex(argv[2]);
  if (!res.ok()) return Fail(res.status().ToString());
  auto& index = *res.ValueOrDie();
  std::printf("documents:      %llu\n",
              static_cast<unsigned long long>(index.DocumentCount()));
  std::printf("keywords:       %zu\n", index.KeywordCount());
  std::printf("summary nodes:  %zu\n", index.SummaryNodeCount());
  std::printf("data pages:     %u\n", index.DataPageCount());
  std::printf("storage:        %s\n", index.SizeInfo().ToString().c_str());
  auto check = index.CheckInvariants();
  if (!check.ok()) return Fail(check.status().ToString());
  std::printf("invariants OK (%llu tuples)\n",
              static_cast<unsigned long long>(check.ValueOrDie()));
  return 0;
}

int CmdQuery(int argc, char** argv) {
  if (argc < 9) {
    return Fail("query needs <prefix> <lng> <lat> <k> <alpha> <and|or> "
                "<text...>");
  }
  const std::string prefix = argv[2];
  auto res = LoadIndex(prefix);
  if (!res.ok()) return Fail(res.status().ToString());
  Vocabulary vocab;
  uint64_t total_docs = 0;
  if (!LoadVocab(prefix + ".vocab", &vocab, &total_docs)) {
    return Fail("cannot read " + prefix + ".vocab");
  }

  Query q;
  if (g_opts.deadline_ms > 0) {
    q.control = QueryControl::AfterMicros(g_opts.deadline_ms * 1000);
  }
  q.location = {std::atof(argv[3]), std::atof(argv[4])};
  q.k = static_cast<uint32_t>(std::atoi(argv[5]));
  const double alpha = std::atof(argv[6]);
  q.semantics =
      std::strcmp(argv[7], "and") == 0 ? Semantics::kAnd : Semantics::kOr;
  std::string text;
  for (int i = 8; i < argc; ++i) {
    if (!text.empty()) text += ' ';
    text += argv[i];
  }
  q.terms = QueryTerms(text, vocab);
  if (q.terms.empty()) return Fail("no known query keyword");

  Timer timer;
  auto out = res.ValueOrDie()->Search(q, alpha);
  if (!out.ok()) return Fail(out.status().ToString());
  std::printf("%zu results in %.3f ms:\n", out.ValueOrDie().size(),
              timer.ElapsedMillis());
  for (const ScoredDoc& sd : out.ValueOrDie()) {
    std::printf("  doc %-10u score %.4f at (%.5f, %.5f)\n", sd.doc,
                sd.score, sd.location.x, sd.location.y);
  }
  return 0;
}

int CmdRange(int argc, char** argv) {
  if (argc < 9) {
    return Fail("range needs <prefix> <minlng> <minlat> <maxlng> <maxlat> "
                "<and|or> <text...>");
  }
  const std::string prefix = argv[2];
  auto res = LoadIndex(prefix);
  if (!res.ok()) return Fail(res.status().ToString());
  Vocabulary vocab;
  uint64_t total_docs = 0;
  if (!LoadVocab(prefix + ".vocab", &vocab, &total_docs)) {
    return Fail("cannot read " + prefix + ".vocab");
  }
  const Rect range{std::atof(argv[3]), std::atof(argv[4]),
                   std::atof(argv[5]), std::atof(argv[6])};
  const Semantics sem =
      std::strcmp(argv[7], "and") == 0 ? Semantics::kAnd : Semantics::kOr;
  std::string text;
  for (int i = 8; i < argc; ++i) {
    if (!text.empty()) text += ' ';
    text += argv[i];
  }
  const auto terms = QueryTerms(text, vocab);
  if (terms.empty()) return Fail("no known query keyword");

  auto out = res.ValueOrDie()->SearchRange(range, terms, sem, /*limit=*/50);
  if (!out.ok()) return Fail(out.status().ToString());
  std::printf("%zu matches in the region (top 50 by textual score):\n",
              out.ValueOrDie().size());
  for (const ScoredDoc& sd : out.ValueOrDie()) {
    std::printf("  doc %-10u text-score %.4f\n", sd.doc, sd.score);
  }
  return 0;
}

volatile std::sig_atomic_t g_stop_serving = 0;
void HandleStopSignal(int) { g_stop_serving = 1; }

volatile std::sig_atomic_t g_dump_metrics = 0;
void HandleDumpSignal(int) { g_dump_metrics = 1; }

/// Bounds of the serve flags that start threads or load index copies.
constexpr uint64_t kMaxWorkers = 64;
constexpr uint64_t kMaxReplicas = 16;

/// Parses `text` as a decimal integer in [lo, hi]: digits only, no sign,
/// blank or suffix.
bool ParseUint(const char* text, uint64_t lo, uint64_t hi, uint64_t* out) {
  if (*text == '\0') return false;
  uint64_t v = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(*p - '0');
    if (digit > hi || v > (hi - digit) / 10) return false;
    v = v * 10 + digit;
  }
  if (v < lo) return false;
  *out = v;
  return true;
}

/// Parses `text` as a finite, non-negative number with nothing after it.
bool ParseNonNegative(const char* text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < 0) {
    return false;
  }
  *out = v;
  return true;
}

int CmdServe(int argc, char** argv) {
  if (argc < 3) return Fail("serve needs <index-prefix>");
  const std::string prefix = argv[2];
  net::ServerOptions sopts;
  uint64_t port = sopts.port;
  uint64_t workers = sopts.worker_threads;
  uint64_t max_queue = sopts.max_queue;
  uint64_t cache_entries = sopts.result_cache_entries;
  uint64_t slow_us = sopts.slow_threshold_us;
  uint64_t replicas = 1;
  uint64_t scrub_interval_ms = 0;
  // Every integer flag, its bounds and its destination: a value that is
  // not all digits, or out of bounds, fails before anything is loaded.
  const struct {
    const char* flag;
    uint64_t lo, hi;
    uint64_t* out;
  } uint_flags[] = {
      {"--port=", 0, 65535, &port},
      {"--workers=", 1, kMaxWorkers, &workers},
      {"--max-queue=", 0, SIZE_MAX, &max_queue},
      {"--result-cache-entries=", 0, SIZE_MAX, &cache_entries},
      {"--slow-threshold-us=", 0, UINT64_MAX, &slow_us},
      {"--replicas=", 1, kMaxReplicas, &replicas},
      {"--scrub-interval-ms=", 0, UINT32_MAX, &scrub_interval_ms},
  };
  for (int i = 3; i < argc; ++i) {
    bool known = false;
    for (const auto& f : uint_flags) {
      const size_t n = std::strlen(f.flag);
      if (std::strncmp(argv[i], f.flag, n) != 0) continue;
      if (!ParseUint(argv[i] + n, f.lo, f.hi, f.out)) {
        return Fail(std::string("bad value in ") + argv[i] + " (want " +
                    std::to_string(f.lo) + ".." + std::to_string(f.hi) +
                    ")");
      }
      known = true;
      break;
    }
    if (known) continue;
    double* number = nullptr;
    if (std::strncmp(argv[i], "--rate=", 7) == 0) {
      number = &sopts.default_limit.rate;
    } else if (std::strncmp(argv[i], "--burst=", 8) == 0) {
      number = &sopts.default_limit.burst;
    } else {
      return Fail(std::string("unknown serve flag: ") + argv[i]);
    }
    if (!ParseNonNegative(std::strchr(argv[i], '=') + 1, number)) {
      return Fail(std::string("bad value in ") + argv[i] +
                  " (want a number >= 0)");
    }
  }
  sopts.port = static_cast<uint16_t>(port);
  sopts.worker_threads = static_cast<uint32_t>(workers);
  sopts.max_queue = static_cast<size_t>(max_queue);
  sopts.result_cache_entries = static_cast<size_t>(cache_entries);
  sopts.slow_threshold_us = slow_us;

  // The server runs over a ReplicaSet of --replicas independent loads of
  // the same persisted index (each re-homed onto its own backing by
  // LoadFrom, so replicas share no storage).
  std::vector<std::unique_ptr<SpatialKeywordIndex>> loads;
  for (uint64_t r = 0; r < replicas; ++r) {
    auto res = LoadIndex(prefix);
    if (!res.ok()) return Fail(res.status().ToString());
    loads.push_back(res.MoveValue());
  }
  ReplicaOps ops = MakeI3ReplicaOps([](uint32_t) {
    auto opt = BuildLoadOptions();
    return opt.ok() ? opt.ValueOrDie() : I3Options{};
  });
  ReplicaSetOptions ropt;
  ropt.maintenance_interval_ms = static_cast<uint32_t>(scrub_interval_ms);
  ReplicaSet index(std::move(loads), std::move(ops), ropt);
  std::printf("loaded %s.i3: %llu documents\n", prefix.c_str(),
              static_cast<unsigned long long>(index.DocumentCount()));
  std::printf("replication: %llu replica(s), scrub interval %llu ms\n",
              static_cast<unsigned long long>(replicas),
              static_cast<unsigned long long>(scrub_interval_ms));

  net::Server server(&index, sopts);
  auto st = server.Start();
  if (!st.ok()) return Fail(st.ToString());
  std::printf("serving on port %u\n", server.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGUSR1, HandleDumpSignal);
  while (g_stop_serving == 0) {
    DeadlineTimer::SleepFor(/*us=*/100000);
    if (g_dump_metrics != 0) {
      // Signal-requested snapshot (the handler only sets a flag; the
      // formatting and I/O happen here, outside the handler).
      g_dump_metrics = 0;
      std::printf(
          "%s\n",
          obs::ToJson(obs::MetricsRegistry::Global().Snapshot()).c_str());
      std::fflush(stdout);
    }
  }
  std::printf("shutting down: %llu ok, %llu shed, %llu error\n",
              static_cast<unsigned long long>(server.requests_ok()),
              static_cast<unsigned long long>(server.requests_shed()),
              static_cast<unsigned long long>(server.requests_error()));
  server.Stop();
  // Final snapshot after Stop(): includes the last SLO window refresh.
  std::printf(
      "%s\n",
      obs::ToJson(obs::MetricsRegistry::Global().Snapshot()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the global observability flags before command dispatch.
  bool dump_metrics = false;
  bool dump_traces = false;
  std::string metrics_path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      dump_metrics = true;
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      dump_metrics = true;
      metrics_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--trace-sample-rate=", 20) == 0) {
      obs::Tracer::Global().SetSampleRate(std::atof(argv[i] + 20));
      dump_traces = true;
    } else if (std::strncmp(argv[i], "--fault-profile=", 16) == 0) {
      g_opts.fault_profile = argv[i] + 16;
    } else if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0) {
      g_opts.deadline_ms = std::strtoull(argv[i] + 14, nullptr, 10);
    } else if (std::strncmp(argv[i], "--pool-pages=", 13) == 0) {
      g_opts.pool_pages = std::atoll(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--cell-cache-mb=", 16) == 0) {
      g_opts.cell_cache_mb = std::atoll(argv[i] + 16);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  if (argc < 2) {
    std::printf(
        "usage: %s build|stats|query|range|serve ... (see the file "
        "header)\n",
        argv[0]);
    return 1;
  }
  int rc;
  if (std::strcmp(argv[1], "build") == 0) {
    rc = CmdBuild(argc, argv);
  } else if (std::strcmp(argv[1], "stats") == 0) {
    rc = CmdStats(argc, argv);
  } else if (std::strcmp(argv[1], "query") == 0) {
    rc = CmdQuery(argc, argv);
  } else if (std::strcmp(argv[1], "range") == 0) {
    rc = CmdRange(argc, argv);
  } else if (std::strcmp(argv[1], "serve") == 0) {
    rc = CmdServe(argc, argv);
  } else {
    return Fail(std::string("unknown command: ") + argv[1]);
  }

  if (dump_metrics) {
    const std::string text =
        obs::ToPrometheusText(obs::MetricsRegistry::Global().Snapshot());
    if (metrics_path.empty()) {
      std::printf("\n--- metrics ---\n%s", text.c_str());
    } else {
      std::ofstream out(metrics_path);
      if (out) {
        out << text;
      } else {
        std::fprintf(stderr, "cannot write metrics to %s\n",
                     metrics_path.c_str());
      }
    }
  }
  if (dump_traces) {
    const auto traces = obs::Tracer::Global().Recent();
    if (!traces.empty()) {
      std::printf("\n--- traces ---\n%s\n",
                  obs::TracesToJson(traces).c_str());
    }
  }
  return rc;
}
