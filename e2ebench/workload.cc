#include "workload.h"

#include <iterator>

namespace i3 {
namespace e2e {

namespace {

/// Every request: FREQ qn=3, k=10, alpha=0.5; AND and OR alternate.
constexpr uint32_t kQueryTerms = 3;
constexpr uint32_t kTopK = 10;
constexpr double kAlpha = 0.5;
/// Queries drawn per chunk of a fresh stream.
constexpr uint32_t kChunk = 512;
/// Longest timed phase the corpus pre-generates writer documents for.
constexpr uint32_t kMaxWriteSeconds = 60;
/// The corpus is the same for every --seed. Generated corpora differ in
/// where their population clusters lie, and with them in the work per
/// query and the bytes per document, by more than the regression bounds.
constexpr uint64_t kCorpusSeed = 1;

/// SplitMix64 finalizer: derives independent stream seeds from one seed.
uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t h = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  h = (h ^ h >> 30) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ h >> 27) * 0x94d049bb133111ebull;
  return h ^ h >> 31;
}

net::Request ToRequest(const Query& q) {
  net::Request req;
  req.k = q.k;
  req.semantics = q.semantics;
  req.x = q.location.x;
  req.y = q.location.y;
  req.alpha = kAlpha;
  req.terms = q.terms;
  return req;
}

}  // namespace

std::unique_ptr<WorkloadSpec> FindWorkload(const std::string& name,
                                           bool quick) {
  auto spec = std::make_unique<WorkloadSpec>();
  spec->name = name;
  // One corpus size for all four, so workloads differ only in the layer
  // they stress. Building dominates set-up (~0.25 ms per document), and
  // three set-ups per run must fit the run budget.
  spec->docs = 10000;
  // Serve defaults (I3Options): a 512-page pool and a 16MB cell cache,
  // several times the ~450 data pages of a 10K-doc index.
  spec->pool_pages = 512;
  spec->cell_cache_bytes = 16u << 20;
  spec->warmup_per_conn = 1000;
  spec->ledger_requests = 50;
  spec->validate_requests = 200;
  spec->setup_reps = 3;
  if (name == "cold_search") {
    // The caches hold a fraction of the working set; every pool miss
    // sleeps like a device read, and the ledger starts each pass cold.
    spec->pool_pages = 32;
    spec->cell_cache_bytes = 512u << 10;
    spec->miss_latency_us = 50;
    spec->warmup_per_conn = 300;
    spec->ledger_requests = 20;
  } else if (name == "repeat_hits") {
    spec->repeat_pool = 20000;
  } else if (name == "update_stream") {
    spec->repeat_pool = 20000;
    spec->write_pairs_per_s = 100;
  } else if (name != "warm_search") {
    return nullptr;
  }
  if (quick) {
    spec->docs = 2000;
    if (spec->miss_latency_us != 0) {
      spec->pool_pages = 8;
      spec->cell_cache_bytes = 128u << 10;
    }
    spec->repeat_pool = spec->repeat_pool != 0 ? 2000 : 0;
    spec->warmup_per_conn = 50;
    spec->ledger_requests = 10;
    spec->validate_requests = 50;
    spec->setup_reps = 1;
  }
  return spec;
}

I3Options WorkloadOptions(const WorkloadSpec& spec) {
  I3Options o;
  o.buffer_pool.capacity_pages = spec.pool_pages;
  o.buffer_pool.simulated_miss_latency_us = spec.miss_latency_us;
  o.cell_cache_bytes = spec.cell_cache_bytes;
  return o;
}

Corpus MakeCorpus(const WorkloadSpec& spec) {
  // One generator run covers the corpus and the writer's new tweets, so
  // the new tweets share the corpus's vocabulary and population clusters.
  const uint32_t extra = spec.write_pairs_per_s * kMaxWriteSeconds;
  GeneratorSpec gen = TwitterSpec(spec.docs + extra, kCorpusSeed);
  Dataset all = Generate(gen);
  Corpus c;
  c.inserts.assign(std::make_move_iterator(all.docs.begin() + spec.docs),
                   std::make_move_iterator(all.docs.end()));
  all.docs.resize(spec.docs);
  c.initial = std::move(all);
  c.initial.name = spec.name;
  return c;
}

std::vector<net::Request> MakeRepeatPool(const WorkloadSpec& spec,
                                         const QueryGenerator& gen,
                                         uint64_t seed) {
  std::vector<net::Request> pool;
  if (spec.repeat_pool == 0) return pool;
  const std::vector<Query> qs = gen.Freq(kQueryTerms, spec.repeat_pool, kTopK,
                                         Semantics::kAnd, MixSeed(seed, 2));
  pool.reserve(qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    net::Request r = ToRequest(qs[i]);
    r.semantics = i % 2 == 0 ? Semantics::kAnd : Semantics::kOr;
    pool.push_back(std::move(r));
  }
  return pool;
}

uint64_t StreamSeed(uint64_t seed, uint32_t phase, uint32_t conn) {
  return MixSeed(MixSeed(seed, 100 + phase), conn);
}

RequestStream::RequestStream(const QueryGenerator* gen,
                             const std::vector<net::Request>* pool,
                             uint64_t seed)
    : gen_(gen), pool_(pool), seed_(seed), rng_(seed) {
  if (pool_ != nullptr && !pool_->empty()) {
    zipf_ = std::make_unique<ZipfSampler>(pool_->size(), 1.0);
  }
}

net::Request RequestStream::Next() {
  net::Request req;
  if (zipf_ != nullptr) {
    req = (*pool_)[zipf_->Sample(&rng_)];
  } else {
    if (cursor_ == chunk_.size()) {
      chunk_ = gen_->Freq(kQueryTerms, kChunk, kTopK, Semantics::kAnd,
                          MixSeed(seed_, chunks_++));
      cursor_ = 0;
    }
    req = ToRequest(chunk_[cursor_++]);
    req.semantics = count_ % 2 == 0 ? Semantics::kAnd : Semantics::kOr;
  }
  req.request_id = ++count_;
  return req;
}

}  // namespace e2e
}  // namespace i3
