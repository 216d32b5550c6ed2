#include "model/sharded_index.h"

#include <algorithm>
#include <utility>

#include "common/deadline.h"
#include "model/topk.h"

namespace i3 {

namespace {

/// SplitMix64-style mixer: DocIds are often sequential, so shard assignment
/// must not be `id % N` (that would put every N-th insert on the same shard
/// under strided writers and skew range-correlated workloads).
inline uint64_t MixDocId(DocId doc) {
  uint64_t z = static_cast<uint64_t>(doc) + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void RecordFailure(FanOutStats* out, size_t shard, const Status& st) {
  if (out->failed_shards == 0) out->first_error = st;
  ++out->failed_shards;
  if (shard < FanOutStats::kMaxTrackedShards) {
    out->failed_shard_mask |= uint64_t{1} << shard;
  }
}

void RecordServed(FanOutStats* out, size_t shard,
                  const ReplicaSearchReport& report) {
  if (report.failed_over) ++out->failovers;
  if (shard < FanOutStats::kMaxTrackedShards) {
    out->served_replica[shard] = report.served_replica;
  }
}

}  // namespace

Result<std::unique_ptr<ShardedIndex>> ShardedIndex::Create(
    const ShardFactory& factory, ShardedIndexOptions options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  std::vector<std::unique_ptr<SpatialKeywordIndex>> shards;
  shards.reserve(options.num_shards);
  for (uint32_t i = 0; i < options.num_shards; ++i) {
    auto shard = factory(i);
    if (shard == nullptr) {
      return Status::InvalidArgument("shard factory returned null for shard " +
                                     std::to_string(i));
    }
    shards.push_back(std::move(shard));
  }
  return std::make_unique<ShardedIndex>(std::move(shards));
}

ShardedIndex::ShardedIndex(
    std::vector<std::unique_ptr<SpatialKeywordIndex>> shards) {
  shards_.reserve(shards.size());
  for (auto& index : shards) {
    auto s = std::make_unique<Shard>();
    s->index = std::move(index);
    s->replica_set = s->index->AsReplicaSet();
    shards_.push_back(std::move(s));
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  search_latency_us_[0] =
      reg.GetHistogram("i3_query_latency_us", "End-to-end Search latency.",
                       {{"index", "sharded"}, {"semantics", "and"}});
  search_latency_us_[1] =
      reg.GetHistogram("i3_query_latency_us", "End-to-end Search latency.",
                       {{"index", "sharded"}, {"semantics", "or"}});
  degraded_metric_ = reg.GetCounter(
      "i3_degraded_queries_total",
      "Queries answered with a partial top-k after shard failures.");
  shard_stage_names_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    // One stage name per (shard, serving replica): the primary keeps the
    // bare "shardN" so unreplicated traces look unchanged, and a failover
    // renames the stage to "shardN.rR" -- /tracez then shows which
    // replica answered without a separate annotation.
    const uint32_t replicas = shards_[i]->replica_set != nullptr
                                  ? shards_[i]->replica_set
                                        ->replication_factor()
                                  : 1;
    std::vector<std::string> names;
    names.reserve(replicas);
    names.push_back("shard" + std::to_string(i));
    for (uint32_t r = 1; r < replicas; ++r) {
      names.push_back("shard" + std::to_string(i) + ".r" +
                      std::to_string(r));
    }
    shard_stage_names_.push_back(std::move(names));
    shards_[i]->latency_us = reg.GetHistogram(
        "i3_shard_search_latency_us", "Per-shard local top-k latency.",
        {{"shard", std::to_string(i)}});
  }
}

std::string ShardedIndex::Name() const {
  return ComposeIndexName(shards_[0]->index->Name(),
                          "sharded x" + std::to_string(shards_.size()));
}

uint32_t ShardedIndex::ShardOf(DocId doc) const {
  return static_cast<uint32_t>(MixDocId(doc) % shards_.size());
}

Status ShardedIndex::Insert(const SpatialDocument& doc) {
  Shard& s = *shards_[ShardOf(doc.id)];
  std::unique_lock lock(s.mutex);
  const Status st = s.index->Insert(doc);
  lock.unlock();
  // Bumped *after* the mutation: a result cached under a generation
  // captured before its search began is then stale the moment any write
  // that could have raced that search completes. (Bumping before the
  // write would let a search started in between carry the new generation
  // while reading pre-mutation pages.) Failed writes bump too -- they may
  // have touched pages before erroring.
  generation_.fetch_add(1, std::memory_order_release);
  return st;
}

Status ShardedIndex::Delete(const SpatialDocument& doc) {
  Shard& s = *shards_[ShardOf(doc.id)];
  std::unique_lock lock(s.mutex);
  const Status st = s.index->Delete(doc);
  lock.unlock();
  generation_.fetch_add(1, std::memory_order_release);  // see Insert
  return st;
}

Status ShardedIndex::Update(const SpatialDocument& old_doc,
                            const SpatialDocument& new_doc) {
  // Every return path below bumps the generation (see Insert).
  struct BumpOnExit {
    std::atomic<uint64_t>* gen;
    ~BumpOnExit() { gen->fetch_add(1, std::memory_order_release); }
  } bump{&generation_};
  const uint32_t from = ShardOf(old_doc.id);
  const uint32_t to = ShardOf(new_doc.id);
  if (from == to) {
    Shard& s = *shards_[from];
    std::unique_lock lock(s.mutex);
    I3_RETURN_NOT_OK(s.index->Delete(old_doc));
    return s.index->Insert(new_doc);
  }
  // Cross-shard id change: lock both shards in index order so concurrent
  // updates crossing the opposite way cannot deadlock. Readers of *other*
  // shards proceed; a reader fanning across both shards between the two
  // lock acquisitions could observe neither version -- the same
  // delete-then-insert window the single-index Update closes. Callers that
  // need cross-shard update atomicity must quiesce searches.
  Shard& first = *shards_[std::min(from, to)];
  Shard& second = *shards_[std::max(from, to)];
  std::unique_lock lock_first(first.mutex);
  std::unique_lock lock_second(second.mutex);
  I3_RETURN_NOT_OK(shards_[from]->index->Delete(old_doc));
  return shards_[to]->index->Insert(new_doc);
}

Result<std::vector<ScoredDoc>> ShardedIndex::SearchShard(
    const Shard& s, const Query& q, double alpha,
    ReplicaSearchReport* report) const {
  *report = {};
  std::shared_lock lock(s.mutex);
  const uint64_t start_ns = obs::NowNanos();
  // A replicated shard handles its own retry: a failed (or deadline-blown)
  // primary read is re-issued to a healthy follower before this fan-out
  // ever sees an error, so degradation only surfaces when every replica of
  // the shard is down.
  auto res = s.replica_set != nullptr
                 ? s.replica_set->SearchFailover(q, alpha, report)
                 : s.index->Search(q, alpha);
  s.latency_us->Record((obs::NowNanos() - start_ns) / 1000);
  return res;
}

std::vector<ScoredDoc> ShardedIndex::MergeTopK(
    const std::vector<std::vector<ScoredDoc>>& per_shard, uint32_t k) {
  // Each document lives in exactly one shard, so offering every local
  // result reproduces the single-index total order (score desc, DocId asc)
  // regardless of shard visit order.
  TopKHeap heap(k);
  for (const auto& results : per_shard) {
    for (const ScoredDoc& r : results) heap.Offer(r.doc, r.score, r.location);
  }
  return heap.Take();
}

Result<std::vector<ScoredDoc>> ShardedIndex::Search(const Query& q,
                                                    double alpha) {
  const uint64_t start_ns = obs::NowNanos();
  QueryStats own_stats;
  QueryStats* stats =
      q.control.stats != nullptr ? q.control.stats : &own_stats;
  // A caller-supplied span sink wins over sampling (see I3Index::Search).
  obs::QueryTrace* trace = q.control.trace;
  obs::QueryTrace sampled;
  const bool owns_trace =
      trace == nullptr && !q.control.nested &&
      obs::Tracer::Global().StartTrace("Sharded.Search", &sampled);
  if (owns_trace) trace = &sampled;
  // The shards report into this request's stats and trace and never
  // sample on their own.
  Query shard_q = q;
  shard_q.control.trace = trace;
  shard_q.control.stats = stats;
  shard_q.control.nested = true;

  FanOutStats& out = stats->fanout;
  out.shards = static_cast<uint32_t>(shards_.size());
  const DeadlineTimer deadline =
      DeadlineTimer::AtSteadyNanos(q.control.deadline_ns);
  std::vector<std::vector<ScoredDoc>> per_shard(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    // A sweep past the deadline must not pay for the remaining shards:
    // mark them overrun and let the merge degrade (the shards already
    // swept still count).
    if (deadline.Expired()) {
      RecordFailure(&out, i,
                    Status::DeadlineExceeded("query deadline exceeded"));
      continue;
    }
    const uint64_t t0 = trace != nullptr ? obs::NowNanos() : 0;
    ReplicaSearchReport report;
    auto res = SearchShard(*shards_[i], shard_q, alpha, &report);
    if (trace != nullptr) {
      trace->AddStage(StageName(i, report), obs::NowNanos() - t0);
    }
    // Failure isolation: a failing shard (storage fault, deadline
    // overrun) removes only its own documents from the merge.
    if (!res.ok()) {
      RecordFailure(&out, i, res.status());
      continue;
    }
    RecordServed(&out, i, report);
    per_shard[i] = res.MoveValue();
  }
  Result<std::vector<ScoredDoc>> result =
      out.failed_shards == shards_.size()
          ? Result<std::vector<ScoredDoc>>(out.first_error)
          : Result<std::vector<ScoredDoc>>(MergeTopK(per_shard, q.k));
  out.degraded = result.ok() && out.failed_shards > 0;
  search_latency_us_[q.semantics == Semantics::kAnd ? 0 : 1]->Record(
      (obs::NowNanos() - start_ns) / 1000);
  if (out.degraded) {
    degraded_metric_->Increment(1);
    degraded_queries_.fetch_add(1, std::memory_order_relaxed);
  }
  if (owns_trace) {
    stats->AnnotateTrace(trace);
    if (result.ok()) trace->Annotate("results", result.ValueOrDie().size());
    obs::Tracer::Global().Finish(std::move(sampled));
  }
  return result;
}

std::vector<ReplicaSetStatus> ShardedIndex::ShardReplicaStatuses() const {
  std::vector<ReplicaSetStatus> out;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->replica_set == nullptr) continue;
    ReplicaSetStatus st = shards_[i]->replica_set->GetStatus();
    st.shard = static_cast<uint32_t>(i);
    out.push_back(std::move(st));
  }
  return out;
}

uint64_t ShardedIndex::DocumentCount() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    std::shared_lock lock(s->mutex);
    total += s->index->DocumentCount();
  }
  return total;
}

IndexSizeInfo ShardedIndex::SizeInfo() const {
  IndexSizeInfo info;
  for (const auto& s : shards_) {
    std::shared_lock lock(s->mutex);
    info.MergeFrom(s->index->SizeInfo());
  }
  return info;
}

IoStats ShardedIndex::io_stats() const {
  // Merged-on-read snapshot (see the header's IoStats aggregation rule).
  IoStats merged;
  for (const auto& s : shards_) {
    std::shared_lock lock(s->mutex);
    merged.MergeFrom(s->index->io_stats());
  }
  return merged;
}

void ShardedIndex::ResetIoStats() {
  for (auto& s : shards_) {
    std::unique_lock lock(s->mutex);
    s->index->ResetIoStats();
  }
}

void ShardedIndex::ClearCache() {
  for (auto& s : shards_) {
    std::unique_lock lock(s->mutex);
    s->index->ClearCache();
  }
  // ClearCache is a request for cold behavior: bump the generation so
  // result caches keyed on it (net/result_cache.h) stop serving answers
  // computed before the clear as well.
  generation_.fetch_add(1, std::memory_order_release);
}

}  // namespace i3
