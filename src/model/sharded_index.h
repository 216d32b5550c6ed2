// Sharded execution over N inner indexes.
//
// The paper partitions by keyword so per-query work is bounded; this layer
// extends the decomposition across documents: they are hash-partitioned by
// DocId over N shards (each a full SpatialKeywordIndex covering the whole
// data space), writers lock only the target shard, and a top-k query
// visits every shard's local top-k on the calling thread and merges.
// Parallelism comes from callers -- any number of threads may Search at
// once -- so a 1-shard ShardedIndex is also the plain thread-safe wrapper
// of one index.
//
// Merge contract: because every document lives in exactly one shard and its
// score depends only on the document and the query (Section 3's ranking
// function has no cross-document terms), the global top-k is a subset of
// the union of the shards' local top-k lists. Merging through TopKHeap
// reproduces the single-index ordering exactly -- decreasing score, ties by
// increasing DocId -- so a ShardedIndex over I3 returns byte-identical
// results to an unsharded I3Index on the same corpus (asserted by
// tests/test_sharded.cc).
//
// Locking: one shared_mutex per shard (writers exclusive, searches
// shared). glibc's shared_mutex prefers readers, so a reader pool that
// re-acquires it in a tight loop can starve writers; pace readers in
// write-heavy deployments. IoStats aggregation rule: every shard keeps its
// own (atomic) counters and io_stats() sums them into a fresh snapshot, so
// concurrent shard searches never contend on a shared counter cache line
// and the aggregate is a per-counter snapshot, not a cross-shard atomic
// cut.
//
// Per-request context: Search reports through the caller's
// QueryControl::stats (model/query.h) -- the shards add their work
// counters to it and the fan-out records its outcome in its FanOutStats
// -- and hands the request's span sink to every shard. Only an outermost
// search samples the global tracer, once ("Sharded.Search"), so one
// sampled request publishes one trace holding the per-shard stages
// ("shard0", ...) and the shards' own stages.
//
// Degradation contract (fault tolerance): the fan-out isolates per-shard
// failures. When some -- but not all -- shards fail (storage error,
// exhausted retries, or a per-query deadline), Search still returns ok with
// the merge of the shards that answered, and the request's FanOutStats
// reports {degraded, failed_shards, failed_shard_mask, first_error};
// `i3_degraded_queries_total` is incremented. A degraded top-k is a
// correct top-k of the surviving shards' documents -- scores are exact, but
// documents homed on failed shards are silently absent, which is why the
// flag must accompany the result. When every shard fails, the first
// shard's (by shard order, deterministically) error is returned, matching
// the unsharded index.
//
// Replication (DESIGN.md §15): a shard built as a ReplicaSet
// (model/replica_set.h) promotes degradation to transparent retry -- a
// failed or deadline-blown primary read is re-issued to a healthy follower
// *inside* the shard sweep, before the merge, so the query completes with
// byte-identical results and `degraded` becomes the last resort (every
// replica of a shard down). FanOutStats records the replica that served
// each shard and counts failovers, and the trace stage for a failed-over
// shard is named "shardN.rR" instead of "shardN", so /tracez shows
// failover per shard.

#ifndef I3_MODEL_SHARDED_INDEX_H_
#define I3_MODEL_SHARDED_INDEX_H_

#include <atomic>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "model/index.h"
#include "model/replica_set.h"
#include "obs/trace.h"

namespace i3 {

/// \brief Options for ShardedIndex.
struct ShardedIndexOptions {
  /// Number of shards created by Create().
  uint32_t num_shards = 8;
};

/// \brief Hash-partitions documents across N inner indexes and fans
/// searches out to all of them. Safe for any number of concurrent callers.
class ShardedIndex final : public SpatialKeywordIndex {
 public:
  /// Builds shard `i` (0-based). All shards must be configured identically
  /// (same space, page size, eta, ...) or results will diverge from an
  /// unsharded index.
  using ShardFactory =
      std::function<std::unique_ptr<SpatialKeywordIndex>(uint32_t shard)>;

  /// \brief Creates options.num_shards shards via `factory`.
  static Result<std::unique_ptr<ShardedIndex>> Create(
      const ShardFactory& factory, ShardedIndexOptions options = {});

  /// \brief Takes ownership of pre-built shards (deserialization path and
  /// tests). `shards` must be non-empty.
  explicit ShardedIndex(
      std::vector<std::unique_ptr<SpatialKeywordIndex>> shards);

  std::string Name() const override;

  Status Insert(const SpatialDocument& doc) override;
  Status Delete(const SpatialDocument& doc) override;
  /// Routes by id: same shard updates under one exclusive section; an id
  /// change locks both shards in index order (no deadlock with concurrent
  /// updates crossing the other way).
  Status Update(const SpatialDocument& old_doc,
                const SpatialDocument& new_doc) override;

  /// \brief Visits every shard on the calling thread and merges under the
  /// degradation contract (file comment), reporting to q.control.stats.
  Result<std::vector<ScoredDoc>> Search(const Query& q,
                                        double alpha) override;

  /// Queries answered with a partial (degraded) top-k since construction.
  uint64_t degraded_queries() const {
    return degraded_queries_.load(std::memory_order_relaxed);
  }

  uint64_t DocumentCount() const override;
  IndexSizeInfo SizeInfo() const override;

  IoStats io_stats() const override;
  void ResetIoStats() override;
  void ClearCache() override;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// \brief Monotonic index-generation counter: bumped by every Insert,
  /// Delete, and Update (attempted mutations count -- a failed write may
  /// still have changed pages, so invalidation stays conservative).
  /// Result caches (net/result_cache.h) tag entries with the generation
  /// current when their search *started* and serve them only while it
  /// still matches, so a cached response can never outlive a mutation.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Which shard holds `doc`.
  uint32_t ShardOf(DocId doc) const;

  /// Direct shard access (tests/diagnostics); synchronization is the
  /// caller's problem for anything but stats reads.
  SpatialKeywordIndex* shard(uint32_t i) { return shards_[i]->index.get(); }

  /// Shard `i`'s ReplicaSet, or nullptr for an unreplicated shard.
  ReplicaSet* replica_set(uint32_t i) { return shards_[i]->replica_set; }

  /// \brief Replica health/progress of every replicated shard, with the
  /// ReplicaSetStatus::shard field rewritten to the *outer* shard index
  /// (one ReplicaSet per shard; renders in /healthz). Empty when no shard
  /// is replicated.
  std::vector<ReplicaSetStatus> ShardReplicaStatuses() const;

 private:
  struct Shard {
    std::unique_ptr<SpatialKeywordIndex> index;
    /// `index->AsReplicaSet()`, cached at construction so the query path
    /// routes through SearchFailover without a per-query virtual probe.
    ReplicaSet* replica_set = nullptr;
    /// Writers exclusive, searches/stats shared.
    mutable std::shared_mutex mutex;
    /// `i3_shard_search_latency_us{shard=...}`, cached at construction.
    obs::Histogram* latency_us = nullptr;
  };

  /// One shard's local top-k under the shard's shared lock. A ReplicaSet
  /// shard routes through SearchFailover; `report` (never null) records
  /// which replica served (all zeros for unreplicated shards).
  Result<std::vector<ScoredDoc>> SearchShard(const Shard& s, const Query& q,
                                             double alpha,
                                             ReplicaSearchReport* report)
      const;
  /// Merges per-shard local top-k lists under the single-index contract.
  static std::vector<ScoredDoc> MergeTopK(
      const std::vector<std::vector<ScoredDoc>>& per_shard, uint32_t k);

  std::vector<std::unique_ptr<Shard>> shards_;
  /// See generation(). fetch_add with release so a reader that observes
  /// the new generation also observes the mutation's writes.
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> degraded_queries_{0};

  /// Stable fan-out trace stage names, [shard][served replica]:
  /// "shard3" when the primary answered, "shard3.r1" after a failover.
  std::vector<std::vector<std::string>> shard_stage_names_;
  /// Stage name for shard `i` served by `report`'s replica.
  const std::string& StageName(size_t i,
                               const ReplicaSearchReport& report) const {
    const auto& names = shard_stage_names_[i];
    const size_t r = report.served_replica < names.size()
                         ? report.served_replica
                         : names.size() - 1;
    return names[r];
  }
  /// Merged-query latency, cached at construction. Index 0 = AND, 1 = OR.
  obs::Histogram* search_latency_us_[2];
  /// `i3_degraded_queries_total`, cached at construction.
  obs::Counter* degraded_metric_;
};

}  // namespace i3

#endif  // I3_MODEL_SHARDED_INDEX_H_
