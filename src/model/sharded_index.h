// The serving wrapper over one index.
//
// Serving (net::Server, `spatialkw_cli serve`, bench_serving, e2ebench)
// needs three things the index interface does not give: a reader-writer
// lock, so any number of threads may Search while writers take turns; a
// write generation the result cache keys on; and ReplicaSet failover
// underneath when the index is replicated. This class is those three
// things over exactly one index, and nothing else: a search calls the
// wrapped index and returns its result, and an error from it (every
// replica down, for a ReplicaSet) is the whole query's error. The paper
// scales I3 inside one index, by splitting each keyword's postings into
// quadtree keyword cells (Section 4), so the wrapper partitions nothing.
//
// Locking: one shared_mutex (writers exclusive, searches shared).
// glibc's shared_mutex prefers readers, so a reader pool that re-acquires
// it in a tight loop can starve writers; pace readers in write-heavy
// deployments.
//
// Per-request context: Search hands the caller's QueryControl (model/
// query.h) to the index -- its stats get the index's work counters and
// the serving replica, its span sink the index's stages -- and, when the
// caller passed no span sink, samples the global tracer once
// ("Sharded.Search"), so one sampled request publishes one trace. The
// wrapper's own trace stage is "search", or "search.rR" when replica R
// answered after a failover, so /tracez shows the failover.
//
// The class keeps its name and its vector constructor because the
// end-to-end benchmark (e2ebench/) builds it that way.

#ifndef I3_MODEL_SHARDED_INDEX_H_
#define I3_MODEL_SHARDED_INDEX_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "model/index.h"
#include "model/replica_set.h"

namespace i3 {

/// \brief The thread-safe serving wrapper of one index. Safe for any
/// number of concurrent callers.
class ShardedIndex final : public SpatialKeywordIndex {
 public:
  /// \brief Takes ownership of the one index it serves: `shards` must
  /// hold exactly one element.
  explicit ShardedIndex(
      std::vector<std::unique_ptr<SpatialKeywordIndex>> shards);

  /// The wrapped index's name.
  std::string Name() const override;

  Status Insert(const SpatialDocument& doc) override;
  Status Delete(const SpatialDocument& doc) override;
  /// Delete + Insert under one exclusive section.
  Status Update(const SpatialDocument& old_doc,
                const SpatialDocument& new_doc) override;

  /// \brief Searches the index under the shared lock, through
  /// SearchFailover for a ReplicaSet, reporting to q.control.stats. An
  /// already-expired deadline fails before the index is called.
  Result<std::vector<ScoredDoc>> Search(const Query& q,
                                        double alpha) override;

  uint64_t DocumentCount() const override;
  IndexSizeInfo SizeInfo() const override;

  IoStats io_stats() const override;
  void ResetIoStats() override;
  void ClearCache() override;

  /// \brief Monotonic index-generation counter: bumped by every Insert,
  /// Delete, Update and ClearCache (attempted mutations count -- a failed
  /// write may still have changed pages, so invalidation stays
  /// conservative). Result caches (net/result_cache.h) tag entries with
  /// the generation current when their search *started* and serve them
  /// only while it still matches, so a cached response can never outlive
  /// a mutation.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// The wrapped index (tests/diagnostics); synchronization is the
  /// caller's problem for anything but stats reads.
  SpatialKeywordIndex* shard() { return index_.get(); }

  /// The wrapped index as a ReplicaSet, or nullptr when unreplicated.
  ReplicaSet* replica_set() { return replica_set_; }

 private:
  /// Bumps the generation *after* a write (see Insert).
  void Bump() { generation_.fetch_add(1, std::memory_order_release); }

  std::unique_ptr<SpatialKeywordIndex> index_;
  /// `index_->AsReplicaSet()`, cached at construction so the query path
  /// routes through SearchFailover without a per-query virtual probe.
  ReplicaSet* replica_set_ = nullptr;
  /// Writers exclusive, searches/stats shared.
  mutable std::shared_mutex mutex_;
  /// See generation(). fetch_add with release so a reader that observes
  /// the new generation also observes the mutation's writes.
  std::atomic<uint64_t> generation_{0};
  /// Trace stage per serving replica: "search" when the primary (or an
  /// unreplicated index) answered, "search.rR" after a failover to R.
  std::vector<std::string> stage_names_;
};

}  // namespace i3

#endif  // I3_MODEL_SHARDED_INDEX_H_
