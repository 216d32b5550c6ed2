// The serving wrapper over one index.
//
// Serving (net::Server, `spatialkw_cli serve`, bench_serving, e2ebench)
// needs three things the index interface does not give: a reader-writer
// lock, so any number of threads may Search while writers take turns; a
// write log (model/write_log.h) whose generation names each write and
// which the result cache replays to keep answers no write has changed;
// and ReplicaSet failover underneath when the index is replicated. This
// class is those three things over exactly one index, and nothing else:
// a search calls the wrapped index and returns its result, and an error
// from it (every replica down, for a ReplicaSet) is the whole query's
// error. The paper scales I3 inside one index, by splitting each
// keyword's postings into quadtree keyword cells (Section 4), so the
// wrapper partitions nothing.
//
// Locking: one writer-preferring RwLock (common/rw_lock.h; writers
// exclusive, searches and stats shared). No path takes its shared side
// twice: the wrapped index never calls back into the wrapper. Each write
// is logged under the exclusive lock, after it is applied.
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

#include <memory>
#include <string>
#include <vector>

#include "common/rw_lock.h"
#include "model/index.h"
#include "model/replica_set.h"
#include "model/write_log.h"

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

  /// \brief Searches the index under the shared lock, reporting to
  /// q.control.stats (a ReplicaSet adds the replica that answered). An
  /// already-expired deadline fails before the index is called.
  Result<std::vector<ScoredDoc>> Search(const Query& q,
                                        double alpha) override;

  Rect space() const override { return index_->space(); }
  uint64_t DocumentCount() const override;
  IndexSizeInfo SizeInfo() const override;

  IoStats io_stats() const override;
  void ResetIoStats() override;
  void ClearCache() override;

  /// \brief The log of every write: its generation() names the latest
  /// (Insert and Delete produce one, Update two -- its delete, then its
  /// insert -- and a failed write or ClearCache one that means "anything
  /// may have changed"). Result caches (net/result_cache.h) tag entries
  /// with the generation read before their search began and replay the
  /// log against an entry that is behind.
  const WriteLog& write_log() const { return write_log_; }

  /// The wrapped index (tests/diagnostics); synchronization is the
  /// caller's problem for anything but stats reads.
  SpatialKeywordIndex* shard() { return index_.get(); }

  /// The wrapped index as a ReplicaSet, or nullptr when unreplicated.
  ReplicaSet* replica_set() { return index_->AsReplicaSet(); }

 private:
  std::unique_ptr<SpatialKeywordIndex> index_;
  /// Writers exclusive, searches/stats shared.
  mutable RwLock mutex_;
  /// Written under mutex_ held exclusively, after each write is applied.
  WriteLog write_log_;
  /// Trace stage per serving replica: "search" when the primary (or an
  /// unreplicated index) answered, "search.rR" after a failover to R.
  std::vector<std::string> stage_names_;
};

}  // namespace i3

#endif  // I3_MODEL_SHARDED_INDEX_H_
