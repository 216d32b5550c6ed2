// Intra-process shard replication with automatic failover, snapshot-based
// online recovery, and background scrub/heal (DESIGN.md §15).
//
// A ReplicaSet keeps R byte-identical copies of one index behind the
// SpatialKeywordIndex interface, so the serving wrapper (ShardedIndex)
// can treat a replicated index exactly like a plain one:
//
//   - Writes are primary-first: every mutation is assigned a sequence
//     number under the set's op mutex, appended to a bounded replication
//     log, and applied to each healthy replica in replica order (replica
//     0 = primary). A replica whose *storage* fails mid-apply has
//     diverged and is marked failed on the spot; logical failures
//     (duplicate insert, missing delete) are deterministic across
//     replicas and fail uniformly without demoting anyone.
//   - Reads fail over transparently: Search tries the lowest healthy
//     replica first and re-issues the query to the next healthy replica
//     on any error, so a killed/corrupted/deadline-blown primary read
//     still returns the complete answer as long as one replica survives.
//     Because replicas apply the same ops in the same order from the same
//     initial state, every replica's answer -- and every replica's page
//     bytes -- is identical, which is what makes failover invisible
//     (byte-identical results) and page-level heal-by-copy sound.
//   - Recovery is snapshot + catch-up: a failed replica is rebuilt from a
//     consistent snapshot of a healthy peer (written at a captured
//     watermark under the peer's read lock, CRC-stamped by
//     storage/snapshot.h), re-homed onto the replica's own storage stack,
//     then caught up by replaying the replication log past the watermark
//     -- all while the other replicas keep serving. A snapshot whose
//     source returns corrupt pages fails cleanly (the source is demoted)
//     and recovery retries from another replica.
//   - A scrubber walks data pages at a paced rate (storage/scrub.h),
//     forcing checksum-verifying device reads, and heals a corrupt page
//     by copying its bytes from a healthy peer -- damage is repaired
//     before a query ever trips over it.
//
// Locking: per-replica shared_mutex (searches shared; writes, heals, and
// index swaps exclusive) plus one op mutex serializing write ordering,
// the log, kills and recovery's commit (a search that finds no healthy
// replica rescans under it). Lock order is always op mutex -> replica
// mutex; background
// threads (scrub, auto-recovery) take replica locks only, so they
// interleave with queries and writers without deadlock. The set is fully
// internally synchronized -- searches run concurrently, and the
// scrub/recovery machinery runs correctly even while the serving wrapper
// (ShardedIndex) holds its own lock.
//
// The set is index-agnostic: everything type-specific (serialize to a
// snapshot, re-home a snapshot onto a replica's storage stack, raw page
// verify/read/write for scrub) is injected through ReplicaOps;
// i3/replica_ops.h provides the I3 wiring.

#ifndef I3_MODEL_REPLICA_SET_H_
#define I3_MODEL_REPLICA_SET_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "model/index.h"
#include "obs/metrics.h"
#include "storage/scrub.h"

namespace i3 {

class ReplicaSet;

/// \brief Lifecycle state of one replica.
enum class ReplicaState : int {
  kHealthy = 0,    ///< serving reads, applying writes
  kFailed = 1,     ///< diverged or killed; excluded until recovered
  kRecovering = 2  ///< snapshot install / catch-up in progress
};

const char* ReplicaStateName(ReplicaState s);

/// \brief Index-type-specific operations the set needs for recovery and
/// scrubbing. All hooks may assume the index was produced by this set's
/// replica factory (i3/replica_ops.h builds the I3 wiring). `save`/`load`
/// are required for snapshot recovery; the page hooks are required for
/// scrub/heal; `quarantined_pages` feeds health reporting. A
/// default-constructed (empty) op makes the dependent feature return
/// NotSupported instead of crashing.
struct ReplicaOps {
  /// Serializes `index` to `path` (reads go through the index's own
  /// checksum layer, so a corrupt source fails here, cleanly).
  std::function<Status(SpatialKeywordIndex&, const std::string& path)> save;
  /// Restores a snapshot at `path` re-homed onto replica `replica`'s own
  /// storage stack (page file factory, buffer pool, checksum layer).
  std::function<Result<std::unique_ptr<SpatialKeywordIndex>>(
      const std::string& path, uint32_t replica)>
      load;
  /// Number of scrubbable data pages.
  std::function<uint64_t(SpatialKeywordIndex&)> page_count;
  /// Checksum-verifying device read of one page (bypassing caches);
  /// Corruption when the stored bytes are damaged.
  std::function<Status(SpatialKeywordIndex&, uint64_t page)> verify_page;
  /// Verified logical bytes of one page (the heal source).
  std::function<Result<std::vector<uint8_t>>(SpatialKeywordIndex&,
                                             uint64_t page)>
      read_page;
  /// Writes logical page bytes through (recomputing the stored checksum,
  /// invalidating derived caches, clearing quarantine) -- the heal sink.
  std::function<Status(SpatialKeywordIndex&, uint64_t page,
                       const std::vector<uint8_t>&)>
      write_page;
  /// Currently quarantined pages (health reporting).
  std::function<uint64_t(const SpatialKeywordIndex&)> quarantined_pages;
};

/// \brief Options for ReplicaSet.
struct ReplicaSetOptions {
  /// Replicas per logical shard (>= 1; 1 disables redundancy but keeps
  /// the scrub/health machinery).
  uint32_t replication_factor = 2;
  /// Replication-log bound: ops a recovering replica may lag before
  /// catch-up falls back to a fresh snapshot.
  size_t max_log_ops = 4096;
  /// Pages each replica verifies per ScrubTick.
  uint32_t scrub_pages_per_tick = 8;
  /// Background maintenance cadence: every `maintenance_interval_ms` the
  /// set retries recovery of failed replicas and runs one ScrubTick. 0
  /// disables the thread -- callers drive ScrubTick / RecoverReplica
  /// explicitly (the deterministic mode tests use).
  uint32_t maintenance_interval_ms = 0;
};

/// \brief Health/progress snapshot of one replica.
struct ReplicaStatus {
  ReplicaState state = ReplicaState::kHealthy;
  /// Last op sequence applied.
  uint64_t watermark = 0;
  /// Ops behind the log head.
  uint64_t lag = 0;
  uint64_t quarantined_pages = 0;
  uint64_t read_failures = 0;
  uint64_t write_failures = 0;
};

/// \brief Health/progress snapshot of the whole set (rendered by /healthz).
struct ReplicaSetStatus {
  uint32_t shard = 0;
  bool replicated = false;
  /// Ops accepted by the set (log head sequence).
  uint64_t log_head = 0;
  uint64_t scrub_pages_verified = 0;
  uint64_t scrub_corrupt_found = 0;
  uint64_t scrub_pages_healed = 0;
  uint64_t failovers = 0;
  uint64_t recoveries = 0;
  std::vector<ReplicaStatus> replicas;
};

/// \brief R byte-identical replicas of one index behind one
/// SpatialKeywordIndex. See the file comment for the protocol.
class ReplicaSet final : public SpatialKeywordIndex {
 public:
  /// Builds replica `r` (0-based). Replicas must be configured
  /// structurally identically (same space, page size, signature bits,
  /// compression) -- only the storage backing may differ -- or the
  /// byte-identity invariant breaks.
  using ReplicaFactory =
      std::function<std::unique_ptr<SpatialKeywordIndex>(uint32_t replica)>;

  static Result<std::unique_ptr<ReplicaSet>> Create(
      const ReplicaFactory& factory, ReplicaOps ops,
      ReplicaSetOptions options = {});

  ~ReplicaSet() override;

  std::string Name() const override;

  Status Insert(const SpatialDocument& doc) override;
  Status Delete(const SpatialDocument& doc) override;
  Status Update(const SpatialDocument& old_doc,
                const SpatialDocument& new_doc) override;

  /// \brief Tries healthy replicas in ascending order, re-issuing on any
  /// per-replica failure, and writes which replica served and whether that
  /// was a failover into q.control.stats (when set). All replicas
  /// exhausted => the first failure's status.
  Result<std::vector<ScoredDoc>> Search(const Query& q,
                                        double alpha) override;

  /// Replica 0's data space, read at construction (every replica is
  /// configured with the same one, and recovery never changes it).
  Rect space() const override { return space_; }
  uint64_t DocumentCount() const override;
  IndexSizeInfo SizeInfo() const override;
  IoStats io_stats() const override;
  void ResetIoStats() override;
  void ClearCache() override;

  ReplicaSet* AsReplicaSet() override { return this; }

  uint32_t replication_factor() const {
    return static_cast<uint32_t>(replicas_.size());
  }

  ReplicaState replica_state(uint32_t r) const {
    return static_cast<ReplicaState>(
        replicas_[r]->state.load(std::memory_order_acquire));
  }

  /// \brief Marks replica `r` failed (chaos drills, admin kill). Reads
  /// and writes route around it immediately; its storage is untouched
  /// until recovery replaces the index. Failing the last healthy replica
  /// is refused (the set would have nothing left to serve from).
  Status KillReplica(uint32_t r);

  /// \brief Rebuilds replica `r` online: consistent snapshot from a
  /// healthy peer + catch-up replay of the replication log, then marks it
  /// healthy. No-op for an already-healthy replica. Serving continues
  /// throughout on the other replicas. NotSupported without save/load
  /// ops; ResourceExhausted when no healthy source exists or every
  /// snapshot attempt failed.
  Status RecoverReplica(uint32_t r);

  /// \brief RecoverReplica over every failed replica; first error wins
  /// (remaining replicas are still attempted).
  Status RecoverAll();

  /// \brief One scrub round: each healthy replica verifies the next
  /// `scrub_pages_per_tick` data pages with checksum-verifying device
  /// reads; a corrupt page is healed in place by copying its bytes from
  /// a healthy peer. Returns the first heal failure (detection without a
  /// usable peer keeps the page quarantine-guarded and is not an error).
  /// NotSupported without the page-level ops.
  Status ScrubTick();

  ReplicaSetStatus GetStatus() const;

  /// Direct replica access (tests/diagnostics); synchronization is the
  /// caller's problem for anything but stats reads.
  SpatialKeywordIndex* replica(uint32_t r) {
    return replicas_[r]->index.get();
  }

 private:
  struct Replica {
    std::unique_ptr<SpatialKeywordIndex> index;
    /// Searches shared; writes, heals, and index swaps exclusive.
    mutable std::shared_mutex mutex;
    std::atomic<int> state{static_cast<int>(ReplicaState::kHealthy)};
    /// Last op sequence applied (written under mutex held exclusively,
    /// with the op, so a snapshot taken under the shared side pairs an
    /// image with its own watermark; read lock-free by status reporting).
    std::atomic<uint64_t> watermark{0};
    std::atomic<uint64_t> read_failures{0};
    std::atomic<uint64_t> write_failures{0};
    /// Scrub walk state; touched only under scrub_mutex_.
    ScrubCursor scrub_cursor{1};
  };

  /// One replicated mutation in the log.
  struct Op {
    enum class Kind : uint8_t { kInsert, kDelete, kUpdate };
    Kind kind = Kind::kInsert;
    uint64_t seq = 0;
    SpatialDocument doc;      ///< insert/delete doc; update's new doc
    SpatialDocument old_doc;  ///< update only
  };

  ReplicaSet(std::vector<std::unique_ptr<SpatialKeywordIndex>> replicas,
             ReplicaOps ops, ReplicaSetOptions options);

  /// True when `st` means the replica's storage diverged (vs a
  /// deterministic logical failure every replica shares).
  static bool IsStorageFailure(const Status& st);

  /// Applies `op` to one replica's index (caller holds the replica's
  /// exclusive lock).
  Status ApplyOp(SpatialKeywordIndex& index, const Op& op);

  /// \brief The write path: assigns a sequence under op_mutex_, logs the
  /// op, applies it to every healthy replica primary-first. Returns the
  /// outcome of the first healthy replica (the deterministic logical
  /// result); storage failures demote the affected replica and are
  /// surfaced only when *no* replica applied the op.
  Status Replicate(Op op);

  void MarkFailed(uint32_t r, const char* why);

  /// Lowest healthy replica != `exclude` (UINT32_MAX = none).
  uint32_t PickHealthySource(uint32_t exclude) const;

  /// One snapshot + install attempt for replica `r` from `source`.
  Status SnapshotInto(uint32_t r, uint32_t source);

  /// Replays logged ops past replica `r`'s watermark; flips it healthy
  /// under op_mutex_ once caught up. OutOfRange when the log was trimmed
  /// past the replica's watermark (caller retakes a snapshot).
  Status CatchUp(uint32_t r);

  /// Heals one corrupt page of replica `r` from any healthy peer.
  Status HealPage(uint32_t r, uint64_t page);

  /// Payload path for one snapshot attempt of replica `r`, unique across
  /// processes sharing the snapshot directory.
  std::string SnapshotPath(uint32_t r);

  /// Refreshes the healthy-count and per-replica lag gauges.
  void UpdateHealthGauges();

  void MaintenanceLoop();

  std::vector<std::unique_ptr<Replica>> replicas_;
  ReplicaOps ops_;
  ReplicaSetOptions options_;
  Rect space_;

  /// Serializes write ordering, the log, and recovery commit points.
  mutable std::mutex op_mutex_;
  std::deque<Op> log_;
  /// Sequence of the last accepted op. Written only under op_mutex_;
  /// atomic so gauge/status readers can load it without the mutex.
  std::atomic<uint64_t> log_head_{0};
  /// Recoveries waiting to take op_mutex_ for their catch-up commit.
  /// Writers stand aside while it is nonzero: std::mutex is not fair, and a
  /// saturating writer could otherwise re-take it until the log trims past
  /// the recovering replica's snapshot (OutOfRange on every attempt).
  std::atomic<uint32_t> catchup_waiters_{0};
  /// Snapshot file uniquifier (one temp dir may host many sets).
  std::atomic<uint64_t> snapshot_seq_{0};

  /// Serializes ScrubTick (cursors + scrub counters); independent of the
  /// query/write locks.
  mutable std::mutex scrub_mutex_;
  std::atomic<uint64_t> scrub_pages_verified_{0};
  std::atomic<uint64_t> scrub_corrupt_found_{0};
  std::atomic<uint64_t> scrub_pages_healed_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> recoveries_{0};

  /// Background maintenance thread (present iff interval > 0).
  std::thread maintenance_;
  std::mutex maintenance_mutex_;
  std::condition_variable maintenance_cv_;
  bool stopping_ = false;

  // Metric handles, cached at construction (obs/metrics.h: the registry
  // is never touched on a hot path).
  obs::Counter* failover_metric_;
  obs::Counter* replica_write_failures_metric_;
  obs::Counter* replica_recoveries_metric_;
  obs::Counter* scrub_pages_metric_;
  obs::Counter* scrub_corrupt_metric_;
  obs::Counter* scrub_healed_metric_;
  obs::Gauge* healthy_replicas_metric_;
  /// Per-replica lag gauges, indexed by replica.
  std::vector<obs::Gauge*> lag_metrics_;
};

}  // namespace i3

#endif  // I3_MODEL_REPLICA_SET_H_
