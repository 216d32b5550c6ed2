// The public interface every top-k spatial keyword index implements.
//
// Three concrete implementations exist: i3::I3Index (the paper's
// contribution), i3::IrTreeIndex and i3::S2IIndex (the evaluated baselines),
// plus i3::BruteForceIndex (the correctness oracle used in tests).

#ifndef I3_MODEL_INDEX_H_
#define I3_MODEL_INDEX_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "model/document.h"
#include "model/query.h"
#include "storage/io_stats.h"

namespace i3 {

class ReplicaSet;

/// \brief Storage footprint of an index, broken down by component (the rows
/// of the paper's Table 5).
struct IndexSizeInfo {
  /// (component name, bytes), e.g. {"head file", ...}, {"data file", ...}.
  std::vector<std::pair<std::string, uint64_t>> components;

  uint64_t TotalBytes() const {
    uint64_t t = 0;
    for (const auto& c : components) t += c.second;
    return t;
  }

  std::string ToString() const;
};

/// \brief Abstract top-k spatial keyword index.
///
/// Concurrency contract: one writer and any number of concurrent readers.
/// Search may run on many threads at once as long as no Insert / Delete /
/// Update / ClearCache runs beside it (ShardedIndex, the serving wrapper,
/// supplies that exclusion with one reader-writer lock). Every implementation
/// keeps per-query state on the searching thread's stack, reports
/// per-query facts only through the caller's QueryControl::stats, and
/// charges I/O to atomic counters. All fallible operations return Status;
/// Search returns the top-k documents in decreasing score.
class SpatialKeywordIndex {
 public:
  virtual ~SpatialKeywordIndex() = default;

  /// Short scheme name ("I3", "IR-tree", "S2I", "BruteForce").
  virtual std::string Name() const = 0;

  /// \brief Inserts a document. Term weights must be in (0, 1]; the
  /// document id must be new.
  virtual Status Insert(const SpatialDocument& doc) = 0;

  /// \brief Deletes a previously inserted document. The full document is
  /// passed because textual-partition indexes need its keywords and
  /// location to find every tuple.
  virtual Status Delete(const SpatialDocument& doc) = 0;

  /// \brief Updates a document: delete(old) + insert(new), per Section 4.5.
  virtual Status Update(const SpatialDocument& old_doc,
                        const SpatialDocument& new_doc) {
    I3_RETURN_NOT_OK(Delete(old_doc));
    return Insert(new_doc);
  }

  /// \brief Answers a top-k query under `alpha` spatial weighting. Results
  /// are sorted by decreasing score (ties by increasing DocId) and contain
  /// at most q.k entries (fewer when fewer documents match). Adds the
  /// query's work counters to q.control.stats when it is set.
  virtual Result<std::vector<ScoredDoc>> Search(const Query& q,
                                                double alpha) = 0;

  /// \brief The data space: the rectangle whose diagonal normalizes the
  /// spatial proximity of every score this index returns (model/scorer.h).
  virtual Rect space() const = 0;

  /// \brief Number of indexed documents.
  virtual uint64_t DocumentCount() const = 0;

  /// \brief Storage footprint by component.
  virtual IndexSizeInfo SizeInfo() const = 0;

  /// \brief Cumulative page I/O counters: a snapshot, each counter read
  /// once (safe beside concurrent searches).
  virtual IoStats io_stats() const = 0;
  virtual void ResetIoStats() = 0;

  /// \brief Drops any cached pages (cold-cache reset); default no-op for
  /// purely in-memory implementations.
  virtual void ClearCache() {}

  /// \brief Checked downcast for replication-aware wrappers: a ReplicaSet
  /// (model/replica_set.h) returns itself, everything else returns null.
  /// Lets ShardedIndex discover failover behind the common interface
  /// without RTTI on the query path.
  virtual ReplicaSet* AsReplicaSet() { return nullptr; }
};

}  // namespace i3

#endif  // I3_MODEL_INDEX_H_
