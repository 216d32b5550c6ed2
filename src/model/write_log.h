// The serving stack's one write log: the generation counter, plus the last
// kCapacity writes, each under the generation it produced.
//
// ReplicaSet (model/replica_set.h) appends one record per write under its
// op mutex, after every healthy replica has applied the write: an insert,
// a delete, an update (with both documents) or a cache clear, and whether
// the write returned an error. The generation is the replication sequence
// number: a replica's watermark is the generation of the last write it
// applied. Two readers use the same records under different rules:
//   - Catch-up (ReplicaSet::RecoverReplica) re-applies every record after
//     a recovering replica's watermark, rejected ones included -- a
//     replica applying the same writes in the same order reaches the same
//     outcome -- and skips clears, which change no document. It stops at a
//     storage failure, whose partial effect no replay reproduces; recovery
//     then takes a fresh snapshot past it.
//   - The result cache (net/result_cache.h) replays the records after an
//     entry's tag against the entry, below.
//
// The result cache tags each entry with the generation read before its
// search began, and asks Replay whether the writes since then can have
// changed the entry's answer. A cached answer is the exact top-k of some
// index state that includes every write up to its tag (a write is applied
// under each replica's exclusive lock before its generation is published,
// and a search holds the shared lock of the replica it reads). A write
// changes an exact top-k R of query q only if
//   - it deletes a document of R, or
//   - it inserts a document of R, or one that satisfies q's textual
//     constraint and either R holds fewer than k documents or its score
//     reaches R's k-th score (a tie counts: the doc-id tie-break may put
//     it in; scores within 1e-9 count as ties, absorbing the rounding of
//     an index that sums weights in another order).
// An update is its delete and then its insert. Any other write leaves R
// the exact top-k, so R stays exact across a run of such writes, and
// replaying writes R already reflects only costs a miss. A write that
// returned an error or a clear may have changed anything, and a
// generation the ring has overwritten since is unknown: each fails the
// replay.
//
// The ring is allocated on the first append, so a read-only server never
// pays for it.

#ifndef I3_MODEL_WRITE_LOG_H_
#define I3_MODEL_WRITE_LOG_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/geo.h"
#include "common/rw_lock.h"
#include "model/document.h"
#include "model/query.h"

namespace i3 {

/// \brief The generation counter and ring of recent writes described
/// above. Thread-safe; writers must be serialized by the caller.
class WriteLog {
 public:
  /// Writes the ring keeps: a cache entry, or a recovering replica, more
  /// than this many writes behind cannot be replayed.
  static constexpr uint64_t kCapacity = 1024;

  enum class Kind : uint8_t { kInsert, kDelete, kUpdate, kClear };

  /// \brief How a write ended.
  enum class Outcome : uint8_t {
    /// It returned OK.
    kApplied,
    /// It returned a logical error (a duplicate insert, a missing
    /// delete), which any replica applying it to the same state reaches.
    kRejected,
    /// It failed on the storage of the last healthy replica, which kept
    /// serving with whatever part of the write reached it.
    kStorageFailure,
  };

  /// \brief One write.
  struct Record {
    /// The generation this write produced; a slot whose stamp differs
    /// from the generation a reader looks for holds no record of it.
    uint64_t generation = 0;
    Kind kind = Kind::kInsert;
    Outcome outcome = Outcome::kApplied;
    /// The inserted or deleted document; an update's new document.
    SpatialDocument doc;
    /// An update's old document.
    SpatialDocument old_doc;
  };

  /// \param space the index's data space, which its Scorer normalizes
  ///        distances by
  explicit WriteLog(const Rect& space) : space_(space) {}

  WriteLog(const WriteLog&) = delete;
  WriteLog& operator=(const WriteLog&) = delete;

  /// \brief The generation of the latest write: the number of writes
  /// logged so far. Acquire: whoever reads generation g also sees the
  /// index changes of writes 1..g.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// \brief Logs the next generation's write, with the documents Record
  /// names for `kind` (the others are ignored). Callers serialize writers.
  void Append(Kind kind, const SpatialDocument& doc,
              const SpatialDocument& old_doc, Outcome outcome);

  /// \brief Copies the records after generation `after` into `*out`,
  /// oldest first. False when one of them is no longer in the ring.
  bool RecordsAfter(uint64_t after, std::vector<Record>* out) const;

  /// \brief Replays the writes after generation `tag` against `results`,
  /// the exact top-k of (`q`, `alpha`) as of a state that includes every
  /// write up to `tag`. Returns false when one of them can change it, or
  /// one is not in the ring. Otherwise `results` is exact as of
  /// `*through`, the generation replayed to, and `*replayed` counts the
  /// records checked. `q` must be normalized.
  bool Replay(const Query& q, double alpha,
              const std::vector<ScoredDoc>& results, uint64_t tag,
              uint64_t* through, uint64_t* replayed) const;

 private:
  const Rect space_;
  /// Appends exclusive, reads shared.
  mutable RwLock mutex_;
  std::vector<Record> ring_;
  std::atomic<uint64_t> generation_{0};
};

}  // namespace i3

#endif  // I3_MODEL_WRITE_LOG_H_
