// The serving wrapper's write log: the generation counter, plus the last
// kCapacity writes, each under the generation it produced.
//
// ShardedIndex appends under its exclusive lock, after the write has
// changed the index: Insert logs its document, Delete its document,
// Update its delete and then its insert. A write that returned an error
// and ClearCache advance the generation without logging a document --
// they may have changed anything.
//
// The result cache (net/result_cache.h) tags each entry with the
// generation read before its search began, and asks Replay whether the
// writes since then can have changed the entry's answer. A cached answer
// is the exact top-k of some index state that includes every write up to
// its tag (searches hold the wrapper's shared lock, writes its exclusive
// lock, and a write is logged only after it is applied). A write changes
// an exact top-k R of query q only if
//   - it deletes a document of R, or
//   - it inserts a document of R, or one that satisfies q's textual
//     constraint and either R holds fewer than k documents or its score
//     reaches R's k-th score (a tie counts: the doc-id tie-break may put
//     it in; scores within 1e-9 count as ties, absorbing the rounding of
//     an index that sums weights in another order).
// Any other write leaves R the exact top-k, so R stays exact across a run
// of such writes, and replaying writes R already reflects only costs a
// miss. A generation without its document in the ring -- an error,
// ClearCache, or one the ring has overwritten since -- fails the replay.
//
// The ring is allocated on the first logged document, so a read-only
// server never pays for it.

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
  /// Writes the ring keeps; a cache entry more than this many writes
  /// behind is a miss.
  static constexpr uint64_t kCapacity = 1024;

  /// \param space the index's data space, which its Scorer normalizes
  ///        distances by
  explicit WriteLog(const Rect& space) : space_(space) {}

  WriteLog(const WriteLog&) = delete;
  WriteLog& operator=(const WriteLog&) = delete;

  /// \brief The generation of the latest write: the number of writes
  /// logged so far, counting errors and clears. Acquire: whoever reads
  /// generation g also sees the index changes of writes 1..g.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// \brief Logs one applied write. Callers serialize writers.
  void RecordInsert(const SpatialDocument& doc) { Append(Kind::kInsert, doc); }
  void RecordDelete(const SpatialDocument& doc) { Append(Kind::kDelete, doc); }
  /// \brief Logs a write that may have changed anything: a failed write,
  /// or a cache clear.
  void RecordEverything();

  /// \brief Replays the writes after generation `tag` against `results`,
  /// the exact top-k of (`q`, `alpha`) as of a state that includes every
  /// write up to `tag`. Returns false when one of them can change it, or
  /// one is not in the ring. Otherwise `results` is exact as of
  /// `*through`, the generation replayed to, and `*replayed` counts the
  /// writes checked. `q` must be normalized.
  bool Replay(const Query& q, double alpha,
              const std::vector<ScoredDoc>& results, uint64_t tag,
              uint64_t* through, uint64_t* replayed) const;

 private:
  enum class Kind : uint8_t { kInsert, kDelete };

  struct Record {
    /// The generation this write produced; a slot whose stamp differs
    /// from the generation a replay looks for holds no record of it.
    uint64_t generation = 0;
    Kind kind = Kind::kInsert;
    SpatialDocument doc;
  };

  void Append(Kind kind, const SpatialDocument& doc);

  const Rect space_;
  /// Appends exclusive, replays shared.
  mutable RwLock mutex_;
  std::vector<Record> ring_;
  std::atomic<uint64_t> generation_{0};
};

}  // namespace i3

#endif  // I3_MODEL_WRITE_LOG_H_
