// Top-k spatial keyword queries.

#ifndef I3_MODEL_QUERY_H_
#define I3_MODEL_QUERY_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/geo.h"
#include "common/status.h"
#include "model/document.h"
#include "model/search_stats.h"
#include "obs/clock.h"
#include "text/vocabulary.h"

namespace i3 {

namespace obs {
struct QueryTrace;
}  // namespace obs

/// \brief Textual matching semantics (Section 3).
enum class Semantics {
  /// Every query keyword must appear in a result document.
  kAnd,
  /// At least one query keyword must appear.
  kOr,
};

inline const char* SemanticsName(Semantics s) {
  return s == Semantics::kAnd ? "AND" : "OR";
}

/// \brief How one query's shard fan-out went (filled by ShardedIndex; all
/// zero for an unsharded index). See the degradation contract in
/// model/sharded_index.h.
struct FanOutStats {
  /// Shards tracked individually in failed_shard_mask and served_replica.
  static constexpr size_t kMaxTrackedShards = 64;

  uint32_t shards = 0;
  uint32_t failed_shards = 0;
  /// Bit i set = shard i failed, for the first kMaxTrackedShards shards.
  uint64_t failed_shard_mask = 0;
  /// Shards answered by a non-primary replica after the primary failed.
  uint32_t failovers = 0;
  /// Replica that answered shard i (0 = primary, or an unreplicated
  /// shard), for the first kMaxTrackedShards shards.
  std::array<uint32_t, kMaxTrackedShards> served_replica{};
  /// Some -- but not all -- shards failed: the top-k is a correct top-k of
  /// the surviving shards only.
  bool degraded = false;
  /// Error of the lowest-indexed failing shard (OK when none failed).
  Status first_error;
};

/// \brief The facts one query's layers report about it: what a caller
/// reads after Search returns to explain that request (and nothing
/// else -- concurrent queries each fill their own).
struct QueryStats {
  /// The index's work counters, summed across shards.
  SearchStatsView work;
  FanOutStats fanout;

  /// \brief Annotates `trace` with the work counters and, for a fan-out,
  /// shards / failed_shards (plus failed_shard_mask, failovers and
  /// degraded when set) -- once per request, by whoever owns the trace.
  void AnnotateTrace(obs::QueryTrace* trace) const;
};

/// \brief The per-request context: an absolute deadline, an external
/// cancellation flag, the trace id and span sink, and the caller-owned
/// QueryStats every layer reports to. The default-constructed control is
/// unbounded (run to completion), untraced, and reports nothing; it costs
/// one predictable branch on the search hot path.
///
/// A query that trips the deadline or cancel flag returns
/// Status::DeadlineExceeded from a single index; ShardedIndex instead
/// degrades -- shards that finished in time still contribute to a partial
/// top-k (see model/sharded_index.h).
struct QueryControl {
  /// Absolute steady-clock deadline in nanoseconds (obs::NowNanos scale);
  /// 0 means no deadline.
  uint64_t deadline_ns = 0;
  /// Checked cooperatively at search checkpoints when non-null; the pointee
  /// must outlive the query. Setting it aborts the query at the next check.
  const std::atomic<bool>* cancel = nullptr;
  /// Server-stamped 64-bit trace id; 0 = untraced. Pure identification --
  /// it ties wire responses, slow-query records, and /tracez entries to
  /// one request without affecting execution.
  uint64_t trace_id = 0;
  /// Request-scoped span sink: when non-null every layer the query
  /// touches adds its stage timings here and the global tracer is not
  /// sampled. The caller owns the timeline -- it annotates it (see
  /// QueryStats::AnnotateTrace) and publishes it. The pointee must outlive
  /// the query; single writer (the executing thread).
  obs::QueryTrace* trace = nullptr;
  /// Caller-owned per-query facts: when non-null, each layer adds what it
  /// learned -- the index its work counters, ShardedIndex its fan-out
  /// outcome. Pass a fresh QueryStats per request; the pointee must
  /// outlive the query.
  QueryStats* stats = nullptr;
  /// Set by ShardedIndex on the control it hands its shards. Only the
  /// outermost search samples the global tracer and annotates and
  /// publishes the trace it sampled; a nested one just adds its stages to
  /// `trace` and its counters to `stats`.
  bool nested = false;

  bool bounded() const { return deadline_ns != 0 || cancel != nullptr; }
  bool Cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }

  /// A control whose deadline is `budget_us` microseconds from now.
  static QueryControl AfterMicros(uint64_t budget_us) {
    QueryControl c;
    c.deadline_ns = obs::NowNanos() + budget_us * 1000;
    return c;
  }
};

/// \brief Q = <lat, lng, terms, k> plus the semantics under which it runs.
struct Query {
  Point location;
  std::vector<TermId> terms;
  uint32_t k = 10;
  Semantics semantics = Semantics::kAnd;
  /// The per-request context; not part of the query's identity (Normalize
  /// and result semantics ignore it).
  QueryControl control;

  /// \brief Sorts terms and drops duplicates (all query processors assume a
  /// canonical term list).
  void Normalize() {
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  }
};

/// \brief One ranked answer.
struct ScoredDoc {
  DocId doc = kInvalidDocId;
  double score = 0.0;
  /// Location of the document (filled by every index).
  Point location;

  bool operator==(const ScoredDoc& o) const {
    return doc == o.doc && score == o.score;
  }
};

}  // namespace i3

#endif  // I3_MODEL_QUERY_H_
