// Top-k spatial keyword queries.

#ifndef I3_MODEL_QUERY_H_
#define I3_MODEL_QUERY_H_

#include <algorithm>
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

/// \brief The facts one query's layers report about it: what a caller
/// reads after Search returns to explain that request (and nothing
/// else -- concurrent queries each fill their own).
struct QueryStats {
  /// The index's work counters (summed over the replicas a failover
  /// tried).
  SearchStatsView work;
  /// Replica that answered (0 = the primary); filled by ReplicaSet.
  uint32_t served_replica = 0;
  /// A follower answered because the primary failed.
  bool failed_over = false;

  /// \brief Annotates `trace` with the work counters, plus `failovers`
  /// after a failover -- once per request, by whoever owns the trace.
  void AnnotateTrace(obs::QueryTrace* trace) const;
};

/// \brief The per-request context: an absolute deadline, an external
/// cancellation flag, the trace id and span sink, and the caller-owned
/// QueryStats every layer reports to. The default-constructed control is
/// unbounded (run to completion), untraced, and reports nothing; it costs
/// one predictable branch on the search hot path.
///
/// A query that trips the deadline or cancel flag returns
/// Status::DeadlineExceeded.
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
  /// learned -- the index its work counters, ReplicaSet the replica
  /// that answered. Pass a fresh QueryStats per request; the pointee must
  /// outlive the query.
  QueryStats* stats = nullptr;
  /// Set by ReplicaSet on the control it hands its replica. Only the
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
