// Sampled per-query tracing.
//
// A QueryTrace is a flat set of named stage accumulators (total time +
// call count per stage) plus integer annotations, filled on the stack of
// the traced query and published to a bounded ring buffer when the query
// finishes. Tracing is opt-in by sampling: at the default rate 0 the hot
// path pays one relaxed atomic load per query and nothing else; a sampled
// query pays two clock reads per instrumented stage call (and may
// allocate -- sampled queries are off the allocation-free contract).
//
// Stage accumulators (rather than a span-per-call list) keep a traced I3
// descent bounded: pruning and page-scan sites fire hundreds of times per
// query, and the per-stage totals are what the paper-style cost
// breakdowns need. The serving index (ReplicaSet) adds one "search"
// stage around the replica's own ("search.r1" when replica 1 answered
// after a failover).

#ifndef I3_OBS_TRACE_H_
#define I3_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/clock.h"

namespace i3 {
namespace obs {

/// \brief One stage's accumulated cost inside a trace.
struct TraceStage {
  std::string name;
  uint64_t total_ns = 0;
  uint64_t calls = 0;
};

/// \brief One sampled query.
struct QueryTrace {
  std::string label;       ///< e.g. "I3.Search"
  uint64_t start_ns = 0;   ///< steady-clock origin of the query
  uint64_t total_ns = 0;   ///< end-to-end query time
  std::vector<TraceStage> stages;
  /// Integer facts attached at the end (search-stat counters, result
  /// sizes).
  std::vector<std::pair<std::string, uint64_t>> annotations;

  /// Accumulates `ns` into the stage named `name` (appending it on first
  /// use; linear scan -- stage counts are small).
  void AddStage(const std::string& name, uint64_t ns);
  void Annotate(std::string key, uint64_t value) {
    annotations.emplace_back(std::move(key), value);
  }
  /// Stage total in ns; 0 when the stage never ran.
  uint64_t StageNs(const std::string& name) const;
};

/// \brief RAII stage timer: no-op when `trace` is null (the unsampled
/// fast path -- one pointer test, no clock read).
class ScopedStage {
 public:
  ScopedStage(QueryTrace* trace, const char* name)
      : trace_(trace), name_(name) {
    if (trace_ != nullptr) start_ = NowNanos();
  }
  ~ScopedStage() {
    if (trace_ != nullptr) trace_->AddStage(name_, NowNanos() - start_);
  }
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  QueryTrace* trace_;
  const char* name_;
  uint64_t start_ = 0;
};

/// \brief The process-wide trace collector: sampling decision + ring
/// buffer of recent traces.
class Tracer {
 public:
  Tracer() = default;
  static Tracer& Global();

  /// Sample rate in [0, 1]: 0 disables tracing (default), 1 traces every
  /// query, otherwise every round(1/rate)-th query per thread is traced
  /// (deterministic countdown; no RNG on the hot path).
  void SetSampleRate(double rate);
  double sample_rate() const;

  /// \brief Begins a trace for this query if the sampler selects it:
  /// initializes `*trace` and returns true, else returns false and the
  /// caller passes a null trace down its pipeline.
  bool StartTrace(const char* label, QueryTrace* trace);

  /// \brief Stamps the end-to-end time and publishes the trace into the
  /// ring buffer (oldest dropped beyond capacity).
  void Finish(QueryTrace&& trace);

  /// Most recent traces, oldest first.
  std::vector<QueryTrace> Recent() const;
  void Clear();

  void SetCapacity(size_t n);
  size_t capacity() const;

 private:
  /// 0 = disabled, N >= 1 = trace every N-th query per thread.
  std::atomic<uint32_t> every_n_{0};
  mutable std::mutex mutex_;
  size_t capacity_ = 128;
  std::deque<QueryTrace> ring_;
};

/// \brief JSON object for one trace ({"label": ..., "total_ns": ...,
/// "stages": [...], "annotations": {...}}).
std::string TraceToJson(const QueryTrace& trace);

/// \brief JSON array of the tracer's recent traces (see export.h for the
/// metrics counterpart).
std::string TracesToJson(const std::vector<QueryTrace>& traces);

}  // namespace obs
}  // namespace i3

#endif  // I3_OBS_TRACE_H_
