// Always-on slow-query log.
//
// Two retention policies share one recorder:
//  - a fixed-size ring of every request that finished over the latency
//    threshold (recent outliers, oldest overwritten), and
//  - the rolling N slowest requests seen so far (the tail that a ring
//    under churn would lose).
//
// Each record carries the request's span timeline (obs::QueryTrace) and
// its canonical wire bytes, so an outlier can be replayed and its time
// attributed stage by stage after the fact.
//
// Fast-path contract: a request below the threshold and below the
// slowest-N admission bar pays exactly two relaxed atomic loads and two
// compares in Qualifies() -- no locks, no clock reads beyond what the
// caller already took, and zero allocation. Only qualifying requests
// build a record (strings, trace copy), which is allocation on the slow
// path by definition.
//
// Concurrency: ring slots are claimed lock-free (one fetch_add); the
// record move into a claimed slot is published under that slot's own
// mutex, so concurrent writers on distinct slots never contend and a
// reader (/tracez) never observes a torn record -- it skips or waits a
// slot-move's worth of time, bounded and tiny. TSan-clean by
// construction (no seqlock-style unsynchronized copies).

#ifndef I3_OBS_SLOW_LOG_H_
#define I3_OBS_SLOW_LOG_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace i3 {
namespace obs {

/// \brief One slow request: identity, disposition, timeline, and the
/// canonical request frame (hex) for replay.
struct SlowQueryRecord {
  uint64_t trace_id = 0;
  /// Steady-clock completion time (NowNanos scale; for relative age).
  uint64_t when_ns = 0;
  /// End-to-end server latency in microseconds.
  uint64_t total_us = 0;
  uint32_t tenant = 0;
  /// "ok" / "shed" / "error" (net::ResponseOutcomeName).
  std::string outcome;
  /// Canonical request frame bytes, hex-encoded (replayable).
  std::string request_hex;
  /// Span timeline (server stages; wrapper/index stages when traced).
  QueryTrace trace;
};

class SlowQueryLog {
 public:
  struct Options {
    /// Over-threshold ring capacity (oldest overwritten).
    size_t ring_capacity = 64;
    /// Rolling slowest-N capacity.
    size_t top_capacity = 8;
    /// Latency threshold in microseconds; requests at or over it are
    /// logged. 0 logs everything (tests).
    uint64_t threshold_us = 50000;
  };

  explicit SlowQueryLog(const Options& options);
  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// \brief The fast-path gate: true iff a request of this latency should
  /// build a record. Two relaxed loads + compares, nothing else.
  bool Qualifies(uint64_t total_us) const {
    return total_us >= threshold_us_.load(std::memory_order_relaxed) ||
           total_us > top_bar_us_.load(std::memory_order_relaxed);
  }

  /// \brief Files a record (over-threshold -> ring; slow enough -> the
  /// rolling top-N; both when both hold). Callers gate on Qualifies().
  void Record(SlowQueryRecord&& rec);

  /// Over-threshold ring, oldest first.
  std::vector<SlowQueryRecord> Recent() const;
  /// Rolling N slowest, slowest first.
  std::vector<SlowQueryRecord> Slowest() const;

  void SetThresholdUs(uint64_t us);
  uint64_t threshold_us() const {
    return threshold_us_.load(std::memory_order_relaxed);
  }
  /// Total records filed since construction (ring and/or top-N).
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  size_t ring_capacity() const { return ring_.size(); }
  size_t top_capacity() const { return top_capacity_; }

  void Clear();

 private:
  struct Slot {
    /// 0 = never written; else 1 + claim index (global write order).
    uint64_t seq = 0;
    SlowQueryRecord rec;
  };

  std::atomic<uint64_t> threshold_us_;
  /// Admission bar of the rolling top-N: 0 until it fills, then its
  /// current minimum (a new record must beat it to displace).
  std::atomic<uint64_t> top_bar_us_{0};
  std::atomic<uint64_t> recorded_{0};

  /// Ring slot claim counter; slot = claim % ring size.
  std::atomic<uint64_t> ring_claims_{0};
  std::vector<Slot> ring_;
  /// One mutex per slot, held only for the record move/copy.
  mutable std::vector<std::mutex> slot_mutexes_;

  const size_t top_capacity_;
  mutable std::mutex top_mutex_;
  /// Sorted slowest-first, at most top_capacity_ entries.
  std::vector<SlowQueryRecord> top_;
};

/// \brief JSON object for the whole log: {"threshold_us": ...,
/// "recorded": ..., "recent": [...], "slowest": [...]}.
std::string SlowLogToJson(const SlowQueryLog& log);

}  // namespace obs
}  // namespace i3

#endif  // I3_OBS_SLOW_LOG_H_
