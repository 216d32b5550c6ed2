// Bounded top-k result accumulator.

#ifndef I3_MODEL_TOPK_H_
#define I3_MODEL_TOPK_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "model/query.h"

namespace i3 {

/// \brief Keeps the k highest-scoring documents seen so far and exposes the
/// running k-th score delta (the pruning threshold of Algorithm 4).
///
/// Ties on score are broken by smaller DocId so results are deterministic
/// across index implementations (needed for cross-index equivalence tests).
///
/// Allocation: the heap storage is reserved up front (capped for absurd k),
/// so a search performs at most one heap allocation for its results -- the
/// vector that Take() hands back. Duplicate suppression is a linear scan of
/// the at-most-k held entries rather than a hash set: every caller offers a
/// document at most once per heap, and a re-offered document necessarily
/// carries the same score, so it is rejected by the threshold once evicted
/// and found by the scan while held.
class TopKHeap {
 public:
  explicit TopKHeap(uint32_t k) : k_(k) {
    heap_.reserve(std::min(k_, kMaxUpfrontReserve));
  }

  /// \brief Offers a candidate; ignored if it cannot enter the top k or if
  /// the doc is already present.
  void Offer(DocId doc, double score, const Point& location = {}) {
    if (k_ == 0) return;
    const ScoredDoc cand{doc, score, location};
    const bool full = heap_.size() >= k_;
    // Fast reject: a full heap only admits entries beating the current
    // worst, and such an entry cannot be a duplicate (same doc => same
    // score, which ties with -- not beats -- the held copy).
    if (full && !Better(cand, heap_.front())) return;
    for (const ScoredDoc& held : heap_) {
      if (held.doc == doc) return;
    }
    if (!full) {
      heap_.push_back(cand);
      std::push_heap(heap_.begin(), heap_.end(), WorstFirst{});
      return;
    }
    std::pop_heap(heap_.begin(), heap_.end(), WorstFirst{});
    heap_.back() = cand;
    std::push_heap(heap_.begin(), heap_.end(), WorstFirst{});
  }

  /// \brief delta: the k-th best score, or -infinity while fewer than k
  /// results are held. Cells/nodes with upper bound < delta are prunable;
  /// one whose bound equals delta may hold a tie that wins on doc id.
  double Threshold() const {
    if (heap_.size() < k_) return -std::numeric_limits<double>::infinity();
    return heap_.front().score;
  }

  bool Full() const { return heap_.size() >= k_; }
  size_t size() const { return heap_.size(); }

  /// \brief Extracts results in decreasing score (ties: increasing DocId).
  /// The heap is consumed.
  std::vector<ScoredDoc> Take() {
    // sort_heap under WorstFirst orders "less" (= better-ranked) first.
    std::sort_heap(heap_.begin(), heap_.end(), WorstFirst{});
    return std::move(heap_);
  }

 private:
  // Reserve ceiling: a pathological k must not pre-commit megabytes.
  static constexpr uint32_t kMaxUpfrontReserve = 4096;

  /// True if `a` ranks strictly higher than `b`.
  static bool Better(const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  }

  struct WorstFirst {
    bool operator()(const ScoredDoc& a, const ScoredDoc& b) const {
      return Better(a, b);  // max-heap by "worseness": front = worst-ranked
    }
  };

  uint32_t k_;
  std::vector<ScoredDoc> heap_;  // binary heap via std::push_heap/pop_heap
};

}  // namespace i3

#endif  // I3_MODEL_TOPK_H_
