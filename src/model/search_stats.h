// A shared, index-agnostic view over per-query search statistics.
//
// Each index keeps its own typed stats struct (I3SearchStats,
// S2ISearchStats, IrTreeSearchStats) because the interesting counters
// differ per algorithm; this header is the common denominator: a flat
// (name, value) view each struct converts into, and an emitter that turns
// a view into `i3_search_stat_total{index,stat}` counters in the metrics
// registry.
//
// A search accumulates into a *stack-local* stats struct and, once it
// completes, adds its view to the caller's per-query context
// (QueryControl::stats, model/query.h) -- nothing per-query is ever stored
// on the index, so concurrent readers never share a stats slot.

#ifndef I3_MODEL_SEARCH_STATS_H_
#define I3_MODEL_SEARCH_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "obs/metrics.h"

namespace i3 {

/// \brief Flat (name, value) view of one search's statistics. Names must be
/// string literals (the view stores pointers, not copies) and each index
/// must produce them in a fixed order, so views of the same index are
/// positionally comparable and an emitter can pre-register counters.
struct SearchStatsView {
  static constexpr size_t kMaxStats = 9;

  size_t count = 0;
  std::array<const char*, kMaxStats> names{};
  std::array<uint64_t, kMaxStats> values{};

  void Set(const char* name, uint64_t value) {
    if (count < kMaxStats) {
      names[count] = name;
      values[count] = value;
      ++count;
    }
  }

  /// \brief Adds `other`'s values into this view, matching stats by name
  /// and appending the ones this view lacks (a failover sums the views of
  /// the replicas it tried this way). Views of one index share names and
  /// order, so the name at the same position is tried first.
  void Add(const SearchStatsView& other) {
    if (count == 0) {
      *this = other;
      return;
    }
    for (size_t i = 0; i < other.count; ++i) {
      size_t j = i;
      if (j >= count || std::strcmp(names[j], other.names[i]) != 0) {
        j = 0;
        while (j < count && std::strcmp(names[j], other.names[i]) != 0) ++j;
        if (j == count) Set(other.names[i], 0);
      }
      if (j < count) values[j] += other.values[i];
    }
  }

  /// Value of the named stat, or 0 when absent.
  uint64_t Get(const char* name) const {
    for (size_t i = 0; i < count; ++i) {
      if (std::strcmp(names[i], name) == 0) return values[i];
    }
    return 0;
  }

  std::string ToString() const {
    std::ostringstream os;
    os << '{';
    for (size_t i = 0; i < count; ++i) {
      if (i != 0) os << ", ";
      os << names[i] << ": " << values[i];
    }
    os << '}';
    return os.str();
  }
};

/// \brief Pre-registered `i3_search_stat_total{index,stat}` counters for one
/// index's stat schema. Construct once (with a view of a default stats
/// struct, which carries the names); Emit is then lock-free -- positional
/// counter increments, safe from concurrent searches.
class SearchStatsEmitter {
 public:
  SearchStatsEmitter(const std::string& index_label,
                     const SearchStatsView& schema) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    count_ = schema.count;
    for (size_t i = 0; i < schema.count; ++i) {
      counters_[i] = reg.GetCounter(
          "i3_search_stat_total",
          "Per-algorithm search work counters, summed over queries.",
          {{"index", index_label}, {"stat", schema.names[i]}});
    }
  }

  /// `view` must come from the same stats struct type as the construction
  /// schema (same names, same order).
  void Emit(const SearchStatsView& view) const {
    for (size_t i = 0; i < view.count && i < count_; ++i) {
      if (view.values[i] != 0) counters_[i]->Increment(view.values[i]);
    }
  }

 private:
  std::array<obs::Counter*, SearchStatsView::kMaxStats> counters_{};
  size_t count_ = 0;
};

}  // namespace i3

#endif  // I3_MODEL_SEARCH_STATS_H_
