// Linear-scan oracle: scores every stored document. O(N) per query, used as
// the gold standard in correctness and property tests, and as the "no index"
// reference point in the examples.

#ifndef I3_MODEL_BRUTE_FORCE_H_
#define I3_MODEL_BRUTE_FORCE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "model/index.h"
#include "model/scorer.h"
#include "model/topk.h"

namespace i3 {

/// \brief Exhaustive-scan implementation of SpatialKeywordIndex.
class BruteForceIndex final : public SpatialKeywordIndex {
 public:
  /// \param space data-space rectangle used to normalize distances.
  explicit BruteForceIndex(const Rect& space) : space_(space) {}

  std::string Name() const override { return "BruteForce"; }

  Status Insert(const SpatialDocument& doc) override;
  Status Delete(const SpatialDocument& doc) override;
  Result<std::vector<ScoredDoc>> Search(const Query& q,
                                        double alpha) override;

  Rect space() const override { return space_; }
  uint64_t DocumentCount() const override { return docs_.size(); }
  IndexSizeInfo SizeInfo() const override;
  IoStats io_stats() const override { return io_stats_; }
  void ResetIoStats() override { io_stats_.Reset(); }

 private:
  Rect space_;
  std::unordered_map<DocId, SpatialDocument> docs_;
  IoStats io_stats_;
};

}  // namespace i3

#endif  // I3_MODEL_BRUTE_FORCE_H_
