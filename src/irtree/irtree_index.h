// IR-tree (Cong, Jensen & Wu, PVLDB 2009; Li et al., TKDE 2011) -- the
// classic hybrid baseline: a centralized R-tree whose every node is
// augmented with an inverted file over the pseudo-document of its subtree.
//
// Internal nodes store, per term, the maximum term weight below (used for
// the textual part of the best-first upper bound); leaf nodes store real
// posting lists (doc, weight). Expanding a node costs one tree-node read
// plus one inverted-file lookup per query term (the paper's implementation
// keeps a B-tree per inverted file), and leaf posting reads are charged by
// size -- reproducing the I/O profile of Figures 8-9, where the IR-tree's
// inverted-file accesses dominate.
//
// Node splits must re-partition the node's textual content, which is what
// makes IR-tree construction and maintenance expensive (Figure 6); an STR
// bulk-load path is also provided, matching the static build the paper's
// IR-tree implementation used for the Wikipedia dataset.

#ifndef I3_IRTREE_IRTREE_INDEX_H_
#define I3_IRTREE_IRTREE_INDEX_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/index.h"
#include "model/scorer.h"
#include "storage/page_file.h"

namespace i3 {

/// \brief Subtree-choice policy during insertion.
enum class IrInsertionPolicy {
  /// Classic Guttman: minimize area enlargement (the IR-tree).
  kSpatialOnly,
  /// DIR-tree (Cong et al.): combine spatial enlargement with textual
  /// dissimilarity, clustering documents that share keywords. The paper
  /// found it "showed little improvement in query processing performance
  /// but took much longer time to build" -- reproduced by
  /// bench_ablation_dirtree.
  kDir,
};

/// \brief Options for IrTreeIndex.
struct IrTreeOptions {
  Rect space{-180.0, -90.0, 180.0, 90.0};
  size_t page_size = kDefaultPageSize;
  /// Minimum node fill fraction.
  double min_fill = 0.4;
  /// Insertion policy (IR-tree vs DIR-tree).
  IrInsertionPolicy policy = IrInsertionPolicy::kSpatialOnly;
  /// DIR-tree only: weight of the spatial term in the subtree-choice cost.
  double dir_beta = 0.5;
};

/// \brief Per-query statistics.
struct IrTreeSearchStats {
  uint64_t nodes_popped = 0;
  uint64_t nodes_pruned = 0;
  uint64_t docs_scored = 0;
};

inline SearchStatsView View(const IrTreeSearchStats& s) {
  SearchStatsView v;
  v.Set("nodes_popped", s.nodes_popped);
  v.Set("nodes_pruned", s.nodes_pruned);
  v.Set("docs_scored", s.docs_scored);
  return v;
}

/// \brief The IR-tree baseline index.
class IrTreeIndex final : public SpatialKeywordIndex {
 public:
  explicit IrTreeIndex(IrTreeOptions options = {});

  /// \brief STR (sort-tile-recursive) bulk load: packs documents into
  /// leaves by x-then-y tiling and builds the inverted files bottom-up
  /// without any split, mirroring the paper's static IR-tree construction
  /// for Wikipedia.
  static Result<std::unique_ptr<IrTreeIndex>> BulkLoad(
      IrTreeOptions options, const std::vector<SpatialDocument>& docs);

  std::string Name() const override {
    return options_.policy == IrInsertionPolicy::kDir ? "DIR-tree"
                                                      : "IR-tree";
  }

  Status Insert(const SpatialDocument& doc) override;
  Status Delete(const SpatialDocument& doc) override;
  Result<std::vector<ScoredDoc>> Search(const Query& q,
                                        double alpha) override;

  Rect space() const override { return options_.space; }
  uint64_t DocumentCount() const override { return docs_.size(); }
  IndexSizeInfo SizeInfo() const override;
  IoStats io_stats() const override { return io_stats_; }
  void ResetIoStats() override { io_stats_.Reset(); }

  size_t NodeCount() const { return node_count_; }
  int Height() const;

  const IrTreeOptions& options() const { return options_; }

  /// Structural checker for tests: MBR containment, pseudo-document
  /// soundness (every posting weight bounded by ancestors' pseudo maxima),
  /// posting completeness. Returns the number of leaf entries.
  Result<uint64_t> CheckInvariants() const;

 private:
  struct LeafEntry {
    Point point;
    DocId doc = kInvalidDocId;
  };

  struct Node {
    bool leaf = true;
    Rect mbr = Rect::Empty();
    std::vector<uint32_t> children;   // internal
    std::vector<LeafEntry> entries;   // leaf
    /// Pseudo-document: term -> max term weight in the subtree.
    std::unordered_map<TermId, float> pseudo;
    /// Leaf inverted file: term -> postings (doc, weight).
    std::unordered_map<TermId, std::vector<std::pair<DocId, float>>>
        postings;
  };

  static constexpr uint32_t kNoNode = UINT32_MAX;

  Status ValidateDocument(const SpatialDocument& doc) const;

  uint32_t NewNode(bool leaf);
  void FreeNode(uint32_t id);
  void ChargeNodeRead(uint32_t n = 1) {
    io_stats_.RecordRead(IoCategory::kRTreeNode, n);
  }
  void ChargeNodeWrite(uint32_t n = 1) {
    io_stats_.RecordWrite(IoCategory::kRTreeNode, n);
  }
  /// One inverted-file lookup (B-tree probe) in node `id`'s file.
  void ChargeInvLookup(uint64_t n = 1) {
    io_stats_.RecordRead(IoCategory::kInvertedFile, n);
  }
  /// Reading/writing `bytes` of posting data.
  void ChargeInvBytesRead(uint64_t bytes);
  void ChargeInvBytesWrite(uint64_t bytes);

  /// Serialized size of a node's inverted file in bytes.
  uint64_t InvFileBytes(const Node& n) const;

  size_t LeafCapacity() const { return options_.page_size / 24; }
  size_t InternalCapacity() const { return options_.page_size / 40; }
  size_t LeafMinFill() const {
    return std::max<size_t>(
        1, static_cast<size_t>(LeafCapacity() * options_.min_fill));
  }
  size_t InternalMinFill() const {
    return std::max<size_t>(
        1, static_cast<size_t>(InternalCapacity() * options_.min_fill));
  }

  /// Adds the document's terms to a leaf's postings and pseudo.
  void AddToLeafText(Node* n, const SpatialDocument& doc);
  /// Rebuilds a leaf's postings/pseudo from its entries (split path);
  /// charges the inverted-file rewrite.
  void RebuildLeafText(uint32_t id);
  /// Rebuilds an internal node's pseudo from its children's pseudo files;
  /// charges the rewrite.
  void RebuildInternalText(uint32_t id);

  /// Subtree choice honoring the insertion policy.
  size_t ChooseChild(const Node& n, const SpatialDocument& doc);

  uint32_t InsertRec(uint32_t id, const SpatialDocument& doc);
  uint32_t SplitLeaf(uint32_t id);
  uint32_t SplitInternal(uint32_t id);

  bool DeleteRec(uint32_t id, const SpatialDocument& doc,
                 std::vector<DocId>* orphans);
  void CollectDocs(uint32_t id, std::vector<DocId>* out);

  /// Search body; accumulates per-query statistics into `stats` (stack
  /// storage of the caller, so concurrent searches never share scratch).
  Result<std::vector<ScoredDoc>> SearchImpl(const Query& q, double alpha,
                                            IrTreeSearchStats* stats);

  IrTreeOptions options_;
  std::vector<Node> nodes_;
  std::vector<uint32_t> free_nodes_;
  uint32_t root_ = kNoNode;
  size_t node_count_ = 0;
  std::unordered_map<DocId, SpatialDocument> docs_;
  IoStats io_stats_;

  // Metric handles cached at construction. Index 0 = AND, 1 = OR.
  obs::Histogram* search_latency_us_[2];
  SearchStatsEmitter stats_emitter_;
};

}  // namespace i3

#endif  // I3_IRTREE_IRTREE_INDEX_H_
