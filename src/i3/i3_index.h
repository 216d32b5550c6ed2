// I3: the scalable integrated inverted index (Section 4) -- the paper's
// primary contribution.
//
// Layout:
//   lookup table (memory)  : keyword -> {dense in root?, page or node ref}
//   head file              : summary nodes of dense keyword cells
//   data file              : pages of spatial tuples tagged by source id
//
// Maintenance follows Algorithms 1-3 (insert, including dense splits and
// keyword-cell relocation), Section 4.5 (delete with bottom-up summary
// rebuild; update = delete + insert). Search follows Algorithms 4-6: a
// best-first descent over quadtree cells with signature-intersection
// pruning under AND semantics and an Apriori subset lattice for the OR
// upper bound.

#ifndef I3_I3_I3_INDEX_H_
#define I3_I3_I3_INDEX_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "i3/data_file.h"
#include "i3/head_file.h"
#include "i3/options.h"
#include "model/index.h"
#include "model/scorer.h"
#include "obs/trace.h"
#include "quadtree/cell.h"

namespace i3 {

/// \brief Per-query search statistics (candidates examined, cells pruned);
/// exposed for the ablation benchmarks.
struct I3SearchStats {
  uint64_t candidates_pushed = 0;
  uint64_t candidates_popped = 0;
  uint64_t cells_pruned_signature = 0;
  uint64_t cells_pruned_coverage = 0;
  uint64_t cells_pruned_score = 0;
  uint64_t docs_scored = 0;
  /// Keyword cells whose page fetch was deferred at push time and never
  /// happened -- the candidate (or the cell itself) died first.
  uint64_t cells_skipped = 0;
  /// Deferred cells discarded at pop time because the candidate's
  /// re-derived upper bound could no longer beat the k-th heap score
  /// (the WAND-style block-max prune).
  uint64_t blockmax_prunes = 0;
  /// Join work: rows copied into candidate doc columns (fetched keyword
  /// cells) plus rows routed from a candidate's columns to its children.
  uint64_t rows_joined = 0;
};

inline SearchStatsView View(const I3SearchStats& s) {
  SearchStatsView v;
  v.Set("candidates_pushed", s.candidates_pushed);
  v.Set("candidates_popped", s.candidates_popped);
  v.Set("cells_pruned_signature", s.cells_pruned_signature);
  v.Set("cells_pruned_coverage", s.cells_pruned_coverage);
  v.Set("cells_pruned_score", s.cells_pruned_score);
  v.Set("docs_scored", s.docs_scored);
  v.Set("cells_skipped", s.cells_skipped);
  v.Set("blockmax_prunes", s.blockmax_prunes);
  v.Set("rows_joined", s.rows_joined);
  return v;
}

/// \brief The I3 index.
class I3Index final : public SpatialKeywordIndex {
 public:
  /// Creates an in-memory-backed index. For a disk-backed data file set
  /// I3Options::data_file_path and use Create().
  explicit I3Index(I3Options options = {});

  /// Factory honoring I3Options::data_file_path (fallible: disk I/O).
  static Result<std::unique_ptr<I3Index>> Create(I3Options options);

  std::string Name() const override { return "I3"; }

  Status Insert(const SpatialDocument& doc) override;
  Status Delete(const SpatialDocument& doc) override;
  Result<std::vector<ScoredDoc>> Search(const Query& q,
                                        double alpha) override;

  /// \brief Range-constrained keyword search (the "query region" variant
  /// of spatial keyword search surveyed in the paper's Section 2): returns
  /// the documents located inside `range` that satisfy `semantics` over
  /// `terms`, ranked by textual relevance. `limit` == 0 returns all
  /// matches. Quadtree cells outside the range and (under AND) cells whose
  /// signature intersection is empty are pruned without page reads.
  Result<std::vector<ScoredDoc>> SearchRange(const Rect& range,
                                             std::vector<TermId> terms,
                                             Semantics semantics,
                                             uint32_t limit = 0);

  /// \brief Serializes the whole index (lookup table, head file, data
  /// file) to `path`. See LoadFrom.
  Status SaveTo(const std::string& path) const;

  /// \brief Restores an index previously written by SaveTo. The loaded
  /// index is fully functional (inserts, deletes, searches).
  static Result<std::unique_ptr<I3Index>> LoadFrom(const std::string& path);

  /// \brief LoadFrom with environment options: the index structure (space,
  /// page size, signature bits, ...) still comes from the file, but
  /// `base`'s storage stack -- page_file_factory, checksum_pages,
  /// buffer_pool -- is honored, so a persisted index can be re-homed
  /// (e.g. under a fault-injecting backing).
  static Result<std::unique_ptr<I3Index>> LoadFrom(const std::string& path,
                                                   I3Options base);

  uint64_t DocumentCount() const override { return doc_count_; }
  IndexSizeInfo SizeInfo() const override;

  IoStats io_stats() const override;
  void ResetIoStats() override;
  void ClearCache() override {
    data_->ClearCache();
    head_.ClearCache();
  }

  /// \brief Statistics of the calling thread's most recent completed I3
  /// search, on any I3Index. Per-request callers read
  /// QueryControl::stats instead.
  static I3SearchStats last_search_stats();

  /// Number of summary nodes in the head file.
  size_t SummaryNodeCount() const { return head_.NodeCount(); }
  /// Number of pages in the data file.
  PageId DataPageCount() const { return data_->PageCount(); }

  // --- scrub/heal hooks (model/replica_set.h via i3/replica_ops.h) ---

  /// Checksum-verifying device read of one data page, bypassing the
  /// buffer pool; Corruption when the stored bytes are damaged. Safe
  /// under concurrent readers (it touches only the file stack and its
  /// internally synchronized I/O counters).
  Status VerifyDataPage(PageId id) { return data_->VerifyPage(id); }
  /// Raw logical bytes of one data page (heal source).
  Result<std::vector<uint8_t>> ReadDataPageBytes(PageId id) {
    return data_->ReadPageBytes(id);
  }
  /// Writes raw page bytes through (heal sink): re-stamps the checksum,
  /// bumps the page epoch, clears quarantine. Requires writer exclusion
  /// like every other mutation.
  Status WriteDataPageBytes(PageId id, const std::vector<uint8_t>& bytes) {
    return data_->WritePageBytes(id, bytes);
  }
  /// Data pages currently quarantined by the buffer pool.
  uint64_t QuarantinedDataPages() const {
    return data_->QuarantinedPages();
  }
  /// Number of distinct keywords in the lookup table.
  size_t KeywordCount() const { return lookup_.size(); }

  const I3Options& options() const { return options_; }

  /// \brief Structural invariant checker used by the property tests:
  /// verifies that every tuple is stored in the keyword cell containing its
  /// location, that no non-dense cell exceeds capacity, that summaries
  /// cover their subtrees (signature superset, max_s is a max), and that
  /// the free-space map matches the pages. Returns the number of tuples.
  Result<uint64_t> CheckInvariants();

 private:
  struct LookupEntry {
    bool dense = false;
    // Non-dense: the single data page holding <w, rootcell>.
    PageId page = kInvalidPageId;
    SourceId source = kFreeSlot;
    // Dense: the root summary node.
    NodeId node = kInvalidNodeId;
  };

  Status ValidateDocument(const SpatialDocument& doc) const;

  // --- insert path (Algorithms 1-3) ---
  Status InsertTuple(const SpatialTuple& t);
  Status InsertNewKeyword(const SpatialTuple& t);
  Status InsertNonDenseRoot(const SpatialTuple& t, LookupEntry* entry);
  Status InsertDense(const SpatialTuple& t, NodeId node_id, CellId cell,
                     Rect rect);
  /// Splits the dense keyword cell whose tuples (tagged `source`) fill
  /// `page` (whole-page image `page_img`): allocates a summary node,
  /// partitions tuples by quadrant with fresh source ids (retagged in
  /// place), and returns the new node.
  Result<NodeId> SplitCell(const Rect& rect, PageId page, TuplePage page_img,
                           SourceId source);

  // --- delete path (Section 4.5) ---
  Status DeleteTuple(const SpatialTuple& t);
  /// Rebuilds `entry` from the tuples of `source` on `page` + `overflow`.
  Result<SummaryEntry> RebuildEntryFromPages(
      PageId page, const std::vector<PageId>& overflow, SourceId source);

  // --- search path (Algorithms 4-6): see i3_search.cc ---
  struct Candidate;
  class SearchContext;

  /// Search body; accumulates per-query statistics into `stats` (stack
  /// storage of the caller, so concurrent searches never share scratch).
  /// `trace` is null unless this query was sampled (obs/trace.h); stage
  /// timers are no-ops then.
  Result<std::vector<ScoredDoc>> SearchImpl(const Query& q, double alpha,
                                            I3SearchStats* stats,
                                            obs::QueryTrace* trace);

  /// Reads all tuples of the keyword cell referenced by (page, overflow,
  /// source), charging data-file I/O. Cold paths only; top-k search copies
  /// cells into doc columns (DataFile::CopySourceCached) instead.
  Result<std::vector<SpatialTuple>> ReadCellTuples(
      PageId page, const std::vector<PageId>& overflow, SourceId source);

  /// \brief Visit of every tuple of the keyword cell (page, overflow,
  /// source): `fn(const SpatialTuple&)`, at most one charged read per page.
  /// `overflow` may be null when the cell has no overflow chain. The cold
  /// paths' reader (delete rebuild, invariant checks, range search).
  template <typename Fn>
  Status VisitCellTuples(PageId page, const std::vector<PageId>* overflow,
                         SourceId source, Fn&& fn) {
    // Routed through the decoded-cell cache: a fresh entry replays the
    // cell's tuples without a page view (or decode) at all; a miss views
    // the page once and memoizes. Overflow pages cache independently
    // under their own (page, source) keys.
    auto n = data_->VisitSourceCached(page, source, fn);
    if (!n.ok()) return n.status();
    if (overflow != nullptr) {
      for (PageId op : *overflow) {
        auto on = data_->VisitSourceCached(op, source, fn);
        if (!on.ok()) return on.status();
      }
    }
    return Status::OK();
  }

  I3Options options_;
  CellSpace cells_;
  std::unordered_map<TermId, LookupEntry> lookup_;
  std::unique_ptr<DataFile> data_;
  HeadFile head_;
  SourceId next_source_ = 1;
  uint64_t doc_count_ = 0;
  // Metric handles cached at construction (see obs/metrics.h: the registry
  // is never touched on the query path). Index 0 = AND, 1 = OR.
  obs::Histogram* search_latency_us_[2];
  obs::Histogram* insert_latency_us_;
  obs::Histogram* delete_latency_us_;
  // Dedicated series for the block-max pruning counters (the per-stat
  // i3_search_stat_total family carries them too; these are the names the
  // bench-regression gate asserts on).
  obs::Counter* cells_skipped_total_;
  obs::Counter* blockmax_prunes_total_;
  SearchStatsEmitter stats_emitter_;
};

}  // namespace i3

#endif  // I3_I3_I3_INDEX_H_
