// Query processing over I3 (Section 5): best-first descent over quadtree
// cells with AND-semantics signature pruning (Algorithms 5-6) and the
// Apriori subset lattice for the OR-semantics upper bound (Section 5.3).
//
// The join (see DESIGN.md, "Hot-path memory architecture"): a candidate
// cell holds one doc column per fetched non-dense keyword cell -- parallel
// arrays of doc id, weight, x and y, sorted by doc id. A fetch bulk-copies
// the cell's rows into a new column; zooming into the four children is a
// stable partition of every column by quadrant. Under AND a new column is
// merge-intersected with the candidate's others, so all columns of an AND
// candidate hold the same docs in the same order. OR columns stay
// independent; each carries its term's lattice evidence (best weight and
// doc signature), computed once when the column is made, and a resolved OR
// cell scores the docs that may hold two terms by a k-way union merge and
// the rest one column at a time.
//
// Memory discipline: all per-query state -- candidate cells, doc columns,
// the priority queue -- lives in a per-thread bump Arena that is Reset at
// the start of each query, and reusable scratch (the AND signature, the
// OR-lattice tables) is per-thread too. Once a thread reaches its
// high-water mark, a query touches the global allocator only for the result
// vector it returns.

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/arena.h"
#include "common/deadline.h"
#include "common/small_vec.h"
#include "i3/i3_index.h"
#include "model/topk.h"
#include "storage/buffer_pool.h"

namespace i3 {

namespace {
constexpr uint32_t kMaxQueryTerms = 32;     // mask width
constexpr uint32_t kMaxLatticeTerms = 12;   // OR lattice enumeration cap
constexpr uint32_t kDocFilterWords = 64;    // OR scoring's 4,096-bit filter

/// ForEachDoc's `keep` for a merge over every row.
constexpr auto kEveryDoc = [](DocId) { return true; };

/// One term's best-case contribution for the OR lattice: the maximum score
/// m_t and the words of an eta-bit signature (Signature's layout) of the
/// documents that could supply it.
struct OrEvidence {
  double m;
  const uint64_t* sig;
};
}  // namespace

/// One entry of PQ in Algorithm 4: a cell C with the four pruning fields
/// <C.C, C.denseKwds, C.docs, C.upperScore>. Arena-resident and recycled
/// through a per-query freelist; never individually destroyed (all members
/// are trivially destructible, their spill storage is arena memory).
struct I3Index::Candidate {
  /// A query keyword that is dense in this cell. The summary E = <sig,
  /// max_s> is referenced in place: it lives in a head-file node, and the
  /// node vector is stable for the duration of a search (no writer runs).
  struct DenseKwd {
    uint8_t qidx;               ///< position of the keyword in the query
    NodeId node;                ///< summary node of <w, C>
    const SummaryEntry* entry;  ///< E = <sig, max_s> of <w, C>
  };

  /// A keyword cell whose page fetch is deferred (WAND-style): the parent's
  /// summary E stands in as the candidate's upper-bound evidence, and the
  /// pages are read only if the candidate is popped while its bound still
  /// beats the k-th heap score. Candidates that die first -- screened at
  /// push, drained at termination -- never pay these reads. The overflow
  /// pointer aims into a head-file node; the node vector is stable for the
  /// duration of a search (no writer runs).
  struct PendingFetch {
    uint8_t qidx;
    PageId page;
    SourceId source;
    const std::vector<PageId>* overflow;
    const SummaryEntry* entry;  ///< the proxy summary standing in
  };

  /// The rows of one fetched keyword cell (a keyword that stopped being
  /// dense on the path to this cell) that fall inside this cell: parallel
  /// arena arrays sorted by doc id. Never empty.
  struct Column {
    uint8_t qidx;  ///< position of the keyword in the query
    uint32_t n;
    DocId* docs;
    float* weights;
    double* xs;
    double* ys;
    /// OR only (0 and null under AND): the largest weight and the eta-bit
    /// signature of the docs, this term's evidence for the lattice.
    float best = 0.0f;
    uint64_t* sig = nullptr;

    /// Copies row `from` of `src` into row `to` (`src` may be *this).
    void SetRow(uint32_t to, const Column& src, uint32_t from) {
      docs[to] = src.docs[from];
      weights[to] = src.weights[from];
      xs[to] = src.xs[from];
      ys[to] = src.ys[from];
    }
  };

  Rect rect;
  double upper = 0.0;
  SmallVec<DenseKwd, 8> dense;
  SmallVec<PendingFetch, 8> pending;
  SmallVec<Column, 4> cols;  ///< ascending qidx
  Candidate* next_free = nullptr;  ///< freelist link while recycled

  /// Reclaims the candidate for reuse, keeping its list storage.
  void Recycle() {
    upper = 0.0;
    dense.Clear();
    pending.Clear();
    cols.Clear();
    next_free = nullptr;
  }
};

namespace {

/// Per-thread reusable search scratch: the bump arena plus every buffer
/// whose capacity should survive across queries. Thread-local (not global)
/// because concurrent readers each run their own searches.
struct SearchScratch {
  Arena arena;
  Signature and_sig;                        // AND intersection scratch
  std::vector<OrEvidence> or_ev;            // per-term evidence list
  std::vector<const uint64_t*> or_lat_sig;  // lattice evidence per mask
  std::vector<uint64_t> or_lat_words;       // the intersections' storage
  std::vector<double> or_lat_score;         // lattice score per mask
};

thread_local SearchScratch t_search_scratch;

}  // namespace

/// Per-query search state, the column join, and the pruning/upper-bound
/// routines.
class I3Index::SearchContext {
 public:
  using Column = Candidate::Column;

  SearchContext(I3Index* index, const Query& q, double alpha,
                I3SearchStats* stats, SearchScratch* scratch)
      : index_(index),
        query_(q),
        scorer_(index->options_.space, alpha),
        heap_(q.k),
        stats_(stats),
        scratch_(scratch),
        sig_bits_(index->options_.signature_bits) {
    for (size_t i = 0; i < q.terms.size(); ++i) {
      full_mask_ |= (1u << i);
    }
    if (q.semantics == Semantics::kOr) sig_words_ = (sig_bits_ + 63) / 64;
  }

  Arena* arena() { return &scratch_->arena; }

  /// A blank candidate at `rect`: recycled if one is free, arena-minted
  /// otherwise.
  Candidate* NewCandidate(const Rect& rect) {
    Candidate* c = free_list_;
    if (c != nullptr) {
      free_list_ = c->next_free;
      c->Recycle();
    } else {
      c = arena()->New<Candidate>();
    }
    c->rect = rect;
    return c;
  }

  /// Returns a candidate to the freelist (storage stays warm for reuse).
  void Free(Candidate* c) {
    c->next_free = free_list_;
    free_list_ = c;
  }

  void PqPush(Candidate* c) {
    pq_.PushBack(arena(), c);
    std::push_heap(pq_.begin(), pq_.end(), ByUpper{});
    ++stats_->candidates_pushed;
  }

  /// Highest-upper-bound candidate, or nullptr when exhausted.
  Candidate* PqPop() {
    if (pq_.empty()) return nullptr;
    std::pop_heap(pq_.begin(), pq_.end(), ByUpper{});
    Candidate* c = pq_.back();
    pq_.PopBack();
    ++stats_->candidates_popped;
    return c;
  }

  /// Deferred fetches of every candidate still queued; counted as skipped
  /// cells when the search terminates with the queue non-empty.
  uint64_t QueuedPendingCount() const {
    uint64_t n = 0;
    for (const Candidate* c : pq_) n += c->pending.size();
    return n;
  }

  /// \brief Reads the keyword cell (page, overflow, source) of query term
  /// `qidx` into a new column of `c`: one bulk copy per page (cell-cache
  /// entry or decoded page) into the arena, sorted by doc id, then joined.
  /// Under AND, rows missing any term already fetched into `c` die here;
  /// under OR the column gets its lattice evidence.
  Status FetchColumn(Candidate* c, uint8_t qidx, PageId page,
                     const std::vector<PageId>* overflow, SourceId source) {
    Column col{qidx, 0, nullptr, nullptr, nullptr, nullptr};
    // Each page of the cell appends one chunk; only cells at the deepest
    // split level have an overflow chain, so the regrow copy is rare.
    auto append = [this, &col](uint32_t n) {
      Column grown = NewColumn(col.qidx, col.n + n);
      for (uint32_t r = 0; r < col.n; ++r) grown.SetRow(r, col, r);
      const uint32_t at = col.n;
      col = grown;
      return CellRows{col.docs + at, col.weights + at, col.xs + at,
                      col.ys + at};
    };
    DataFile* data = index_->data_.get();
    I3_RETURN_NOT_OK(data->CopySourceCached(page, source, append).status());
    if (overflow != nullptr) {
      for (PageId op : *overflow) {
        I3_RETURN_NOT_OK(data->CopySourceCached(op, source, append).status());
      }
    }
    stats_->rows_joined += col.n;
    // An empty cell leaves the term uncovered: Prune drops an AND
    // candidate, and OR simply has no evidence for it here.
    if (col.n == 0) return Status::OK();
    SortByDoc(&col);
    if (sig_words_ != 0) SetEvidence(&col);
    if (query_.semantics == Semantics::kAnd && !c->cols.empty()) {
      IntersectAnd(c, &col);
      if (col.n == 0) {
        c->cols.Clear();
        return Status::OK();
      }
    }
    c->cols.PushBack(arena(), col);
    for (uint32_t i = c->cols.size() - 1;
         i > 0 && c->cols[i - 1].qidx > qidx; --i) {
      std::swap(c->cols[i - 1], c->cols[i]);
    }
    return Status::OK();
  }

  /// \brief Routes every column of `c` to `children` (indexed by quadrant):
  /// a stable partition by quadrant, so each child column stays sorted by
  /// doc id and AND columns stay aligned; an OR piece gets its evidence
  /// from its freshly copied rows. Empty pieces are not attached.
  void RouteColumns(const Candidate* c, Candidate* const* children) {
    for (const Column& col : c->cols) {
      uint8_t* quad = arena()->AllocateArray<uint8_t>(col.n);
      uint32_t count[kQuadrants] = {};
      for (uint32_t r = 0; r < col.n; ++r) {
        quad[r] = static_cast<uint8_t>(
            CellSpace::QuadrantOf(c->rect, Point{col.xs[r], col.ys[r]}));
        ++count[quad[r]];
      }
      Column piece[kQuadrants];
      for (int q = 0; q < kQuadrants; ++q) {
        piece[q] = NewColumn(col.qidx, count[q]);
        piece[q].n = 0;  // fill cursor
      }
      for (uint32_t r = 0; r < col.n; ++r) {
        Column& p = piece[quad[r]];
        p.SetRow(p.n++, col, r);
      }
      for (int q = 0; q < kQuadrants; ++q) {
        if (piece[q].n == 0) continue;
        if (sig_words_ != 0) SetEvidence(&piece[q]);
        children[q]->cols.PushBack(arena(), piece[q]);
      }
      stats_->rows_joined += col.n;
    }
  }

  /// Algorithm 5 (AND) / Section 5.3 (OR). Returns true if the candidate
  /// cell can be discarded; may drop rows of c->cols as a side effect (AND).
  bool Prune(Candidate* c) {
    if (query_.semantics == Semantics::kAnd) return PruneAnd(c);
    return PruneOr(c);
  }

  /// Algorithm 6 (AND) / the Apriori lattice (OR).
  double UpperBound(Candidate* c) {
    const double phi_s =
        scorer_.SpatialProximityUpper(query_.location, c->rect);
    const double phi_t = query_.semantics == Semantics::kAnd
                             ? TextualUpperAnd(c)
                             : TextualUpperOr(c);
    return scorer_.Combine(phi_s, phi_t);
  }

  /// Scores the documents of a fully resolved cell (Algorithm 4, 6-10).
  /// Per-doc bound: no doc here is nearer than the cell itself, so a doc
  /// whose text score cannot lift the cell's spatial bound to the k-th
  /// score is skipped unscored. The test is strict because a doc tying
  /// the threshold can still enter on the doc-id tie-break.
  ///
  /// OR splits the docs. A 4,096-bit filter of doc-id hashes marks every
  /// bit that two or more rows set. A row whose bit is unmarked is the only
  /// row of its doc, so the doc holds one query term and its text is that
  /// row's weight. The marked rows -- docs that may hold two terms -- are
  /// merged and scored first, which raises the threshold fastest; then
  /// each column's unmarked rows are scored, skipping a column whose best
  /// weight cannot lift the cell's bound. The order does not change the
  /// answer: each doc is offered once, the heap ends with the k best
  /// offered, and a skipped doc scores below the final threshold.
  void ScoreDocs(Candidate* c) {
    const double phi_s_upper =
        scorer_.SpatialProximityUpper(query_.location, c->rect);
    auto offer = [&](DocId doc, double text, const Point& loc) {
      if (scorer_.Combine(phi_s_upper, text) < heap_.Threshold()) return;
      heap_.Offer(doc,
                  scorer_.Combine(
                      scorer_.SpatialProximity(query_.location, loc), text),
                  loc);
      ++stats_->docs_scored;
    };
    if (query_.semantics == Semantics::kAnd) {
      ForEachDoc(c, kEveryDoc, offer);
      return;
    }
    uint64_t once[kDocFilterWords] = {};
    uint64_t twice[kDocFilterWords] = {};
    auto word = [](DocId doc) { return (doc >> 6) % kDocFilterWords; };
    auto bit = [](DocId doc) { return uint64_t{1} << (doc & 63); };
    auto shared = [&](DocId doc) {
      return (twice[word(doc)] & bit(doc)) != 0;
    };
    if (c->cols.size() >= 2) {
      for (const Column& col : c->cols) {
        for (uint32_t r = 0; r < col.n; ++r) {
          const DocId doc = col.docs[r];
          twice[word(doc)] |= once[word(doc)] & bit(doc);
          once[word(doc)] |= bit(doc);
        }
      }
      ForEachDoc(c, shared, offer);
    }
    for (const Column& col : c->cols) {
      if (scorer_.Combine(phi_s_upper, col.best) < heap_.Threshold()) continue;
      for (uint32_t r = 0; r < col.n; ++r) {
        if (shared(col.docs[r])) continue;
        // 0.0 + w: the merge's sum for a doc of one term.
        offer(col.docs[r], 0.0 + col.weights[r], Point{col.xs[r], col.ys[r]});
      }
    }
  }

  double Threshold() const { return heap_.Threshold(); }
  TopKHeap* heap() { return &heap_; }
  I3SearchStats* stats() { return stats_; }

 private:
  struct ByUpper {
    bool operator()(const Candidate* a, const Candidate* b) const {
      return a->upper < b->upper;
    }
  };

  /// A column of `n` uninitialized rows for query term `qidx`.
  Column NewColumn(uint8_t qidx, uint32_t n) {
    Arena* a = arena();
    return {qidx,
            n,
            a->AllocateArray<DocId>(n),
            a->AllocateArray<float>(n),
            a->AllocateArray<double>(n),
            a->AllocateArray<double>(n)};
  }

  /// Sets the OR evidence of `col` from its rows: the best weight and an
  /// arena signature whose bits are Signature::HashOf's (doc mod eta), so
  /// the lattice can intersect it with the dense keywords' summaries.
  void SetEvidence(Column* col) {
    uint64_t* sig = arena()->AllocateArray<uint64_t>(sig_words_);
    std::fill(sig, sig + sig_words_, uint64_t{0});
    float best = 0.0f;
    for (uint32_t r = 0; r < col->n; ++r) {
      best = std::max(best, col->weights[r]);
      const uint32_t h = col->docs[r] % sig_bits_;
      sig[h >> 6] |= uint64_t{1} << (h & 63);
    }
    col->best = best;
    col->sig = sig;
  }

  /// Restores the column invariant: keyword-cell rows arrive in slot
  /// order, which is usually -- but after deletes and reinserts not
  /// always -- doc-id order.
  void SortByDoc(Column* col) {
    const DocId* docs = col->docs;
    if (std::is_sorted(docs, docs + col->n)) return;
    uint32_t* perm = arena()->AllocateArray<uint32_t>(col->n);
    std::iota(perm, perm + col->n, 0u);
    std::sort(perm, perm + col->n, [docs](uint32_t a, uint32_t b) {
      return docs[a] != docs[b] ? docs[a] < docs[b] : a < b;
    });
    Column sorted = NewColumn(col->qidx, col->n);
    for (uint32_t r = 0; r < col->n; ++r) sorted.SetRow(r, *col, perm[r]);
    *col = sorted;
  }

  /// AND join: keeps only the docs present both in `col` and in the
  /// candidate's (mutually aligned) columns, compacting all in place.
  void IntersectAnd(Candidate* c, Column* col) {
    const DocId* ref = c->cols[0].docs;
    const uint32_t ref_n = c->cols[0].n;
    uint32_t i = 0, j = 0, w = 0;
    while (i < ref_n && j < col->n) {
      if (ref[i] < col->docs[j]) {
        ++i;
      } else if (col->docs[j] < ref[i]) {
        ++j;
      } else {
        for (Column& other : c->cols) other.SetRow(w, other, i);
        col->SetRow(w, *col, j);
        ++w;
        ++i;
        ++j;
      }
    }
    for (Column& other : c->cols) other.n = w;
    col->n = w;
  }

  /// \brief k-way union merge over the rows of `c`'s columns whose doc
  /// passes `keep`: calls `fn(doc, text, location)` once per distinct doc,
  /// in doc-id order, with `text` the doc's fetched weights summed in
  /// ascending query-term order -- the order Scorer::TextualScore adds
  /// them, so scores match the brute-force oracle bit for bit. `keep`
  /// decides by doc id alone, so a doc keeps all its rows or none. (An AND
  /// candidate's columns are aligned, so there every row is one doc.)
  template <typename Keep, typename Fn>
  static void ForEachDoc(const Candidate* c, Keep&& keep, Fn&& fn) {
    const uint32_t m = c->cols.size();
    uint32_t pos[kMaxQueryTerms];
    auto next = [&](uint32_t k, uint32_t r) {
      const Column& col = c->cols[k];
      while (r < col.n && !keep(col.docs[r])) ++r;
      return r;
    };
    for (uint32_t k = 0; k < m; ++k) pos[k] = next(k, 0);
    while (true) {
      int first = -1;
      DocId doc = 0;
      for (uint32_t k = 0; k < m; ++k) {
        const Column& col = c->cols[k];
        if (pos[k] < col.n && (first < 0 || col.docs[pos[k]] < doc)) {
          first = static_cast<int>(k);
          doc = col.docs[pos[k]];
        }
      }
      if (first < 0) return;
      const Column& src = c->cols[first];
      const Point loc{src.xs[pos[first]], src.ys[pos[first]]};
      double text = 0.0;
      for (uint32_t k = 0; k < m; ++k) {
        const Column& col = c->cols[k];
        if (pos[k] < col.n && col.docs[pos[k]] == doc) {
          text += col.weights[pos[k]];
          pos[k] = next(k, pos[k] + 1);
        }
      }
      fn(doc, text, loc);
    }
  }

  bool PruneAnd(Candidate* c) {
    // Lines 1-6: intersect the signatures of the dense keywords.
    if (index_->options_.signature_pruning && !c->dense.empty()) {
      Signature& sig = scratch_->and_sig;
      sig = c->dense[0].entry->sig;  // copy-assign: reuses word storage
      for (uint32_t i = 1; i < c->dense.size(); ++i) {
        sig.IntersectWith(c->dense[i].entry->sig);
      }
      if (sig.IsZero()) {
        ++stats_->cells_pruned_signature;
        return true;
      }
      // Lines 7-12: drop rows outside the intersection (the columns are
      // aligned, so one test per row decides for every column).
      if (!c->cols.empty()) {
        const uint32_t n = c->cols[0].n;
        uint32_t w = 0;
        for (uint32_t r = 0; r < n; ++r) {
          if (!sig.MayContain(c->cols[0].docs[r])) continue;
          for (Column& col : c->cols) col.SetRow(w, col, r);
          ++w;
        }
        for (Column& col : c->cols) col.n = w;
        if (w == 0) c->cols.Clear();
      }
    }
    // Coverage: every query keyword must be dense in this cell or fetched
    // with surviving rows; otherwise no document here can contain all
    // keywords. (Generalizes lines 11-12 to empty C.docs.)
    uint32_t covered = 0;
    for (const auto& dk : c->dense) covered |= (1u << dk.qidx);
    for (const Column& col : c->cols) covered |= (1u << col.qidx);
    if (covered != full_mask_) {
      ++stats_->cells_pruned_coverage;
      return true;
    }
    return false;
  }

  bool PruneOr(Candidate* c) {
    // A cell is prunable only if it holds no query keyword at all: no dense
    // keyword (a dense cell is nonempty by definition) and no fetched row.
    if (c->dense.empty() && c->cols.empty()) {
      ++stats_->cells_pruned_coverage;
      return true;
    }
    return false;
  }

  double TextualUpperAnd(Candidate* c) {
    double dense_sum = 0.0;
    for (const auto& dk : c->dense) dense_sum += dk.entry->max_s;
    double nd_max = 0.0;
    ForEachDoc(c, kEveryDoc, [&nd_max](DocId, double text, const Point&) {
      nd_max = std::max(nd_max, text);
    });
    return dense_sum + nd_max;
  }

  double TextualUpperOr(Candidate* c) {
    SearchScratch& s = *scratch_;
    s.or_ev.clear();
    for (const auto& dk : c->dense) {
      s.or_ev.push_back({dk.entry->max_s, dk.entry->sig.words().data()});
    }
    // Each column is one term's non-dense evidence, cached on the column.
    for (const Column& col : c->cols) s.or_ev.push_back({col.best, col.sig});
    if (s.or_ev.empty()) return 0.0;
    const size_t p = s.or_ev.size();
    if (p > kMaxLatticeTerms) {
      // Degenerate fallback: the plain sum is still a valid upper bound.
      double sum = 0.0;
      for (const auto& e : s.or_ev) sum += e.m;
      return sum;
    }

    // Apriori over the 2^p - 1 keyword subsets: a subset is viable iff the
    // intersection of its members' evidence is non-empty; monotonicity
    // prunes supersets of dead subsets. A single term's evidence is used in
    // place; only intersections are written.
    const size_t n_masks = size_t{1} << p;
    const uint32_t nw = sig_words_;
    if (s.or_lat_sig.size() < n_masks) s.or_lat_sig.resize(n_masks);
    if (s.or_lat_words.size() < n_masks * nw) {
      s.or_lat_words.resize(n_masks * nw);
    }
    s.or_lat_score.assign(n_masks, -1.0);  // -1 = dead subset
    double best = 0.0;
    for (size_t mask = 1; mask < n_masks; ++mask) {
      const size_t low = mask & (~mask + 1);
      const size_t low_idx = static_cast<size_t>(__builtin_ctzll(mask));
      const size_t rest = mask ^ low;
      if (rest == 0) {
        s.or_lat_sig[mask] = s.or_ev[low_idx].sig;
        s.or_lat_score[mask] = s.or_ev[low_idx].m;
      } else {
        if (s.or_lat_score[rest] < 0.0) continue;  // Apriori pruning
        const uint64_t* a = s.or_lat_sig[rest];
        const uint64_t* b = s.or_ev[low_idx].sig;
        uint64_t* out = &s.or_lat_words[mask * nw];
        uint64_t any = 0;
        for (uint32_t w = 0; w < nw; ++w) {
          out[w] = a[w] & b[w];
          any |= out[w];
        }
        if (any == 0) continue;  // score stays dead
        s.or_lat_sig[mask] = out;
        s.or_lat_score[mask] = s.or_lat_score[rest] + s.or_ev[low_idx].m;
      }
      best = std::max(best, s.or_lat_score[mask]);
    }
    return best;
  }

  I3Index* index_;
  const Query& query_;
  Scorer scorer_;
  TopKHeap heap_;
  I3SearchStats* stats_;
  SearchScratch* scratch_;
  const uint32_t sig_bits_;  ///< eta
  uint32_t sig_words_ = 0;   ///< words of an OR column signature; 0 = AND
  Candidate* free_list_ = nullptr;
  SmallVec<Candidate*, 64> pq_;  // max-heap by upper bound
  uint32_t full_mask_ = 0;
};

namespace {

/// The calling thread's most recent I3 search (I3Index::last_search_stats).
thread_local I3SearchStats t_last_search_stats;

}  // namespace

I3SearchStats I3Index::last_search_stats() { return t_last_search_stats; }

Result<std::vector<ScoredDoc>> I3Index::Search(const Query& q_in,
                                               double alpha) {
  const uint64_t start_ns = obs::NowNanos();
  // A caller-supplied span sink (wire-propagated tracing, or a fan-out
  // parent's trace) takes precedence over sampling, and only an outermost
  // search samples: one request is one sampling decision.
  obs::QueryTrace* trace = q_in.control.trace;
  obs::QueryTrace sampled;
  const bool owns_trace =
      trace == nullptr && !q_in.control.nested &&
      obs::Tracer::Global().StartTrace("I3.Search", &sampled);
  if (owns_trace) trace = &sampled;
  I3SearchStats stats;
  const uint64_t backoff_before = internal::RetryBackoffNanos();
  auto result = SearchImpl(q_in, alpha, &stats, trace);
  const uint64_t backoff_ns = internal::RetryBackoffNanos() - backoff_before;
  search_latency_us_[q_in.semantics == Semantics::kAnd ? 0 : 1]->Record(
      (obs::NowNanos() - start_ns) / 1000);
  const SearchStatsView view = View(stats);
  stats_emitter_.Emit(view);
  if (q_in.control.stats != nullptr) q_in.control.stats->work.Add(view);
  // Time this query lost to transient-read retry backoff (buffer pool).
  if (trace != nullptr && backoff_ns != 0) {
    trace->AddStage("retry_backoff", backoff_ns);
  }
  if (owns_trace) {
    QueryStats own;
    own.work = view;
    own.AnnotateTrace(trace);
    if (result.ok()) trace->Annotate("results", result.ValueOrDie().size());
    obs::Tracer::Global().Finish(std::move(sampled));
  }
  t_last_search_stats = stats;
  return result;
}

Result<std::vector<ScoredDoc>> I3Index::SearchImpl(const Query& q_in,
                                                   double alpha,
                                                   I3SearchStats* stats,
                                                   obs::QueryTrace* trace) {
  Query q = q_in;
  q.Normalize();
  if (q.terms.empty()) {
    return Status::InvalidArgument("query has no keywords");
  }
  if (q.terms.size() > kMaxQueryTerms) {
    return Status::InvalidArgument("more than 32 query keywords");
  }
  if (alpha < 0.0 || alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in [0, 1]");
  }

  SearchScratch* scratch = &t_search_scratch;
  scratch->arena.Reset();  // invalidates nothing: no search is in flight
  SearchContext ctx(this, q, alpha, stats, scratch);
  Arena* arena = ctx.arena();

  // Stage-timed wrappers for the two calls that recur throughout the
  // descent; a null trace reduces each to the plain call (one pointer
  // test, see obs::ScopedStage).
  auto TracedPrune = [&ctx, trace](Candidate* cand) {
    obs::ScopedStage stage(trace, "signature_filter");
    return ctx.Prune(cand);
  };
  auto TracedUpperBound = [&ctx, trace](Candidate* cand) {
    obs::ScopedStage stage(trace, "upper_bound");
    return ctx.UpperBound(cand);
  };

  // Build the root candidate (Algorithm 4, line 1).
  Candidate* root = ctx.NewCandidate(options_.space);
  {
    obs::ScopedStage stage(trace, "cell_lookup");
    for (size_t i = 0; i < q.terms.size(); ++i) {
      auto it = lookup_.find(q.terms[i]);
      if (it == lookup_.end()) {
        if (q.semantics == Semantics::kAnd) {
          return std::vector<ScoredDoc>{};  // a required keyword is absent
        }
        continue;
      }
      const LookupEntry& entry = it->second;
      if (entry.dense) {
        const SummaryNode& node = head_.Read(entry.node);
        root->dense.PushBack(
            arena, {static_cast<uint8_t>(i), entry.node, &node.self});
      } else {
        I3_RETURN_NOT_OK(ctx.FetchColumn(root, static_cast<uint8_t>(i),
                                         entry.page, nullptr, entry.source));
      }
    }
  }

  if (!TracedPrune(root)) {
    root->upper = TracedUpperBound(root);
    ctx.PqPush(root);
  } else {
    ctx.Free(root);
  }

  // Cooperative deadline/cancellation: checked once per popped candidate
  // (the unit of descent work). An unbounded control is a single
  // well-predicted branch, preserving the hot path.
  const DeadlineTimer deadline = DeadlineTimer::AtSteadyNanos(
      q_in.control.deadline_ns);

  Candidate* c;
  while ((c = ctx.PqPop()) != nullptr) {
    if (q_in.control.bounded()) {
      if (q_in.control.Cancelled()) {
        return Status::DeadlineExceeded("query cancelled");
      }
      if (deadline.Expired()) {
        return Status::DeadlineExceeded("query deadline exceeded");
      }
    }
    // Lines 4-5: global termination. The queue is bound-ordered, so
    // nothing below this candidate can beat the heap; every page fetch
    // still deferred -- on this candidate and in the drained queue -- is
    // I/O the lazy discipline saved outright. This test and the two
    // candidate prunes below are strict, like ScoreDocs': a doc in a cell
    // whose bound equals the k-th score can tie it and win on doc id.
    if (c->upper < ctx.Threshold()) {
      ctx.stats()->cells_skipped +=
          c->pending.size() + ctx.QueuedPendingCount();
      break;
    }

    // Block-max pop-time gate: this candidate was pushed on summary
    // evidence alone (see the kPage case below). Now that it won the queue
    // while still beating the threshold, resolve ONE deferred cell -- the
    // one with the largest summary bound, so the re-derived bound tightens
    // fastest -- swap its exact tuples in for the proxy, and re-queue (or
    // kill) the candidate under the new bound. One cell per pop maximizes
    // laziness: every intervening threshold rise gets a chance to kill the
    // candidate before its next page read, and a candidate that dies
    // mid-cascade skips all its remaining cells unfetched.
    if (!c->pending.empty()) {
      uint32_t best = 0;
      for (uint32_t i = 1; i < c->pending.size(); ++i) {
        if (c->pending[i].entry->max_s > c->pending[best].entry->max_s) {
          best = i;
        }
      }
      const Candidate::PendingFetch pf = c->pending[best];
      c->pending[best] = c->pending[c->pending.size() - 1];
      c->pending.PopBack();
      uint32_t w = 0;
      for (uint32_t d = 0; d < c->dense.size(); ++d) {
        const Candidate::DenseKwd& dk = c->dense[d];
        if (dk.node == kInvalidNodeId && dk.qidx == pf.qidx) continue;
        c->dense[w++] = c->dense[d];
      }
      c->dense.Truncate(w);
      {
        obs::ScopedStage stage(trace, "page_decode");
        I3_RETURN_NOT_OK(
            ctx.FetchColumn(c, pf.qidx, pf.page, pf.overflow, pf.source));
      }
      if ((c->dense.empty() && c->cols.empty()) || TracedPrune(c)) {
        ctx.stats()->cells_skipped += c->pending.size();
        ctx.Free(c);
        continue;
      }
      c->upper = TracedUpperBound(c);
      if (c->upper < ctx.Threshold()) {
        ++ctx.stats()->blockmax_prunes;
        ctx.stats()->cells_skipped += c->pending.size();
        ctx.Free(c);
        continue;
      }
      ctx.PqPush(c);
      continue;
    }

    // Lines 6-10: fully resolved cell -- score its documents.
    if (c->dense.empty()) {
      obs::ScopedStage stage(trace, "topk_score");
      ctx.ScoreDocs(c);
      ctx.Free(c);
      continue;
    }

    // Lines 12-24: zoom into the four child cells.
    // Snapshot the dense keywords' nodes (head-file reads, one per dense
    // keyword; the node vector is stable during a search).
    SmallVec<const SummaryNode*, 8> nodes;
    {
      obs::ScopedStage stage(trace, "summary_lookup");
      for (const auto& dk : c->dense) {
        nodes.PushBack(arena, &head_.Read(dk.node));
      }
    }

    // Route every fetched row to the unique child containing it.
    Candidate* children[kQuadrants];
    for (int quad = 0; quad < kQuadrants; ++quad) {
      children[quad] = ctx.NewCandidate(CellSpace::ChildRect(c->rect, quad));
    }
    {
      obs::ScopedStage stage(trace, "candidate_merge");
      ctx.RouteColumns(c, children);
    }

    for (int quad = 0; quad < kQuadrants; ++quad) {
      Candidate* child = children[quad];

      // Keywords that stop being dense in this child are *not* fetched
      // here: their summaries E (stored in the parent's node, already in
      // hand) stand in so the child can be screened -- and queued -- without
      // touching the data file. The fetch stays deferred on the candidate
      // until it is popped still beating the threshold (the block-max gate
      // at the top of the loop); children that die before then never pay
      // their page reads at all.
      for (uint32_t d = 0; d < c->dense.size(); ++d) {
        const ChildRef& ref = nodes[d]->child[quad];
        switch (ref.kind) {
          case ChildRef::Kind::kNone:
            break;
          case ChildRef::Kind::kSummary:
            child->dense.PushBack(arena, {c->dense[d].qidx, ref.node,
                                          &nodes[d]->child_summary[quad]});
            break;
          case ChildRef::Kind::kPage:
            if (options_.summary_screen) {
              // Temporarily treat the page-backed cell like a dense one,
              // carrying its exact summary from the parent node.
              // kInvalidNodeId marks it as pending.
              child->dense.PushBack(arena,
                                    {c->dense[d].qidx, kInvalidNodeId,
                                     &nodes[d]->child_summary[quad]});
              child->pending.PushBack(
                  arena, {c->dense[d].qidx, ref.page, ref.source,
                          &ref.overflow, &nodes[d]->child_summary[quad]});
            } else {
              // Ablation / literal Algorithm 4: fetch eagerly.
              obs::ScopedStage stage(trace, "page_scan");
              I3_RETURN_NOT_OK(ctx.FetchColumn(child, c->dense[d].qidx,
                                               ref.page, &ref.overflow,
                                               ref.source));
            }
            break;
        }
      }

      if ((child->dense.empty() && child->cols.empty()) ||
          TracedPrune(child)) {
        ctx.stats()->cells_skipped += child->pending.size();
        ctx.Free(child);
        continue;
      }
      child->upper = TracedUpperBound(child);
      if (child->upper < ctx.Threshold()) {
        ++ctx.stats()->cells_pruned_score;
        ctx.stats()->cells_skipped += child->pending.size();
        ctx.Free(child);
        continue;
      }

      ctx.PqPush(child);
    }
    ctx.Free(c);
  }

  return ctx.heap()->Take();
}

Result<std::vector<ScoredDoc>> I3Index::SearchRange(const Rect& range,
                                                    std::vector<TermId> terms,
                                                    Semantics semantics,
                                                    uint32_t limit) {
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  if (terms.empty()) {
    return Status::InvalidArgument("range query has no keywords");
  }
  if (terms.size() > kMaxQueryTerms) {
    return Status::InvalidArgument("more than 32 query keywords");
  }

  uint32_t full_mask = 0;
  for (size_t i = 0; i < terms.size(); ++i) full_mask |= (1u << i);

  struct RangeDoc {
    uint32_t mask = 0;
    double text = 0.0;
    Point loc;
  };
  std::unordered_map<DocId, RangeDoc> docs;

  auto merge_tuple = [&](uint8_t qidx, const SpatialTuple& t) {
    if (!range.Contains(t.location)) return;
    RangeDoc& rd = docs[t.doc];
    rd.mask |= (1u << qidx);
    rd.text += t.weight;
    rd.loc = t.location;
  };

  // A frame is one cell with the query keywords still dense in it.
  struct Frame {
    Rect rect;
    std::vector<std::pair<uint8_t, NodeId>> dense;
  };
  std::vector<Frame> stack;

  Frame root;
  root.rect = options_.space;
  for (size_t i = 0; i < terms.size(); ++i) {
    auto it = lookup_.find(terms[i]);
    if (it == lookup_.end()) {
      if (semantics == Semantics::kAnd) return std::vector<ScoredDoc>{};
      continue;
    }
    if (it->second.dense) {
      root.dense.emplace_back(static_cast<uint8_t>(i), it->second.node);
    } else {
      const uint8_t qidx = static_cast<uint8_t>(i);
      I3_RETURN_NOT_OK(VisitCellTuples(
          it->second.page, nullptr, it->second.source,
          [&](const SpatialTuple& t) { merge_tuple(qidx, t); }));
    }
  }
  if (!root.dense.empty()) stack.push_back(std::move(root));

  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    std::vector<const SummaryNode*> nodes;
    nodes.reserve(f.dense.size());
    for (const auto& [qidx, node] : f.dense) {
      nodes.push_back(&head_.Read(node));
    }
    for (int quad = 0; quad < kQuadrants; ++quad) {
      const Rect child_rect = CellSpace::ChildRect(f.rect, quad);
      if (!child_rect.Intersects(range)) continue;

      // AND: the signatures of this cell's keyword cells (dense or not)
      // must intersect for any document here to match.
      if (semantics == Semantics::kAnd && options_.signature_pruning) {
        Signature sig(options_.signature_bits);
        bool first = true;
        for (const SummaryNode* n : nodes) {
          if (first) {
            sig = n->child_summary[quad].sig;
            first = false;
          } else {
            sig.IntersectWith(n->child_summary[quad].sig);
          }
          if (sig.IsZero()) break;
        }
        if (!first && sig.IsZero()) continue;
      }

      Frame child;
      child.rect = child_rect;
      for (size_t d = 0; d < f.dense.size(); ++d) {
        const ChildRef& ref = nodes[d]->child[quad];
        switch (ref.kind) {
          case ChildRef::Kind::kNone:
            break;
          case ChildRef::Kind::kSummary:
            child.dense.emplace_back(f.dense[d].first, ref.node);
            break;
          case ChildRef::Kind::kPage: {
            const uint8_t qidx = f.dense[d].first;
            I3_RETURN_NOT_OK(VisitCellTuples(
                ref.page, &ref.overflow, ref.source,
                [&](const SpatialTuple& t) { merge_tuple(qidx, t); }));
            break;
          }
        }
      }
      if (!child.dense.empty()) stack.push_back(std::move(child));
    }
  }

  std::vector<ScoredDoc> out;
  for (const auto& [doc, rd] : docs) {
    if (semantics == Semantics::kAnd && rd.mask != full_mask) continue;
    out.push_back({doc, rd.text, rd.loc});
  }
  std::sort(out.begin(), out.end(), [](const ScoredDoc& a,
                                       const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  });
  if (limit > 0 && out.size() > limit) out.resize(limit);
  return out;
}

}  // namespace i3
