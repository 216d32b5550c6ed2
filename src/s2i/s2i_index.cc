#include "s2i/s2i_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_set>

#include "model/topk.h"
#include "obs/clock.h"
#include "obs/trace.h"

namespace i3 {

namespace {
/// Serialized flat posting: point (16) + doc (4) + weight (4).
constexpr size_t kFlatEntryBytes = 24;
}  // namespace

S2IIndex::S2IIndex(S2IOptions options)
    : options_(options), stats_emitter_("S2I", View(S2ISearchStats{})) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  search_latency_us_[0] =
      reg.GetHistogram("i3_query_latency_us", "End-to-end Search latency.",
                       {{"index", "S2I"}, {"semantics", "and"}});
  search_latency_us_[1] =
      reg.GetHistogram("i3_query_latency_us", "End-to-end Search latency.",
                       {{"index", "S2I"}, {"semantics", "or"}});
}

Status S2IIndex::ValidateDocument(const SpatialDocument& doc) const {
  if (doc.id == kInvalidDocId) {
    return Status::InvalidArgument("invalid document id");
  }
  if (!options_.space.Contains(doc.location)) {
    return Status::InvalidArgument("location outside the data space");
  }
  if (doc.terms.empty()) {
    return Status::InvalidArgument("document has no keywords");
  }
  return Status::OK();
}

void S2IIndex::ChargeFlatRead(size_t postings_count) {
  const uint64_t pages = std::max<uint64_t>(
      1, (postings_count * kFlatEntryBytes + options_.page_size - 1) /
             options_.page_size);
  io_stats_.RecordRead(IoCategory::kFlatFile, pages);
}

void S2IIndex::ChargeFlatWrite(size_t postings_count) {
  const uint64_t pages = std::max<uint64_t>(
      1, (postings_count * kFlatEntryBytes + options_.page_size - 1) /
             options_.page_size);
  io_stats_.RecordWrite(IoCategory::kFlatFile, pages);
}

void S2IIndex::PromoteToTree(TermPostings* tp) {
  // Migration flat -> tree: read the whole run, insert every posting into a
  // fresh aR-tree. This data movement is the update overhead the I3 paper
  // attributes to S2I.
  ChargeFlatRead(tp->flat.size());
  tp->tree = std::make_unique<ARTree>(ARTreeOptions{options_.page_size, 0.4},
                                      &io_stats_);
  for (const AREntry& e : tp->flat) {
    tp->tree->Insert(e.point, e.doc, e.weight);
  }
  tp->flat.clear();
  tp->flat.shrink_to_fit();
  ++tree_count_;
}

void S2IIndex::DemoteToFlat(TermPostings* tp) {
  // Migration tree -> flat when the keyword turns infrequent again.
  Scorer scorer(options_.space, 0.0);
  for (auto it = tp->tree->NewIterator(scorer, options_.space.Center());
       it.Valid(); it.Next()) {
    tp->flat.push_back(it.entry());
  }
  ChargeFlatWrite(tp->flat.size());
  tp->tree.reset();
  --tree_count_;
}

Status S2IIndex::Insert(const SpatialDocument& doc) {
  I3_RETURN_NOT_OK(ValidateDocument(doc));
  for (const WeightedTerm& wt : doc.terms) {
    TermPostings& tp = terms_[wt.term];
    if (tp.tree != nullptr) {
      tp.tree->Insert(doc.location, doc.id, wt.weight);
    } else {
      tp.flat.push_back({doc.location, doc.id, wt.weight});
      ChargeFlatWrite(1);
      if (tp.flat.size() > options_.frequency_threshold) {
        PromoteToTree(&tp);
      }
    }
    ++tp.count;
  }
  ++doc_count_;
  return Status::OK();
}

Status S2IIndex::Delete(const SpatialDocument& doc) {
  I3_RETURN_NOT_OK(ValidateDocument(doc));
  for (const WeightedTerm& wt : doc.terms) {
    auto it = terms_.find(wt.term);
    if (it == terms_.end()) {
      return Status::NotFound("keyword not indexed");
    }
    TermPostings& tp = it->second;
    if (tp.tree != nullptr) {
      if (!tp.tree->Delete(doc.location, doc.id)) {
        return Status::NotFound("posting not found in tree");
      }
      --tp.count;
      if (tp.count <= options_.frequency_threshold) {
        DemoteToFlat(&tp);
      }
    } else {
      auto pos = std::find_if(tp.flat.begin(), tp.flat.end(),
                              [&](const AREntry& e) {
                                return e.doc == doc.id &&
                                       e.point == doc.location;
                              });
      if (pos == tp.flat.end()) {
        return Status::NotFound("posting not found in flat run");
      }
      ChargeFlatRead(tp.flat.size());
      tp.flat.erase(pos);
      ChargeFlatWrite(tp.flat.size());
      --tp.count;
    }
    if (tp.count == 0) terms_.erase(it);
  }
  --doc_count_;
  return Status::OK();
}

// ------------------------------------------------------------------- search

/// A ranked posting stream for one query keyword: tree-backed (best-first
/// aR-tree scan) or flat-backed (load, sort by key). Both expose Head()
/// (upper bound of anything not yet emitted) and Probe() random access.
class S2IIndex::Source {
 public:
  Source(const TermPostings* tp, const Scorer& scorer, const Point& qloc,
         S2IIndex* owner)
      : scorer_(scorer), qloc_(qloc) {
    if (tp->tree != nullptr) {
      it_.emplace(tp->tree->NewIterator(scorer, qloc));
      tree_ = tp->tree.get();
      max_weight_ = tp->tree->MaxWeight();
    } else {
      owner->ChargeFlatRead(tp->flat.size());
      flat_ = tp->flat;
      for (const AREntry& e : flat_) {
        max_weight_ = std::max(max_weight_, e.weight);
        keys_.push_back(
            scorer.Combine(scorer.SpatialProximity(qloc, e.point), e.weight));
      }
      order_.resize(flat_.size());
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      std::sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
        return keys_[a] > keys_[b];
      });
    }
  }

  bool Valid() const {
    if (tree_ != nullptr) return it_->Valid();
    return pos_ < order_.size();
  }

  const AREntry& Current() const {
    if (tree_ != nullptr) return it_->entry();
    return flat_[order_[pos_]];
  }

  double Key() const {
    if (tree_ != nullptr) return it_->key();
    return keys_[order_[pos_]];
  }

  /// Upper bound over everything not yet emitted, including the current
  /// entry; -inf when exhausted.
  double Head() const {
    if (!Valid()) return -std::numeric_limits<double>::infinity();
    return Key();
  }

  void Next() {
    if (tree_ != nullptr) {
      it_->Next();
    } else {
      ++pos_;
    }
  }

  /// Random access: exact weight of `doc`, if this keyword contains it.
  std::optional<float> Probe(const Point& p, DocId doc) const {
    if (tree_ != nullptr) return tree_->Probe(p, doc);
    for (const AREntry& e : flat_) {  // run already in memory this query
      if (e.doc == doc && e.point == p) return e.weight;
    }
    return std::nullopt;
  }

  /// Largest term weight in the whole source (for threshold tightening).
  float MaxWeight() const { return max_weight_; }

 private:
  Scorer scorer_;
  Point qloc_;
  float max_weight_ = 0.0f;
  const ARTree* tree_ = nullptr;
  std::optional<ARTree::Iterator> it_;
  std::vector<AREntry> flat_;
  std::vector<double> keys_;
  std::vector<size_t> order_;
  size_t pos_ = 0;
};

Result<std::vector<ScoredDoc>> S2IIndex::Search(const Query& q_in,
                                                double alpha) {
  const uint64_t start_ns = obs::NowNanos();
  S2ISearchStats stats;
  auto result = SearchDispatch(q_in, alpha, &stats);
  search_latency_us_[q_in.semantics == Semantics::kAnd ? 0 : 1]->Record(
      (obs::NowNanos() - start_ns) / 1000);
  const SearchStatsView view = View(stats);
  stats_emitter_.Emit(view);
  if (q_in.control.stats != nullptr) q_in.control.stats->work.Add(view);
  return result;
}

Result<std::vector<ScoredDoc>> S2IIndex::SearchDispatch(
    const Query& q_in, double alpha, S2ISearchStats* stats) {
  Query q = q_in;
  q.Normalize();
  if (q.terms.empty()) {
    return Status::InvalidArgument("query has no keywords");
  }
  if (alpha < 0.0 || alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in [0, 1]");
  }
  const Scorer scorer(options_.space, alpha);

  std::vector<std::unique_ptr<Source>> sources;
  for (TermId t : q.terms) {
    auto it = terms_.find(t);
    if (it == terms_.end()) {
      if (q.semantics == Semantics::kAnd) return std::vector<ScoredDoc>{};
      continue;
    }
    sources.push_back(
        std::make_unique<Source>(&it->second, scorer, q.location, this));
  }
  if (sources.empty()) return std::vector<ScoredDoc>{};

  if (options_.strategy == S2IStrategy::kTaRandomAccess) {
    return SearchTa(q, alpha, &sources, stats);
  }
  return SearchNra(q, alpha, &sources, stats);
}

// The faithful baseline: pop the globally best posting, then resolve its
// document immediately with random accesses (tree probes) into every other
// keyword's source -- the cross-tree aggregation whose cost the I3 paper
// criticizes. Terminates when no unresolved document can beat the k-th
// result.
Result<std::vector<ScoredDoc>> S2IIndex::SearchTa(
    const Query& q, double alpha,
    std::vector<std::unique_ptr<Source>>* sources_in, S2ISearchStats* stats) {
  auto& sources = *sources_in;
  const Scorer scorer(options_.space, alpha);
  TopKHeap heap(q.k);
  std::unordered_set<DocId> resolved;

  while (true) {
    // Unresolved documents are bounded by the source heads: a doc first
    // surfaces at kappa <= max_i Head_i and its remaining textual mass is
    // bounded by the other sources' maximum weights.
    double head_sum = 0.0;
    double head_max = -std::numeric_limits<double>::infinity();
    double wmax_sum = 0.0;
    double wmax_min = std::numeric_limits<double>::infinity();
    bool any_valid = false;
    bool and_dead = false;
    for (const auto& s : sources) {
      if (s->Valid()) {
        head_sum += s->Head();
        head_max = std::max(head_max, s->Head());
        wmax_sum += s->MaxWeight();
        wmax_min = std::min(wmax_min, double{s->MaxWeight()});
        any_valid = true;
      } else if (q.semantics == Semantics::kAnd) {
        and_dead = true;
      }
    }
    if (!any_valid) break;
    if (q.semantics == Semantics::kAnd && and_dead) break;
    const double tau = std::min(
        head_sum, head_max + (1.0 - alpha) * (wmax_sum - wmax_min));
    // Strict: an unseen doc whose bound equals the k-th score may tie it
    // and win on the smaller doc id.
    if (heap.Full() && heap.Threshold() > tau) break;

    Source* best = nullptr;
    for (const auto& s : sources) {
      if (s->Valid() && (best == nullptr || s->Head() > best->Head())) {
        best = s.get();
      }
    }
    const AREntry e = best->Current();
    best->Next();
    ++stats->source_pops;
    if (!resolved.insert(e.doc).second) continue;

    double text = 0.0;
    bool qualifies = true;
    for (const auto& s : sources) {
      if (s.get() == best) {
        text += e.weight;
        continue;
      }
      auto w = s->Probe(e.point, e.doc);
      ++stats->random_probes;
      if (w.has_value()) {
        text += *w;
      } else if (q.semantics == Semantics::kAnd) {
        qualifies = false;
        break;
      }
    }
    ++stats->docs_resolved;
    if (!qualifies) continue;
    heap.Offer(e.doc,
               scorer.Combine(scorer.SpatialProximity(q.location, e.point),
                              text),
               e.point);
  }
  return heap.Take();
}

// The modernized variant: accumulate partial scores from the ranked
// streams (no random access), then resolve only the surviving candidates.
Result<std::vector<ScoredDoc>> S2IIndex::SearchNra(
    const Query& q, double alpha,
    std::vector<std::unique_ptr<Source>>* sources_in, S2ISearchStats* stats) {
  auto& sources = *sources_in;
  const Scorer scorer(options_.space, alpha);

  // --- Phase 1: NRA-style accumulation over the ranked streams. ---
  //
  // Each source emits (doc, w) in non-increasing kappa = alpha*phi_s +
  // (1-alpha)*w order. We accumulate each document's partial textual sum
  // and which sources have emitted it; no random access happens here (the
  // streams are I/O-cheap: a tree leaf holds ~page_size/24 entries).
  //
  // Bounds:
  //  * unseen doc d (never emitted): it will first surface via some source
  //    i0 at kappa <= Head_i0 <= max_i Head_i, and the rest of its textual
  //    mass is at most sum_{j != i0} wmax_j, so
  //      score(d) <= max_i Head_i
  //                  + (1-alpha) * (sum_j wmax_j - min_j wmax_j),
  //    intersected with the naive sum-of-heads bound;
  //  * seen candidate d: phi_s is known exactly; an unseen source i can
  //    contribute at most (1-alpha) * min(wmax_i, Head_i - alpha*phi_s(d))
  //    because d would otherwise already have been emitted by i.
  struct Cand {
    Point loc;
    double seen_w = 0.0;
    uint32_t seen_mask = 0;
  };
  std::unordered_map<DocId, Cand> cands;
  const uint32_t m = static_cast<uint32_t>(sources.size());
  const uint32_t all_mask = (m >= 32) ? 0xffffffffu : ((1u << m) - 1);

  const double kInf = std::numeric_limits<double>::infinity();
  auto head_of = [&](uint32_t i) {
    return sources[i]->Valid() ? sources[i]->Head() : -kInf;
  };

  // Upper bound of a seen candidate under the current heads.
  auto cand_upper = [&](const Cand& c) {
    const double phi_s = scorer.SpatialProximity(q.location, c.loc);
    double text = c.seen_w;
    for (uint32_t i = 0; i < m; ++i) {
      if (c.seen_mask & (1u << i)) continue;
      if (!sources[i]->Valid()) {
        // Exhausted without emitting the doc: the doc is not in source i.
        if (q.semantics == Semantics::kAnd) return -kInf;
        continue;
      }
      if (q.semantics == Semantics::kAnd || alpha < 1.0) {
        const double by_head =
            alpha >= 1.0 ? double{sources[i]->MaxWeight()}
                         : (head_of(i) - alpha * phi_s) / (1.0 - alpha);
        const double w = std::min(double{sources[i]->MaxWeight()}, by_head);
        if (w < 0.0 && q.semantics == Semantics::kAnd) return -kInf;
        text += std::max(0.0, w);
      }
    }
    return scorer.Combine(phi_s, text);
  };

  // Achievable lower bound: the score the candidate already has in hand.
  // Under AND it only counts once every source has emitted the doc (then
  // it is exact); under OR the partial sum is always achievable.
  auto cand_lower = [&](const Cand& c) {
    if (q.semantics == Semantics::kAnd && c.seen_mask != all_mask) {
      return -kInf;
    }
    return scorer.Combine(scorer.SpatialProximity(q.location, c.loc),
                          c.seen_w);
  };

  auto unseen_tau = [&]() {
    double head_sum = 0.0, head_max = -kInf;
    double wmax_sum = 0.0, wmax_min = kInf;
    bool any_valid = false, and_dead = false;
    for (const auto& s : sources) {
      if (s->Valid()) {
        head_sum += s->Head();
        head_max = std::max(head_max, s->Head());
        wmax_sum += s->MaxWeight();
        wmax_min = std::min(wmax_min, double{s->MaxWeight()});
        any_valid = true;
      } else {
        and_dead = true;
      }
    }
    if (!any_valid) return -kInf;
    if (q.semantics == Semantics::kAnd && and_dead) return -kInf;
    return std::min(head_sum,
                    head_max + (1.0 - alpha) * (wmax_sum - wmax_min));
  };

  // k-th best achievable lower bound among the candidates.
  auto kth_lower = [&]() {
    TopKHeap lowers(q.k);
    for (const auto& [doc, c] : cands) {
      const double l = cand_lower(c);
      if (l > -kInf) lowers.Offer(doc, l);
    }
    return lowers.Full() ? lowers.Threshold() : -kInf;
  };

  constexpr uint32_t kCheckEvery = 256;
  uint32_t since_check = 0;
  while (true) {
    const double tau = unseen_tau();
    // Pop from the source with the highest head.
    int best = -1;
    for (uint32_t i = 0; i < m; ++i) {
      if (sources[i]->Valid() &&
          (best < 0 || sources[i]->Head() > sources[best]->Head())) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;  // all streams exhausted

    if (since_check++ >= kCheckEvery) {
      since_check = 0;
      const double delta = kth_lower();
      if (delta > -kInf && delta > tau) {  // strict, as in SearchTa
        bool open = false;
        for (const auto& [doc, c] : cands) {
          if (cand_lower(c) < delta && cand_upper(c) > delta) {
            open = true;
            break;
          }
        }
        if (!open) break;
      }
    }

    const AREntry e = sources[best]->Current();
    sources[best]->Next();
    ++stats->source_pops;
    Cand& c = cands[e.doc];
    c.loc = e.point;
    c.seen_w += e.weight;
    c.seen_mask |= (1u << best);
  }

  // --- Phase 2: resolve the surviving candidates exactly. ---
  //
  // Only candidates whose upper bound can still reach the k-th lower bound
  // need random accesses (the paper's "considerable random access cost to
  // aggregate the final score" applies here, but to a bounded set). One
  // whose bound equals it may tie and win on the smaller doc id.
  const double delta = kth_lower();
  TopKHeap heap(q.k);
  for (auto& [doc, c] : cands) {
    if (cand_upper(c) < delta) continue;
    if (q.semantics == Semantics::kAnd && c.seen_mask == all_mask) {
      heap.Offer(doc, cand_lower(c), c.loc);  // already exact
      ++stats->docs_resolved;
      continue;
    }
    double text = c.seen_w;
    bool qualifies = true;
    for (uint32_t i = 0; i < m; ++i) {
      if (c.seen_mask & (1u << i)) continue;
      if (!sources[i]->Valid()) {
        // Stream drained without emitting the doc: not in this source.
        if (q.semantics == Semantics::kAnd) qualifies = false;
        continue;
      }
      auto w = sources[i]->Probe(c.loc, doc);
      ++stats->random_probes;
      if (w.has_value()) {
        text += *w;
      } else if (q.semantics == Semantics::kAnd) {
        qualifies = false;
      }
      if (!qualifies) break;
    }
    if (!qualifies) continue;
    ++stats->docs_resolved;
    heap.Offer(doc,
               scorer.Combine(scorer.SpatialProximity(q.location, c.loc),
                              text),
               c.loc);
  }
  return heap.Take();
}

// -------------------------------------------------------------------- misc

IndexSizeInfo S2IIndex::SizeInfo() const {
  uint64_t tree_bytes = 0;
  uint64_t flat_entries = 0;
  for (const auto& [term, tp] : terms_) {
    if (tp.tree != nullptr) {
      tree_bytes += tp.tree->SizeBytes();
    } else {
      flat_entries += tp.flat.size();
    }
  }
  // Infrequent keywords' runs are stored consecutively in one flat file.
  const uint64_t flat_bytes =
      ((flat_entries * kFlatEntryBytes + options_.page_size - 1) /
       options_.page_size) *
      options_.page_size;
  IndexSizeInfo info;
  info.components.push_back({"aR-tree files", tree_bytes});
  info.components.push_back({"flat file", flat_bytes});
  return info;
}

}  // namespace i3
