#include "irtree/irtree_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>

#include "model/topk.h"
#include "obs/clock.h"
#include "rtree/split.h"

namespace i3 {

IrTreeIndex::IrTreeIndex(IrTreeOptions options)
    : options_(options),
      stats_emitter_(options.policy == IrInsertionPolicy::kDir ? "DIR-tree"
                                                               : "IR-tree",
                     View(IrTreeSearchStats{})) {
  assert(LeafCapacity() >= 4);
  assert(InternalCapacity() >= 4);
  const std::string label =
      options.policy == IrInsertionPolicy::kDir ? "DIR-tree" : "IR-tree";
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  search_latency_us_[0] =
      reg.GetHistogram("i3_query_latency_us", "End-to-end Search latency.",
                       {{"index", label}, {"semantics", "and"}});
  search_latency_us_[1] =
      reg.GetHistogram("i3_query_latency_us", "End-to-end Search latency.",
                       {{"index", label}, {"semantics", "or"}});
}

Status IrTreeIndex::ValidateDocument(const SpatialDocument& doc) const {
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

uint32_t IrTreeIndex::NewNode(bool leaf) {
  ++node_count_;
  if (!free_nodes_.empty()) {
    const uint32_t id = free_nodes_.back();
    free_nodes_.pop_back();
    nodes_[id] = Node{};
    nodes_[id].leaf = leaf;
    return id;
  }
  nodes_.push_back(Node{});
  nodes_.back().leaf = leaf;
  return static_cast<uint32_t>(nodes_.size() - 1);
}

void IrTreeIndex::FreeNode(uint32_t id) {
  --node_count_;
  nodes_[id] = Node{};
  free_nodes_.push_back(id);
}

void IrTreeIndex::ChargeInvBytesRead(uint64_t bytes) {
  io_stats_.RecordRead(IoCategory::kInvertedFile,
                       (bytes + options_.page_size - 1) /
                           options_.page_size);
}

void IrTreeIndex::ChargeInvBytesWrite(uint64_t bytes) {
  io_stats_.RecordWrite(IoCategory::kInvertedFile,
                        (bytes + options_.page_size - 1) /
                            options_.page_size);
}

uint64_t IrTreeIndex::InvFileBytes(const Node& n) const {
  if (n.leaf) {
    // Leaf inverted file: per-term posting lists of (doc, weight).
    uint64_t bytes = 0;
    for (const auto& [term, plist] : n.postings) {
      bytes += 8 + plist.size() * 8;
    }
    return bytes;
  }
  // Internal inverted file: one pseudo-document *per child entry* (Cong et
  // al.), i.e. each child's subtree vocabulary with its max weights. This
  // per-level replication is what makes the IR-tree's inverted files
  // dominate its footprint in Table 5.
  uint64_t bytes = 0;
  for (uint32_t c : n.children) {
    bytes += 8 + nodes_[c].pseudo.size() * 8;
  }
  return bytes;
}

void IrTreeIndex::AddToLeafText(Node* n, const SpatialDocument& doc) {
  for (const WeightedTerm& wt : doc.terms) {
    n->postings[wt.term].emplace_back(doc.id, wt.weight);
    auto [it, inserted] = n->pseudo.emplace(wt.term, wt.weight);
    if (!inserted && wt.weight > it->second) it->second = wt.weight;
  }
}

void IrTreeIndex::RebuildLeafText(uint32_t id) {
  Node& n = nodes_[id];
  n.pseudo.clear();
  n.postings.clear();
  for (const LeafEntry& e : n.entries) {
    AddToLeafText(&n, docs_.at(e.doc));
  }
  ChargeInvBytesWrite(InvFileBytes(n));
}

void IrTreeIndex::RebuildInternalText(uint32_t id) {
  Node& n = nodes_[id];
  n.pseudo.clear();
  for (uint32_t c : n.children) {
    for (const auto& [term, w] : nodes_[c].pseudo) {
      auto [it, inserted] = n.pseudo.emplace(term, w);
      if (!inserted && w > it->second) it->second = w;
    }
  }
  ChargeInvBytesWrite(InvFileBytes(n));
}

// ------------------------------------------------------------------ insert

Status IrTreeIndex::Insert(const SpatialDocument& doc) {
  I3_RETURN_NOT_OK(ValidateDocument(doc));
  if (docs_.count(doc.id) != 0) {
    return Status::AlreadyExists("document already indexed");
  }
  docs_.emplace(doc.id, doc);
  if (root_ == kNoNode) root_ = NewNode(/*leaf=*/true);
  const uint32_t sibling = InsertRec(root_, doc);
  if (sibling != kNoNode) {
    const uint32_t new_root = NewNode(/*leaf=*/false);
    nodes_[new_root].children = {root_, sibling};
    nodes_[new_root].mbr =
        nodes_[root_].mbr.Union(nodes_[sibling].mbr);
    root_ = new_root;
    RebuildInternalText(new_root);
    ChargeNodeWrite();
  }
  return Status::OK();
}

uint32_t IrTreeIndex::InsertRec(uint32_t id, const SpatialDocument& doc) {
  ChargeNodeRead();
  Node& n = nodes_[id];
  if (n.leaf) {
    n.entries.push_back({doc.location, doc.id});
    n.mbr.Expand(doc.location);
    AddToLeafText(&n, doc);
    // The node's inverted file is a B-tree (as in the paper's
    // implementation): appending the document costs one probe + one leaf
    // write per term -- the per-term maintenance that makes IR-tree
    // construction expensive (Figure 6).
    ChargeInvLookup(doc.terms.size());
    io_stats_.RecordWrite(IoCategory::kInvertedFile, doc.terms.size());
    ChargeNodeWrite();
    if (n.entries.size() > LeafCapacity()) return SplitLeaf(id);
    return kNoNode;
  }

  const size_t pick = ChooseChild(n, doc);
  const uint32_t child = n.children[pick];

  const uint32_t split = InsertRec(child, doc);
  Node& n2 = nodes_[id];  // re-borrow across possible reallocation
  if (split != kNoNode) n2.children.push_back(split);
  n2.mbr.Expand(doc.location);
  // Merge the document's terms into this node's pseudo-document: one
  // B-tree probe per term, plus a write for each entry that changes.
  ChargeInvLookup(doc.terms.size());
  uint64_t changed_terms = 0;
  for (const WeightedTerm& wt : doc.terms) {
    auto [it, inserted] = n2.pseudo.emplace(wt.term, wt.weight);
    if (inserted || wt.weight > it->second) {
      it->second = wt.weight;
      ++changed_terms;
    }
  }
  if (changed_terms > 0) {
    io_stats_.RecordWrite(IoCategory::kInvertedFile, changed_terms);
  }
  ChargeNodeWrite();
  if (n2.children.size() > InternalCapacity()) return SplitInternal(id);
  return kNoNode;
}

size_t IrTreeIndex::ChooseChild(const Node& n,
                                const SpatialDocument& doc) {
  std::vector<Rect> child_mbrs;
  child_mbrs.reserve(n.children.size());
  for (uint32_t c : n.children) child_mbrs.push_back(nodes_[c].mbr);
  if (options_.policy == IrInsertionPolicy::kSpatialOnly) {
    return ChooseSubtree(child_mbrs, Rect::FromPoint(doc.location));
  }

  // DIR-tree: cost = beta * normalized spatial enlargement
  //               + (1 - beta) * textual dissimilarity,
  // where dissimilarity is the weight fraction of the document's keywords
  // not present in the child's pseudo-document. Inspecting every child's
  // pseudo-document is what makes DIR-tree construction expensive.
  ChargeInvLookup(n.children.size());  // one pseudo-document probe each
  double doc_weight = 0.0;
  for (const WeightedTerm& wt : doc.terms) doc_weight += wt.weight;
  const double space_area = std::max(1e-12, options_.space.Area());

  size_t best = 0;
  double best_cost = std::numeric_limits<double>::max();
  for (size_t i = 0; i < n.children.size(); ++i) {
    const double spatial =
        child_mbrs[i].Enlargement(Rect::FromPoint(doc.location)) /
        space_area;
    const Node& child = nodes_[n.children[i]];
    double missing = 0.0;
    for (const WeightedTerm& wt : doc.terms) {
      if (child.pseudo.find(wt.term) == child.pseudo.end()) {
        missing += wt.weight;
      }
    }
    const double textual = doc_weight > 0 ? missing / doc_weight : 0.0;
    const double cost =
        options_.dir_beta * spatial + (1.0 - options_.dir_beta) * textual;
    if (cost < best_cost) {
      best_cost = cost;
      best = i;
    }
  }
  return best;
}

uint32_t IrTreeIndex::SplitLeaf(uint32_t id) {
  std::vector<LeafEntry> entries = std::move(nodes_[id].entries);
  std::vector<Rect> rects;
  rects.reserve(entries.size());
  for (const LeafEntry& e : entries) {
    rects.push_back(Rect::FromPoint(e.point));
  }
  auto [g1, g2] = QuadraticSplit(rects, LeafMinFill());

  // Splitting re-organizes all the textual content of the node -- the
  // expensive step the paper highlights. Charge the read of the old file.
  ChargeInvBytesRead(InvFileBytes(nodes_[id]));

  const uint32_t sib = NewNode(/*leaf=*/true);
  Node& a = nodes_[id];
  Node& b = nodes_[sib];
  a.entries.clear();
  a.mbr = Rect::Empty();
  for (size_t i : g1) {
    a.entries.push_back(entries[i]);
    a.mbr.Expand(entries[i].point);
  }
  for (size_t i : g2) {
    b.entries.push_back(entries[i]);
    b.mbr.Expand(entries[i].point);
  }
  RebuildLeafText(id);
  RebuildLeafText(sib);
  ChargeNodeWrite(2);
  return sib;
}

uint32_t IrTreeIndex::SplitInternal(uint32_t id) {
  std::vector<uint32_t> children = std::move(nodes_[id].children);
  std::vector<Rect> rects;
  rects.reserve(children.size());
  for (uint32_t c : children) rects.push_back(nodes_[c].mbr);
  auto [g1, g2] = QuadraticSplit(rects, InternalMinFill());

  ChargeInvBytesRead(InvFileBytes(nodes_[id]));

  const uint32_t sib = NewNode(/*leaf=*/false);
  Node& a = nodes_[id];
  Node& b = nodes_[sib];
  a.children.clear();
  a.mbr = Rect::Empty();
  for (size_t i : g1) {
    a.children.push_back(children[i]);
    a.mbr.Expand(nodes_[children[i]].mbr);
  }
  for (size_t i : g2) {
    b.children.push_back(children[i]);
    b.mbr.Expand(nodes_[children[i]].mbr);
  }
  RebuildInternalText(id);
  RebuildInternalText(sib);
  ChargeNodeWrite(2);
  return sib;
}

// ------------------------------------------------------------------ delete

Status IrTreeIndex::Delete(const SpatialDocument& doc) {
  I3_RETURN_NOT_OK(ValidateDocument(doc));
  auto it = docs_.find(doc.id);
  if (it == docs_.end()) {
    return Status::NotFound("document not indexed");
  }
  std::vector<DocId> orphans;
  if (root_ == kNoNode || !DeleteRec(root_, it->second, &orphans)) {
    return Status::NotFound("document not found in tree");
  }
  // Keep a copy of orphan documents, then drop the deleted one.
  std::vector<SpatialDocument> to_reinsert;
  to_reinsert.reserve(orphans.size());
  for (DocId d : orphans) to_reinsert.push_back(docs_.at(d));
  docs_.erase(it);

  while (root_ != kNoNode && !nodes_[root_].leaf &&
         nodes_[root_].children.size() == 1) {
    const uint32_t old = root_;
    root_ = nodes_[root_].children[0];
    FreeNode(old);
  }
  if (root_ != kNoNode && nodes_[root_].leaf &&
      nodes_[root_].entries.empty() && to_reinsert.empty()) {
    FreeNode(root_);
    root_ = kNoNode;
  }

  for (const SpatialDocument& d : to_reinsert) {
    docs_.erase(d.id);  // Insert() re-adds it
    I3_RETURN_NOT_OK(Insert(d));
  }
  return Status::OK();
}

bool IrTreeIndex::DeleteRec(uint32_t id, const SpatialDocument& doc,
                            std::vector<DocId>* orphans) {
  ChargeNodeRead();
  Node& n = nodes_[id];
  if (n.leaf) {
    for (auto it = n.entries.begin(); it != n.entries.end(); ++it) {
      if (it->doc == doc.id) {
        n.entries.erase(it);
        n.mbr = Rect::Empty();
        for (const LeafEntry& e : n.entries) n.mbr.Expand(e.point);
        // Remove the document's postings and rebuild the pseudo-document.
        for (const WeightedTerm& wt : doc.terms) {
          auto& plist = n.postings[wt.term];
          plist.erase(std::remove_if(plist.begin(), plist.end(),
                                     [&](const auto& p) {
                                       return p.first == doc.id;
                                     }),
                      plist.end());
          if (plist.empty()) n.postings.erase(wt.term);
        }
        n.pseudo.clear();
        for (const auto& [term, plist] : n.postings) {
          float mx = 0.0f;
          for (const auto& p : plist) mx = std::max(mx, p.second);
          n.pseudo[term] = mx;
        }
        ChargeInvBytesWrite(InvFileBytes(n));
        ChargeNodeWrite();
        return true;
      }
    }
    return false;
  }
  for (size_t i = 0; i < n.children.size(); ++i) {
    const uint32_t child = n.children[i];
    if (!nodes_[child].mbr.Contains(doc.location)) continue;
    if (!DeleteRec(child, doc, orphans)) continue;
    Node& n2 = nodes_[id];
    const Node& cn = nodes_[child];
    const size_t min_fill = cn.leaf ? LeafMinFill() : InternalMinFill();
    const size_t child_size =
        cn.leaf ? cn.entries.size() : cn.children.size();
    if (child_size < min_fill) {
      CollectDocs(child, orphans);
      FreeNode(child);
      n2.children.erase(n2.children.begin() + i);
    }
    n2.mbr = Rect::Empty();
    for (uint32_t c : n2.children) n2.mbr.Expand(nodes_[c].mbr);
    RebuildInternalText(id);
    ChargeNodeWrite();
    return true;
  }
  return false;
}

void IrTreeIndex::CollectDocs(uint32_t id, std::vector<DocId>* out) {
  const Node& n = nodes_[id];
  if (n.leaf) {
    for (const LeafEntry& e : n.entries) out->push_back(e.doc);
    return;
  }
  for (uint32_t c : n.children) {
    CollectDocs(c, out);
    FreeNode(c);
  }
}

// --------------------------------------------------------------- bulk load

Result<std::unique_ptr<IrTreeIndex>> IrTreeIndex::BulkLoad(
    IrTreeOptions options, const std::vector<SpatialDocument>& docs) {
  auto index = std::make_unique<IrTreeIndex>(options);
  for (const SpatialDocument& d : docs) {
    I3_RETURN_NOT_OK(index->ValidateDocument(d));
    if (!index->docs_.emplace(d.id, d).second) {
      return Status::AlreadyExists("duplicate document id in bulk load");
    }
  }
  if (docs.empty()) return index;

  // STR tiling: sort by x, slice, sort each slice by y, pack leaves.
  std::vector<const SpatialDocument*> sorted;
  sorted.reserve(docs.size());
  for (const SpatialDocument& d : docs) sorted.push_back(&d);
  std::sort(sorted.begin(), sorted.end(),
            [](const SpatialDocument* a, const SpatialDocument* b) {
              return a->location.x < b->location.x;
            });
  const size_t cap = index->LeafCapacity();
  const size_t n_leaves = (sorted.size() + cap - 1) / cap;
  const size_t n_slices =
      static_cast<size_t>(std::ceil(std::sqrt(double(n_leaves))));
  const size_t slice_len = (sorted.size() + n_slices - 1) / n_slices;

  std::vector<uint32_t> level;  // current level's node ids
  for (size_t s = 0; s < n_slices; ++s) {
    const size_t lo = s * slice_len;
    const size_t hi = std::min(sorted.size(), lo + slice_len);
    if (lo >= hi) break;
    std::sort(sorted.begin() + lo, sorted.begin() + hi,
              [](const SpatialDocument* a, const SpatialDocument* b) {
                return a->location.y < b->location.y;
              });
    for (size_t i = lo; i < hi; i += cap) {
      const uint32_t leaf = index->NewNode(/*leaf=*/true);
      Node& ln = index->nodes_[leaf];
      for (size_t j = i; j < std::min(hi, i + cap); ++j) {
        ln.entries.push_back({sorted[j]->location, sorted[j]->id});
        ln.mbr.Expand(sorted[j]->location);
        index->AddToLeafText(&ln, *sorted[j]);
      }
      index->ChargeInvBytesWrite(index->InvFileBytes(ln));
      index->ChargeNodeWrite();
      level.push_back(leaf);
    }
  }

  // Build internal levels by packing runs of children.
  const size_t icap = index->InternalCapacity();
  while (level.size() > 1) {
    std::vector<uint32_t> next;
    for (size_t i = 0; i < level.size(); i += icap) {
      const uint32_t parent = index->NewNode(/*leaf=*/false);
      Node& pn = index->nodes_[parent];
      for (size_t j = i; j < std::min(level.size(), i + icap); ++j) {
        pn.children.push_back(level[j]);
        pn.mbr.Expand(index->nodes_[level[j]].mbr);
      }
      index->RebuildInternalText(parent);
      index->ChargeNodeWrite();
      next.push_back(parent);
    }
    level = std::move(next);
  }
  index->root_ = level[0];
  return index;
}

// ------------------------------------------------------------------ search

Result<std::vector<ScoredDoc>> IrTreeIndex::Search(const Query& q_in,
                                                   double alpha) {
  const uint64_t start_ns = obs::NowNanos();
  IrTreeSearchStats stats;
  auto result = SearchImpl(q_in, alpha, &stats);
  search_latency_us_[q_in.semantics == Semantics::kAnd ? 0 : 1]->Record(
      (obs::NowNanos() - start_ns) / 1000);
  const SearchStatsView view = View(stats);
  stats_emitter_.Emit(view);
  if (q_in.control.stats != nullptr) q_in.control.stats->work.Add(view);
  return result;
}

Result<std::vector<ScoredDoc>> IrTreeIndex::SearchImpl(
    const Query& q_in, double alpha, IrTreeSearchStats* stats) {
  Query q = q_in;
  q.Normalize();
  if (q.terms.empty()) {
    return Status::InvalidArgument("query has no keywords");
  }
  if (alpha < 0.0 || alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in [0, 1]");
  }
  const Scorer scorer(options_.space, alpha);
  TopKHeap heap(q.k);
  if (root_ == kNoNode) return heap.Take();

  struct Item {
    double upper;
    uint32_t node;
    bool operator<(const Item& o) const { return upper < o.upper; }
  };

  // Textual upper bound of a node under the query semantics, from its
  // pseudo-document; `ok` is false when the node cannot host a candidate.
  auto textual_upper = [&](const Node& n, bool* ok) {
    double sum = 0.0;
    size_t found = 0;
    for (TermId t : q.terms) {
      auto it = n.pseudo.find(t);
      if (it != n.pseudo.end()) {
        sum += it->second;
        ++found;
      }
    }
    // One B-tree probe of the node's inverted file per query term.
    ChargeInvLookup(q.terms.size());
    if (q.semantics == Semantics::kAnd) {
      *ok = found == q.terms.size();
    } else {
      *ok = found > 0;
    }
    return sum;
  };

  std::priority_queue<Item> pq;
  {
    bool ok = false;
    ChargeNodeRead();
    const double tu = textual_upper(nodes_[root_], &ok);
    if (ok) {
      pq.push({scorer.Combine(scorer.SpatialProximityUpper(
                                  q.location, nodes_[root_].mbr),
                              tu),
               root_});
    }
  }

  while (!pq.empty()) {
    const Item item = pq.top();
    pq.pop();
    ++stats->nodes_popped;
    // Strict: a node whose bound equals the k-th score may hold a tie
    // that wins on the smaller doc id.
    if (item.upper < heap.Threshold()) break;
    const Node& n = nodes_[item.node];

    if (n.leaf) {
      // Fetch the query terms' posting lists from the leaf inverted file.
      std::unordered_map<DocId, std::pair<double, size_t>> partial;
      uint64_t posting_bytes = 0;
      for (TermId t : q.terms) {
        auto it = n.postings.find(t);
        if (it == n.postings.end()) continue;
        posting_bytes += 8 + it->second.size() * 8;
        for (const auto& [doc, w] : it->second) {
          auto& acc = partial[doc];
          acc.first += w;
          acc.second += 1;
        }
      }
      ChargeInvBytesRead(posting_bytes);
      for (const auto& [doc, acc] : partial) {
        if (q.semantics == Semantics::kAnd &&
            acc.second != q.terms.size()) {
          continue;
        }
        const auto& d = docs_.at(doc);
        heap.Offer(doc,
                   scorer.Combine(
                       scorer.SpatialProximity(q.location, d.location),
                       acc.first),
                   d.location);
        ++stats->docs_scored;
      }
      continue;
    }

    for (uint32_t c : n.children) {
      ChargeNodeRead();
      const Node& cn = nodes_[c];
      bool ok = false;
      const double tu = textual_upper(cn, &ok);
      if (!ok) {
        ++stats->nodes_pruned;
        continue;
      }
      const double upper = scorer.Combine(
          scorer.SpatialProximityUpper(q.location, cn.mbr), tu);
      if (upper < heap.Threshold()) {
        ++stats->nodes_pruned;
        continue;
      }
      pq.push({upper, c});
    }
  }
  return heap.Take();
}

// -------------------------------------------------------------------- misc

int IrTreeIndex::Height() const {
  if (root_ == kNoNode) return 0;
  int h = 1;
  uint32_t id = root_;
  while (!nodes_[id].leaf) {
    id = nodes_[id].children[0];
    ++h;
  }
  return h;
}

IndexSizeInfo IrTreeIndex::SizeInfo() const {
  uint64_t inv_bytes = 0;
  for (const Node& n : nodes_) {
    // Freed nodes are default-constructed and contribute nothing. Round
    // each live node's inverted file up to a page (each is a separate file
    // with its own B-tree in the paper's implementation).
    const uint64_t b = InvFileBytes(n);
    if (b > 0) {
      inv_bytes += ((b + options_.page_size - 1) / options_.page_size) *
                   options_.page_size;
    }
  }
  IndexSizeInfo info;
  info.components.push_back(
      {"R-tree", static_cast<uint64_t>(node_count_) * options_.page_size});
  info.components.push_back({"inverted files", inv_bytes});
  return info;
}

Result<uint64_t> IrTreeIndex::CheckInvariants() const {
  if (root_ == kNoNode) {
    return docs_.empty() ? Result<uint64_t>(0)
                         : Result<uint64_t>(Status::Corruption(
                               "empty tree with live documents"));
  }
  uint64_t count = 0;
  std::vector<uint32_t> stack{root_};
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    const Node& n = nodes_[id];
    if (n.leaf) {
      count += n.entries.size();
      for (const LeafEntry& e : n.entries) {
        if (!n.mbr.Contains(e.point)) {
          return Status::Corruption("entry outside leaf MBR");
        }
        const auto& d = docs_.at(e.doc);
        for (const WeightedTerm& wt : d.terms) {
          auto it = n.pseudo.find(wt.term);
          if (it == n.pseudo.end() || it->second < wt.weight) {
            return Status::Corruption("leaf pseudo-document unsound");
          }
        }
      }
      continue;
    }
    for (uint32_t c : n.children) {
      const Node& cn = nodes_[c];
      if (!n.mbr.Contains(cn.mbr)) {
        return Status::Corruption("child MBR outside parent");
      }
      for (const auto& [term, w] : cn.pseudo) {
        auto it = n.pseudo.find(term);
        if (it == n.pseudo.end() || it->second < w) {
          return Status::Corruption("internal pseudo-document unsound");
        }
      }
      stack.push_back(c);
    }
  }
  if (count != docs_.size()) {
    return Status::Corruption("leaf entry count != document count");
  }
  return count;
}

}  // namespace i3
