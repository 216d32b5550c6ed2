#include "model/write_log.h"

#include <mutex>
#include <shared_mutex>

#include "model/scorer.h"

namespace i3 {

namespace {

/// Scores this close to the k-th count as ties. I3, IR-tree and the
/// oracle add a document's weights in Scorer::TextualScore's term order,
/// so their scores match the scorer's bit for bit; S2I adds them in the
/// order its sources emit, which may round an ulp away.
constexpr double kTieSlack = 1e-9;

}  // namespace

void WriteLog::Append(Kind kind, const SpatialDocument& doc,
                      const SpatialDocument& old_doc, Outcome outcome) {
  std::unique_lock lock(mutex_);
  if (ring_.empty()) ring_.resize(kCapacity);
  const uint64_t g = generation_.load(std::memory_order_relaxed) + 1;
  Record& r = ring_[g % kCapacity];
  r.generation = g;
  r.kind = kind;
  r.outcome = outcome;
  // Assignments reuse the slot's term storage once the ring has wrapped.
  if (kind != Kind::kClear) r.doc = doc;
  if (kind == Kind::kUpdate) r.old_doc = old_doc;
  generation_.store(g, std::memory_order_release);
}

bool WriteLog::RecordsAfter(uint64_t after, std::vector<Record>* out) const {
  std::shared_lock lock(mutex_);
  const uint64_t now = generation_.load(std::memory_order_relaxed);
  out->clear();
  if (after > now || now - after > kCapacity) return false;
  for (uint64_t g = after + 1; g <= now; ++g) {
    const Record& r = ring_[g % kCapacity];
    if (r.generation != g) return false;
    out->push_back(r);
  }
  return true;
}

bool WriteLog::Replay(const Query& q, double alpha,
                      const std::vector<ScoredDoc>& results, uint64_t tag,
                      uint64_t* through, uint64_t* replayed) const {
  std::shared_lock lock(mutex_);
  const uint64_t now = generation_.load(std::memory_order_relaxed);
  if (tag > now || now - tag > kCapacity) return false;
  const Scorer scorer(space_, alpha);
  // Whether deleting (or else inserting) `doc` leaves `results` exact.
  auto keeps = [&](const SpatialDocument& doc, bool deleted) {
    for (const ScoredDoc& r : results) {
      if (r.doc == doc.id) return false;
    }
    if (deleted || !scorer.IsCandidate(q, doc)) return true;
    if (results.size() < q.k || results.empty()) return false;
    return scorer.Score(q, doc) < results.back().score - kTieSlack;
  };
  for (uint64_t g = tag + 1; g <= now; ++g) {
    const Record& w = ring_[g % kCapacity];
    if (w.generation != g || w.outcome != Outcome::kApplied ||
        w.kind == Kind::kClear) {
      return false;
    }
    if (w.kind == Kind::kUpdate && !keeps(w.old_doc, /*deleted=*/true)) {
      return false;
    }
    if (!keeps(w.doc, w.kind == Kind::kDelete)) return false;
  }
  *through = now;
  *replayed = now - tag;
  return true;
}

}  // namespace i3
