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

void WriteLog::Append(Kind kind, const SpatialDocument& doc) {
  std::unique_lock lock(mutex_);
  if (ring_.empty()) ring_.resize(kCapacity);
  const uint64_t g = generation_.load(std::memory_order_relaxed) + 1;
  Record& r = ring_[g % kCapacity];
  r.generation = g;
  r.kind = kind;
  r.doc = doc;  // reuses the slot's term storage once the ring has wrapped
  generation_.store(g, std::memory_order_release);
}

void WriteLog::RecordEverything() {
  // No record: the slot for this generation keeps an older stamp, which
  // fails any replay that reaches it.
  std::unique_lock lock(mutex_);
  generation_.fetch_add(1, std::memory_order_release);
}

bool WriteLog::Replay(const Query& q, double alpha,
                      const std::vector<ScoredDoc>& results, uint64_t tag,
                      uint64_t* through, uint64_t* replayed) const {
  std::shared_lock lock(mutex_);
  const uint64_t now = generation_.load(std::memory_order_relaxed);
  if (tag > now || now - tag > kCapacity || ring_.empty()) return false;
  const Scorer scorer(space_, alpha);
  for (uint64_t g = tag + 1; g <= now; ++g) {
    const Record& w = ring_[g % kCapacity];
    if (w.generation != g) return false;
    for (const ScoredDoc& r : results) {
      if (r.doc == w.doc.id) return false;
    }
    if (w.kind == Kind::kDelete || !scorer.IsCandidate(q, w.doc)) continue;
    if (results.size() < q.k || results.empty()) return false;
    if (scorer.Score(q, w.doc) >= results.back().score - kTieSlack) {
      return false;
    }
  }
  *through = now;
  *replayed = now - tag;
  return true;
}

}  // namespace i3
