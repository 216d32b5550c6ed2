#include "model/sharded_index.h"

#include <cassert>
#include <utility>

#include "common/deadline.h"
#include "obs/trace.h"

namespace i3 {

ShardedIndex::ShardedIndex(
    std::vector<std::unique_ptr<SpatialKeywordIndex>> shards) {
  assert(shards.size() == 1);
  index_ = std::move(shards[0]);
  replica_set_ = index_->AsReplicaSet();
  // The primary keeps the bare "search", so unreplicated traces and
  // traces where the primary answered look alike.
  const uint32_t replicas =
      replica_set_ != nullptr ? replica_set_->replication_factor() : 1;
  stage_names_.push_back("search");
  for (uint32_t r = 1; r < replicas; ++r) {
    stage_names_.push_back("search.r" + std::to_string(r));
  }
}

std::string ShardedIndex::Name() const { return index_->Name(); }

Status ShardedIndex::Insert(const SpatialDocument& doc) {
  std::unique_lock lock(mutex_);
  const Status st = index_->Insert(doc);
  lock.unlock();
  // Bumped *after* the mutation: a result cached under a generation
  // captured before its search began is then stale the moment any write
  // that could have raced that search completes. (Bumping before the
  // write would let a search started in between carry the new generation
  // while reading pre-mutation pages.) Failed writes bump too -- they may
  // have touched pages before erroring.
  Bump();
  return st;
}

Status ShardedIndex::Delete(const SpatialDocument& doc) {
  std::unique_lock lock(mutex_);
  const Status st = index_->Delete(doc);
  lock.unlock();
  Bump();  // see Insert
  return st;
}

Status ShardedIndex::Update(const SpatialDocument& old_doc,
                            const SpatialDocument& new_doc) {
  std::unique_lock lock(mutex_);
  Status st = index_->Delete(old_doc);
  if (st.ok()) st = index_->Insert(new_doc);
  lock.unlock();
  Bump();  // see Insert
  return st;
}

Result<std::vector<ScoredDoc>> ShardedIndex::Search(const Query& q,
                                                    double alpha) {
  // IR-tree and S2I do not check deadlines themselves, so a request that
  // waited out its budget must not reach them.
  if (DeadlineTimer::AtSteadyNanos(q.control.deadline_ns).Expired()) {
    return Status::DeadlineExceeded("query deadline exceeded");
  }
  QueryStats own_stats;
  QueryStats* stats =
      q.control.stats != nullptr ? q.control.stats : &own_stats;
  // A caller-supplied span sink wins over sampling (see I3Index::Search).
  obs::QueryTrace* trace = q.control.trace;
  obs::QueryTrace sampled;
  const bool owns_trace =
      trace == nullptr && !q.control.nested &&
      obs::Tracer::Global().StartTrace("Sharded.Search", &sampled);
  if (owns_trace) trace = &sampled;
  // The index reports into this request's stats and trace and never
  // samples on its own.
  Query inner = q;
  inner.control.trace = trace;
  inner.control.stats = stats;
  inner.control.nested = true;

  const uint64_t t0 = trace != nullptr ? obs::NowNanos() : 0;
  ReplicaSearchReport report;
  std::shared_lock lock(mutex_);
  // A replicated index handles its own retry: a failed (or deadline-blown)
  // primary read is re-issued to a healthy follower, so an error here
  // means every replica failed.
  Result<std::vector<ScoredDoc>> result =
      replica_set_ != nullptr
          ? replica_set_->SearchFailover(inner, alpha, &report)
          : index_->Search(inner, alpha);
  lock.unlock();
  if (trace != nullptr) {
    const size_t r = report.served_replica < stage_names_.size()
                         ? report.served_replica
                         : stage_names_.size() - 1;
    trace->AddStage(stage_names_[r], obs::NowNanos() - t0);
  }
  if (result.ok()) {
    stats->served_replica = report.served_replica;
    stats->failed_over = report.failed_over;
  }
  if (owns_trace) {
    stats->AnnotateTrace(trace);
    if (result.ok()) trace->Annotate("results", result.ValueOrDie().size());
    obs::Tracer::Global().Finish(std::move(sampled));
  }
  return result;
}

uint64_t ShardedIndex::DocumentCount() const {
  std::shared_lock lock(mutex_);
  return index_->DocumentCount();
}

IndexSizeInfo ShardedIndex::SizeInfo() const {
  std::shared_lock lock(mutex_);
  return index_->SizeInfo();
}

IoStats ShardedIndex::io_stats() const {
  std::shared_lock lock(mutex_);
  return index_->io_stats();
}

void ShardedIndex::ResetIoStats() {
  std::unique_lock lock(mutex_);
  index_->ResetIoStats();
}

void ShardedIndex::ClearCache() {
  {
    std::unique_lock lock(mutex_);
    index_->ClearCache();
  }
  // ClearCache is a request for cold behavior: bump the generation so
  // result caches keyed on it (net/result_cache.h) stop serving answers
  // computed before the clear as well.
  Bump();
}

}  // namespace i3
