#include "model/sharded_index.h"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "common/deadline.h"
#include "obs/trace.h"

namespace i3 {

namespace {

std::unique_ptr<SpatialKeywordIndex> OnlyIndex(
    std::vector<std::unique_ptr<SpatialKeywordIndex>> shards) {
  assert(shards.size() == 1);
  return std::move(shards[0]);
}

}  // namespace

ShardedIndex::ShardedIndex(
    std::vector<std::unique_ptr<SpatialKeywordIndex>> shards)
    : index_(OnlyIndex(std::move(shards))), write_log_(index_->space()) {
  // The primary keeps the bare "search", so unreplicated traces and
  // traces where the primary answered look alike.
  const ReplicaSet* set = index_->AsReplicaSet();
  const uint32_t replicas = set != nullptr ? set->replication_factor() : 1;
  stage_names_.push_back("search");
  for (uint32_t r = 1; r < replicas; ++r) {
    stage_names_.push_back("search.r" + std::to_string(r));
  }
}

std::string ShardedIndex::Name() const { return index_->Name(); }

// Every write is logged under the exclusive lock, after the index applied
// it: a search that reads generation g before it takes the shared lock
// then sees writes 1..g, so a result tagged g is exact as of a state that
// includes them (write_log.h). A failed write may have touched pages
// before it erred, so it logs "anything may have changed".
Status ShardedIndex::Insert(const SpatialDocument& doc) {
  std::unique_lock lock(mutex_);
  const Status st = index_->Insert(doc);
  if (st.ok()) {
    write_log_.RecordInsert(doc);
  } else {
    write_log_.RecordEverything();
  }
  return st;
}

Status ShardedIndex::Delete(const SpatialDocument& doc) {
  std::unique_lock lock(mutex_);
  const Status st = index_->Delete(doc);
  if (st.ok()) {
    write_log_.RecordDelete(doc);
  } else {
    write_log_.RecordEverything();
  }
  return st;
}

Status ShardedIndex::Update(const SpatialDocument& old_doc,
                            const SpatialDocument& new_doc) {
  std::unique_lock lock(mutex_);
  Status st = index_->Delete(old_doc);
  if (st.ok()) {
    write_log_.RecordDelete(old_doc);
    st = index_->Insert(new_doc);
  }
  if (st.ok()) {
    write_log_.RecordInsert(new_doc);
  } else {
    write_log_.RecordEverything();
  }
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

  // A ReplicaSet writes the replica that answered; any other index leaves
  // the primary's zero.
  stats->served_replica = 0;
  stats->failed_over = false;

  const uint64_t t0 = trace != nullptr ? obs::NowNanos() : 0;
  std::shared_lock lock(mutex_);
  // A replicated index handles its own retry: a failed (or deadline-blown)
  // primary read is re-issued to a healthy follower, so an error here
  // means every replica failed.
  Result<std::vector<ScoredDoc>> result = index_->Search(inner, alpha);
  lock.unlock();
  if (trace != nullptr) {
    const size_t r =
        std::min<size_t>(stats->served_replica, stage_names_.size() - 1);
    trace->AddStage(stage_names_[r], obs::NowNanos() - t0);
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
  // ClearCache is a request for cold behavior: logged as "anything may
  // have changed", so result caches stop serving answers computed before
  // the clear as well.
  std::unique_lock lock(mutex_);
  index_->ClearCache();
  write_log_.RecordEverything();
}

}  // namespace i3
