#include "model/replica_set.h"

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <shared_mutex>
#include <sstream>
#include <utility>

#include "common/deadline.h"
#include "obs/trace.h"
#include "storage/snapshot.h"

namespace i3 {

namespace {

/// The set's shard number, in its metric labels, /healthz and snapshot
/// file names: a server serves one set, so it is shard 0.
constexpr uint32_t kShard = 0;
/// Snapshot-recovery attempts (each from the then-healthiest source)
/// before RecoverReplica gives up.
constexpr uint32_t kMaxSnapshotAttempts = 3;
/// The document argument of a write that has none.
const SpatialDocument kNoDoc;

/// Applies one write to one replica's index (the caller holds the
/// replica's exclusive lock).
Status Apply(SpatialKeywordIndex& index, WriteLog::Kind kind,
             const SpatialDocument& doc, const SpatialDocument& old_doc) {
  switch (kind) {
    case WriteLog::Kind::kInsert:
      return index.Insert(doc);
    case WriteLog::Kind::kDelete:
      return index.Delete(doc);
    case WriteLog::Kind::kUpdate:
      return index.Update(old_doc, doc);
    case WriteLog::Kind::kClear:
      index.ClearCache();
      return Status::OK();
  }
  return Status::Internal("ReplicaSet: unknown write kind");
}

}  // namespace

const char* ReplicaStateName(ReplicaState s) {
  switch (s) {
    case ReplicaState::kHealthy:
      return "healthy";
    case ReplicaState::kFailed:
      return "failed";
    case ReplicaState::kRecovering:
      return "recovering";
  }
  return "unknown";
}

ReplicaSet::ReplicaSet(
    std::vector<std::unique_ptr<SpatialKeywordIndex>> replicas,
    ReplicaOps ops, ReplicaSetOptions options)
    : ops_(std::move(ops)),
      options_(std::move(options)),
      space_(replicas.front()->space()),
      write_log_(space_) {
  replicas_.reserve(replicas.size());
  for (auto& index : replicas) {
    auto rep = std::make_unique<Replica>();
    rep->index = std::move(index);
    rep->scrub_cursor = ScrubCursor(options_.scrub_pages_per_tick);
    replicas_.push_back(std::move(rep));
  }
  // The primary keeps the bare "search", so traces where it answered look
  // alike at every replica count.
  stage_names_.push_back("search");
  for (uint32_t r = 1; r < replicas_.size(); ++r) {
    stage_names_.push_back("search.r" + std::to_string(r));
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const obs::Labels shard_labels = {{"shard", std::to_string(kShard)}};
  failover_metric_ = reg.GetCounter(
      "i3_failover_total",
      "Reads served by a non-primary replica after the primary failed.",
      shard_labels);
  replica_write_failures_metric_ = reg.GetCounter(
      "i3_replica_write_failures_total",
      "Replica write applies that failed on storage (the replica is "
      "demoted unless it is the last healthy one).",
      shard_labels);
  replica_recoveries_metric_ = reg.GetCounter(
      "i3_replica_recoveries_total",
      "Replicas rebuilt online via snapshot + log catch-up.", shard_labels);
  scrub_pages_metric_ = reg.GetCounter(
      "i3_scrub_pages_total", "Data pages verified by the scrubber.",
      shard_labels);
  scrub_corrupt_metric_ = reg.GetCounter(
      "i3_scrub_corrupt_total", "Corrupt data pages found by the scrubber.",
      shard_labels);
  scrub_healed_metric_ = reg.GetCounter(
      "i3_scrub_healed_total",
      "Corrupt data pages healed by copying from a healthy replica.",
      shard_labels);
  healthy_replicas_metric_ = reg.GetGauge(
      "i3_replica_healthy", "Healthy replicas of this shard.", shard_labels);
  lag_metrics_.reserve(replicas_.size());
  for (uint32_t r = 0; r < replicas_.size(); ++r) {
    obs::Labels labels = shard_labels;
    labels.emplace_back("replica", std::to_string(r));
    lag_metrics_.push_back(reg.GetGauge(
        "i3_replica_lag", "Writes this replica is behind the write log.",
        std::move(labels)));
  }
  UpdateHealthGauges();

  if (options_.maintenance_interval_ms > 0) {
    maintenance_ = std::thread([this] { MaintenanceLoop(); });
  }
}

ReplicaSet::~ReplicaSet() {
  if (maintenance_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(maintenance_mutex_);
      stopping_ = true;
    }
    maintenance_cv_.notify_all();
    maintenance_.join();
  }
}

std::string ReplicaSet::Name() const {
  std::shared_lock lock(replicas_[0]->mutex);
  const std::string name = replicas_[0]->index->Name();
  if (replicas_.size() == 1) return name;
  return name + " (replicated x" + std::to_string(replicas_.size()) + ")";
}

bool ReplicaSet::IsStorageFailure(const Status& st) {
  // Logical failures (duplicate insert, missing delete, bad argument) are
  // deterministic: every replica applying the same write from the same
  // state reaches the same verdict, so they do not mean divergence.
  // Storage failures mean this one replica's copy can no longer be trusted.
  switch (st.code()) {
    case StatusCode::kIOError:
    case StatusCode::kCorruption:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

Status ReplicaSet::Replicate(WriteLog::Kind kind, const SpatialDocument& doc,
                             const SpatialDocument& old_doc) {
  // Let a pending catch-up take op_mutex_ first (see catchup_waiters_).
  while (catchup_waiters_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  std::lock_guard<std::mutex> op_lock(op_mutex_);
  const uint64_t generation = write_log_.generation() + 1;
  Status outcome = Status::ResourceExhausted(
      "ReplicaSet: no healthy replica to apply write");
  bool kept_anywhere = false;
  for (uint32_t r = 0; r < replicas_.size(); ++r) {
    Replica& rep = *replicas_[r];
    if (replica_state(r) != ReplicaState::kHealthy) continue;
    Status st;
    bool kept = false;
    {
      std::unique_lock lock(rep.mutex);
      st = Apply(*rep.index, kind, doc, old_doc);
      // A logical failure still advances the watermark: replaying this
      // write during catch-up reproduces the same (non-)effect. So does a
      // storage failure on the last healthy replica, which keeps serving
      // as a bare index would. The store stays inside the exclusive
      // section: a snapshot reading the watermark under the shared side
      // must never see this write in the image but not in the watermark,
      // or catch-up applies it twice.
      kept = !IsStorageFailure(st) || PickHealthySource(r) == UINT32_MAX;
      if (kept) rep.watermark.store(generation, std::memory_order_release);
    }
    if (IsStorageFailure(st)) {
      rep.write_failures.fetch_add(1, std::memory_order_relaxed);
      replica_write_failures_metric_->Increment();
    }
    if (!kept) {
      MarkFailed(r);
    } else if (!kept_anywhere) {
      kept_anywhere = true;
      outcome = st;
    }
  }
  // Only the last healthy replica keeps a storage failure, so the
  // outcome is its status then; catch-up never replays such a write.
  WriteLog::Outcome logged = WriteLog::Outcome::kApplied;
  if (!outcome.ok()) {
    logged = IsStorageFailure(outcome) ? WriteLog::Outcome::kStorageFailure
                                       : WriteLog::Outcome::kRejected;
  }
  // Published only now: a search that reads this generation then finds
  // the write on whichever healthy replica serves it.
  write_log_.Append(kind, doc, old_doc, logged);
  UpdateHealthGauges();
  return outcome;
}

Status ReplicaSet::Insert(const SpatialDocument& doc) {
  return Replicate(WriteLog::Kind::kInsert, doc, kNoDoc);
}

Status ReplicaSet::Delete(const SpatialDocument& doc) {
  return Replicate(WriteLog::Kind::kDelete, doc, kNoDoc);
}

Status ReplicaSet::Update(const SpatialDocument& old_doc,
                          const SpatialDocument& new_doc) {
  return Replicate(WriteLog::Kind::kUpdate, new_doc, old_doc);
}

void ReplicaSet::ClearCache() {
  // A request for cold behavior, logged as a write that may have changed
  // anything, so result caches stop serving answers computed before it.
  (void)Replicate(WriteLog::Kind::kClear, kNoDoc, kNoDoc);
}

Result<std::vector<ScoredDoc>> ReplicaSet::Search(const Query& q,
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
      obs::Tracer::Global().StartTrace("ReplicaSet.Search", &sampled);
  if (owns_trace) trace = &sampled;
  // The replica reports into this request's stats and trace and never
  // samples on its own.
  Query inner = q;
  inner.control.trace = trace;
  inner.control.stats = stats;
  inner.control.nested = true;
  stats->served_replica = 0;
  stats->failed_over = false;
  const uint64_t t0 = trace != nullptr ? obs::NowNanos() : 0;

  auto failover = [&]() -> Result<std::vector<ScoredDoc>> {
    Status first_error;
    bool tried = false;
    // The first pass reads replica states without a lock, so it can race
    // a handover -- a recovery flipping replica A healthy, then a kill of
    // replica B -- and see A before and B after: no healthy replica,
    // though one was healthy throughout (KillReplica refuses the last).
    // Both transitions run under op_mutex_; a second pass holding it
    // cannot race.
    for (int pass = 0; pass < 2 && !tried; ++pass) {
      std::unique_lock<std::mutex> op_lock(op_mutex_, std::defer_lock);
      if (pass == 1) op_lock.lock();
      for (uint32_t r = 0; r < replicas_.size(); ++r) {
        Replica& rep = *replicas_[r];
        if (replica_state(r) != ReplicaState::kHealthy) continue;
        tried = true;
        Result<std::vector<ScoredDoc>> res = [&]() {
          std::shared_lock lock(rep.mutex);
          return rep.index->Search(inner, alpha);
        }();
        if (res.ok()) {
          if (r != 0) {
            failovers_.fetch_add(1, std::memory_order_relaxed);
            failover_metric_->Increment();
          }
          stats->served_replica = r;
          stats->failed_over = r != 0;
          return res;
        }
        // Any per-replica failure -- storage error, deadline blown
        // mid-read -- is re-issued to the next healthy replica; the first
        // failure is kept in case all of them fall over.
        rep.read_failures.fetch_add(1, std::memory_order_relaxed);
        if (first_error.ok()) first_error = res.status();
      }
    }
    if (!first_error.ok()) return first_error;
    return Status::ResourceExhausted(
        "ReplicaSet: no healthy replica to serve read");
  };
  Result<std::vector<ScoredDoc>> result = failover();
  if (trace != nullptr) {
    trace->AddStage(stage_names_[stats->served_replica], obs::NowNanos() - t0);
  }
  if (owns_trace) {
    stats->AnnotateTrace(trace);
    if (result.ok()) trace->Annotate("results", result.ValueOrDie().size());
    obs::Tracer::Global().Finish(std::move(sampled));
  }
  return result;
}

uint64_t ReplicaSet::DocumentCount() const {
  for (uint32_t r = 0; r < replicas_.size(); ++r) {
    if (replica_state(r) != ReplicaState::kHealthy) continue;
    std::shared_lock lock(replicas_[r]->mutex);
    return replicas_[r]->index->DocumentCount();
  }
  return 0;
}

IndexSizeInfo ReplicaSet::SizeInfo() const {
  // Replicas are byte-identical, so the logical footprint is one copy;
  // report the first healthy replica's breakdown (physical bytes are R x).
  for (uint32_t r = 0; r < replicas_.size(); ++r) {
    if (replica_state(r) != ReplicaState::kHealthy) continue;
    std::shared_lock lock(replicas_[r]->mutex);
    return replicas_[r]->index->SizeInfo();
  }
  return {};
}

IoStats ReplicaSet::io_stats() const {
  IoStats merged;
  for (const auto& rep : replicas_) {
    std::shared_lock lock(rep->mutex);
    merged.MergeFrom(rep->index->io_stats());
  }
  return merged;
}

void ReplicaSet::ResetIoStats() {
  for (auto& rep : replicas_) {
    std::unique_lock lock(rep->mutex);
    rep->index->ResetIoStats();
  }
}

void ReplicaSet::MarkFailed(uint32_t r) {
  replicas_[r]->state.store(static_cast<int>(ReplicaState::kFailed),
                            std::memory_order_release);
}

Status ReplicaSet::KillReplica(uint32_t r) {
  if (r >= replicas_.size()) {
    return Status::InvalidArgument("ReplicaSet: no replica " +
                                   std::to_string(r));
  }
  // Under op_mutex_ so the healthy count cannot change between the check
  // and the demotion (a concurrent write marking another replica failed
  // could otherwise leave the set with nothing to serve from).
  std::lock_guard<std::mutex> op_lock(op_mutex_);
  uint32_t healthy = 0;
  for (uint32_t i = 0; i < replicas_.size(); ++i) {
    if (replica_state(i) == ReplicaState::kHealthy) ++healthy;
  }
  if (replica_state(r) == ReplicaState::kHealthy && healthy <= 1) {
    return Status::ResourceExhausted(
        "ReplicaSet: refusing to kill the last healthy replica");
  }
  MarkFailed(r);
  UpdateHealthGauges();
  return Status::OK();
}

uint32_t ReplicaSet::PickHealthySource(uint32_t exclude) const {
  for (uint32_t r = 0; r < replicas_.size(); ++r) {
    if (r == exclude) continue;
    if (replica_state(r) == ReplicaState::kHealthy) return r;
  }
  return UINT32_MAX;
}

std::string ReplicaSet::SnapshotPath(uint32_t r) {
  std::error_code ec;
  std::string dir = std::filesystem::temp_directory_path(ec).string();
  if (ec) dir = ".";
  // Shard, replica and counter are only unique within this object, and
  // `this` only within this process: processes started alike (ctest -j, or
  // any sanitizer runtime with a fixed heap layout) reuse the same heap
  // addresses. The process id separates them.
  std::ostringstream name;
  name << dir << "/i3_snap_shard" << kShard << "_r" << r << "_"
       << snapshot_seq_.fetch_add(1, std::memory_order_relaxed) << "_"
       << ::getpid() << "_" << std::hex
       << reinterpret_cast<uintptr_t>(this) << ".i3";
  return name.str();
}

Status ReplicaSet::SnapshotInto(uint32_t r, uint32_t source) {
  Replica& src = *replicas_[source];
  Replica& tgt = *replicas_[r];
  const std::string path = SnapshotPath(r);
  uint64_t snap_mark = 0;
  Status save_status;
  {
    // The shared lock blocks write applies to the source (writers take the
    // replica's exclusive lock), so the watermark and the page contents
    // are frozen together for the duration of the serialization. Reads
    // keep flowing on the other replicas, and on the source until a write
    // queues behind the snapshot (the lock prefers writers).
    std::shared_lock src_lock(src.mutex);
    snap_mark = src.watermark.load(std::memory_order_acquire);
    save_status = ops_.save(*src.index, path);
  }
  if (!save_status.ok()) {
    RemoveSnapshot(path);
    if (IsStorageFailure(save_status)) {
      // The source's own checksum layer rejected its pages mid-snapshot:
      // the source is damaged, not the snapshot machinery. Demote it so
      // the retry picks a different replica.
      MarkFailed(source);
      UpdateHealthGauges();
    }
    return save_status;
  }
  Status st = WriteSnapshotMeta(path, snap_mark);
  if (st.ok()) st = VerifySnapshot(path).status();
  if (!st.ok()) {
    RemoveSnapshot(path);
    return st;
  }
  Result<std::unique_ptr<SpatialKeywordIndex>> loaded = ops_.load(path, r);
  if (!loaded.ok()) {
    RemoveSnapshot(path);
    return loaded.status();
  }
  {
    std::unique_lock tgt_lock(tgt.mutex);
    tgt.index = loaded.MoveValue();
    tgt.watermark.store(snap_mark, std::memory_order_release);
  }
  RemoveSnapshot(path);
  return Status::OK();
}

Status ReplicaSet::CatchUp(uint32_t r) {
  Replica& rep = *replicas_[r];
  // Holding op_mutex_ freezes the log: once the replay below drains it,
  // the replica is exactly caught up, and flipping it healthy before
  // releasing the mutex means the very next write includes it.
  catchup_waiters_.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> op_lock(op_mutex_);
  catchup_waiters_.fetch_sub(1, std::memory_order_acq_rel);
  std::vector<WriteLog::Record> tail;
  if (!write_log_.RecordsAfter(rep.watermark.load(std::memory_order_acquire),
                               &tail)) {
    return Status::OutOfRange(
        "ReplicaSet: write log overwrote writes past the replica watermark");
  }
  std::unique_lock lock(rep.mutex);
  for (const WriteLog::Record& w : tail) {
    // The survivor kept whatever part of this write reached its storage;
    // replaying it here could apply all of it, and the copies would
    // differ.
    if (w.outcome == WriteLog::Outcome::kStorageFailure) {
      return Status::OutOfRange(
          "ReplicaSet: a write past the replica watermark failed on "
          "storage");
    }
    // Rejected writes replay too (a logical failure reaches the same
    // outcome again); a clear changes no document.
    if (w.kind != WriteLog::Kind::kClear) {
      Status st = Apply(*rep.index, w.kind, w.doc, w.old_doc);
      if (IsStorageFailure(st)) {
        rep.write_failures.fetch_add(1, std::memory_order_relaxed);
        return st;
      }
    }
    rep.watermark.store(w.generation, std::memory_order_release);
  }
  rep.state.store(static_cast<int>(ReplicaState::kHealthy),
                  std::memory_order_release);
  return Status::OK();
}

Status ReplicaSet::RecoverReplica(uint32_t r) {
  if (r >= replicas_.size()) {
    return Status::InvalidArgument("ReplicaSet: no replica " +
                                   std::to_string(r));
  }
  if (replica_state(r) == ReplicaState::kHealthy) return Status::OK();
  if (!ops_.save || !ops_.load) {
    return Status::NotSupported(
        "ReplicaSet: recovery requires save/load replica ops");
  }
  Replica& rep = *replicas_[r];
  rep.state.store(static_cast<int>(ReplicaState::kRecovering),
                  std::memory_order_release);
  Status last_error;
  for (uint32_t attempt = 0; attempt < kMaxSnapshotAttempts; ++attempt) {
    const uint32_t source = PickHealthySource(r);
    if (source == UINT32_MAX) {
      MarkFailed(r);
      UpdateHealthGauges();
      return Status::ResourceExhausted(
          "ReplicaSet: no healthy replica to snapshot from");
    }
    Status st = SnapshotInto(r, source);
    if (st.ok()) st = CatchUp(r);
    if (st.ok()) {
      recoveries_.fetch_add(1, std::memory_order_relaxed);
      replica_recoveries_metric_->Increment();
      UpdateHealthGauges();
      return Status::OK();
    }
    // OutOfRange means a write the snapshot lacks cannot be replayed: the
    // log overwrote it, or it failed on the survivor's storage -- retake a
    // fresh snapshot (at a newer watermark).
    last_error = st;
  }
  MarkFailed(r);
  UpdateHealthGauges();
  if (!last_error.ok()) return last_error;
  return Status::ResourceExhausted("ReplicaSet: snapshot attempts exhausted");
}

Status ReplicaSet::RecoverAll() {
  Status first_error;
  for (uint32_t r = 0; r < replicas_.size(); ++r) {
    if (replica_state(r) == ReplicaState::kHealthy) continue;
    Status st = RecoverReplica(r);
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

Status ReplicaSet::HealPage(uint32_t r, uint64_t page) {
  Replica& rep = *replicas_[r];
  Status first_error;
  for (uint32_t peer = 0; peer < replicas_.size(); ++peer) {
    if (peer == r) continue;
    if (replica_state(peer) != ReplicaState::kHealthy) continue;
    // Copy the bytes out under the peer's lock, then release it before
    // locking the target: no thread ever holds two replica locks at once.
    std::vector<uint8_t> bytes;
    {
      Replica& p = *replicas_[peer];
      std::shared_lock peer_lock(p.mutex);
      Result<std::vector<uint8_t>> res = ops_.read_page(*p.index, page);
      if (!res.ok()) {
        if (first_error.ok()) first_error = res.status();
        continue;
      }
      bytes = res.MoveValue();
    }
    std::unique_lock tgt_lock(rep.mutex);
    return ops_.write_page(*rep.index, page, bytes);
  }
  if (!first_error.ok()) return first_error;
  return Status::ResourceExhausted(
      "ReplicaSet: no healthy peer to heal page " + std::to_string(page));
}

Status ReplicaSet::ScrubTick() {
  if (!ops_.page_count || !ops_.verify_page || !ops_.read_page ||
      !ops_.write_page) {
    return Status::NotSupported(
        "ReplicaSet: scrubbing requires the page-level replica ops");
  }
  std::lock_guard<std::mutex> scrub_lock(scrub_mutex_);
  Status first_heal_error;
  for (uint32_t r = 0; r < replicas_.size(); ++r) {
    Replica& rep = *replicas_[r];
    if (replica_state(r) != ReplicaState::kHealthy) continue;
    uint64_t pages = 0;
    {
      std::shared_lock lock(rep.mutex);
      pages = ops_.page_count(*rep.index);
    }
    const std::vector<uint64_t> batch = rep.scrub_cursor.NextBatch(pages);
    for (uint64_t page : batch) {
      Status st;
      {
        std::shared_lock lock(rep.mutex);
        st = ops_.verify_page(*rep.index, page);
      }
      scrub_pages_verified_.fetch_add(1, std::memory_order_relaxed);
      scrub_pages_metric_->Increment();
      if (st.ok()) continue;
      // IOError is transient (device hiccup): the next sweep retries.
      // Corruption means the stored bytes are damaged -- heal in place
      // from a peer before a query trips over the page.
      if (!st.IsCorruption()) continue;
      scrub_corrupt_found_.fetch_add(1, std::memory_order_relaxed);
      scrub_corrupt_metric_->Increment();
      Status heal = HealPage(r, page);
      if (heal.ok()) {
        scrub_pages_healed_.fetch_add(1, std::memory_order_relaxed);
        scrub_healed_metric_->Increment();
      } else if (first_heal_error.ok()) {
        first_heal_error = heal;
      }
    }
  }
  return first_heal_error;
}

ReplicaSetStatus ReplicaSet::GetStatus() const {
  ReplicaSetStatus status;
  status.shard = kShard;
  status.replicated = replicas_.size() > 1;
  status.log_head = write_log_.generation();
  status.scrub_pages_verified =
      scrub_pages_verified_.load(std::memory_order_relaxed);
  status.scrub_corrupt_found =
      scrub_corrupt_found_.load(std::memory_order_relaxed);
  status.scrub_pages_healed =
      scrub_pages_healed_.load(std::memory_order_relaxed);
  status.failovers = failovers_.load(std::memory_order_relaxed);
  status.recoveries = recoveries_.load(std::memory_order_relaxed);
  status.replicas.reserve(replicas_.size());
  for (uint32_t r = 0; r < replicas_.size(); ++r) {
    const Replica& rep = *replicas_[r];
    ReplicaStatus rs;
    rs.state = replica_state(r);
    rs.watermark = rep.watermark.load(std::memory_order_acquire);
    rs.lag = status.log_head > rs.watermark ? status.log_head - rs.watermark
                                            : 0;
    rs.read_failures = rep.read_failures.load(std::memory_order_relaxed);
    rs.write_failures = rep.write_failures.load(std::memory_order_relaxed);
    if (ops_.quarantined_pages) {
      std::shared_lock lock(rep.mutex);
      rs.quarantined_pages = ops_.quarantined_pages(*rep.index);
    }
    status.replicas.push_back(rs);
  }
  return status;
}

void ReplicaSet::UpdateHealthGauges() {
  const uint64_t head = write_log_.generation();
  int64_t healthy = 0;
  for (uint32_t r = 0; r < replicas_.size(); ++r) {
    if (replica_state(r) == ReplicaState::kHealthy) ++healthy;
    const uint64_t wm =
        replicas_[r]->watermark.load(std::memory_order_acquire);
    lag_metrics_[r]->Set(head > wm ? static_cast<int64_t>(head - wm) : 0);
  }
  healthy_replicas_metric_->Set(healthy);
}

void ReplicaSet::MaintenanceLoop() {
  std::unique_lock<std::mutex> lk(maintenance_mutex_);
  const auto interval =
      std::chrono::milliseconds(options_.maintenance_interval_ms);
  while (!stopping_) {
    maintenance_cv_.wait_for(lk, interval, [this] { return stopping_; });
    if (stopping_) break;
    lk.unlock();
    // Best effort: a failed recovery leaves the replica failed and the
    // next tick tries again (the chaos suites assert convergence).
    (void)RecoverAll();
    (void)ScrubTick();
    lk.lock();
  }
}

}  // namespace i3
