#include "model/replica_set.h"

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <utility>

#include "storage/snapshot.h"

namespace i3 {

namespace {

/// The set's shard number, in its metric labels, /healthz and snapshot
/// file names: the serving wrapper holds one index, so it is shard 0.
constexpr uint32_t kShard = 0;
/// Snapshot-recovery attempts (each from the then-healthiest source)
/// before RecoverReplica gives up.
constexpr uint32_t kMaxSnapshotAttempts = 3;

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

Result<std::unique_ptr<ReplicaSet>> ReplicaSet::Create(
    const ReplicaFactory& factory, ReplicaOps ops,
    ReplicaSetOptions options) {
  if (!factory) {
    return Status::InvalidArgument("ReplicaSet: factory is required");
  }
  if (options.replication_factor < 1) {
    return Status::InvalidArgument(
        "ReplicaSet: replication_factor must be >= 1");
  }
  std::vector<std::unique_ptr<SpatialKeywordIndex>> replicas;
  replicas.reserve(options.replication_factor);
  for (uint32_t r = 0; r < options.replication_factor; ++r) {
    std::unique_ptr<SpatialKeywordIndex> index = factory(r);
    if (index == nullptr) {
      return Status::InvalidArgument("ReplicaSet: factory returned null for "
                                     "replica " +
                                     std::to_string(r));
    }
    replicas.push_back(std::move(index));
  }
  return std::unique_ptr<ReplicaSet>(
      new ReplicaSet(std::move(replicas), std::move(ops), std::move(options)));
}

ReplicaSet::ReplicaSet(
    std::vector<std::unique_ptr<SpatialKeywordIndex>> replicas,
    ReplicaOps ops, ReplicaSetOptions options)
    : ops_(std::move(ops)),
      options_(std::move(options)),
      space_(replicas[0]->space()) {
  replicas_.reserve(replicas.size());
  for (auto& index : replicas) {
    auto rep = std::make_unique<Replica>();
    rep->index = std::move(index);
    rep->scrub_cursor = ScrubCursor(options_.scrub_pages_per_tick);
    replicas_.push_back(std::move(rep));
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const obs::Labels shard_labels = {{"shard", std::to_string(kShard)}};
  failover_metric_ = reg.GetCounter(
      "i3_failover_total",
      "Reads served by a non-primary replica after the primary failed.",
      shard_labels);
  replica_write_failures_metric_ = reg.GetCounter(
      "i3_replica_write_failures_total",
      "Replica write applies that failed on storage (replica demoted).",
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
        "i3_replica_lag", "Ops this replica is behind the log head.",
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
  std::shared_lock<std::shared_mutex> lock(replicas_[0]->mutex);
  return replicas_[0]->index->Name() + " (replicated x" +
         std::to_string(replicas_.size()) + ")";
}

bool ReplicaSet::IsStorageFailure(const Status& st) {
  // Logical failures (duplicate insert, missing delete, bad argument) are
  // deterministic: every replica applying the same op from the same state
  // reaches the same verdict, so they do not mean divergence. Storage
  // failures mean this one replica's copy can no longer be trusted.
  switch (st.code()) {
    case StatusCode::kIOError:
    case StatusCode::kCorruption:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

Status ReplicaSet::ApplyOp(SpatialKeywordIndex& index, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kInsert:
      return index.Insert(op.doc);
    case Op::Kind::kDelete:
      return index.Delete(op.doc);
    case Op::Kind::kUpdate:
      return index.Update(op.old_doc, op.doc);
  }
  return Status::Internal("ReplicaSet: unknown op kind");
}

Status ReplicaSet::Replicate(Op op) {
  // Let a pending catch-up take op_mutex_ first (see catchup_waiters_).
  while (catchup_waiters_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  std::lock_guard<std::mutex> op_lock(op_mutex_);
  op.seq = log_head_.load(std::memory_order_relaxed) + 1;
  log_head_.store(op.seq, std::memory_order_release);
  log_.push_back(op);
  while (log_.size() > options_.max_log_ops) log_.pop_front();

  Status first_outcome;
  bool applied_anywhere = false;
  Status first_storage_error;
  for (uint32_t r = 0; r < replicas_.size(); ++r) {
    Replica& rep = *replicas_[r];
    if (replica_state(r) != ReplicaState::kHealthy) continue;
    Status st;
    bool applied = false;
    {
      std::unique_lock<std::shared_mutex> lock(rep.mutex);
      st = ApplyOp(*rep.index, op);
      // A logical failure still advances the watermark: replaying this op
      // during catch-up reproduces the same (non-)effect deterministically.
      // The store stays inside the exclusive section: a snapshot reading
      // the watermark under the shared side must never see this op in the
      // image but not in the watermark, or catch-up applies it twice.
      applied = st.ok() || !IsStorageFailure(st);
      if (applied) rep.watermark.store(op.seq, std::memory_order_release);
    }
    if (applied) {
      if (!applied_anywhere) {
        applied_anywhere = true;
        first_outcome = st;
      }
    } else {
      rep.write_failures.fetch_add(1, std::memory_order_relaxed);
      replica_write_failures_metric_->Increment();
      MarkFailed(r, "write apply failed");
      if (first_storage_error.ok()) first_storage_error = st;
    }
  }
  UpdateHealthGauges();
  if (applied_anywhere) return first_outcome;
  if (!first_storage_error.ok()) return first_storage_error;
  return Status::ResourceExhausted(
      "ReplicaSet: no healthy replica to apply write");
}

Status ReplicaSet::Insert(const SpatialDocument& doc) {
  Op op;
  op.kind = Op::Kind::kInsert;
  op.doc = doc;
  return Replicate(std::move(op));
}

Status ReplicaSet::Delete(const SpatialDocument& doc) {
  Op op;
  op.kind = Op::Kind::kDelete;
  op.doc = doc;
  return Replicate(std::move(op));
}

Status ReplicaSet::Update(const SpatialDocument& old_doc,
                          const SpatialDocument& new_doc) {
  Op op;
  op.kind = Op::Kind::kUpdate;
  op.doc = new_doc;
  op.old_doc = old_doc;
  return Replicate(std::move(op));
}

Result<std::vector<ScoredDoc>> ReplicaSet::Search(const Query& q,
                                                  double alpha) {
  Status first_error;
  bool tried = false;
  // The first pass reads replica states without a lock, so it can race a
  // handover -- a recovery flipping replica A healthy, then a kill of
  // replica B -- and see A before and B after: no healthy replica, though
  // one was healthy throughout (KillReplica refuses the last). Both
  // transitions run under op_mutex_; a second pass holding it cannot race.
  for (int pass = 0; pass < 2 && !tried; ++pass) {
    std::unique_lock<std::mutex> op_lock(op_mutex_, std::defer_lock);
    if (pass == 1) op_lock.lock();
    for (uint32_t r = 0; r < replicas_.size(); ++r) {
      Replica& rep = *replicas_[r];
      if (replica_state(r) != ReplicaState::kHealthy) continue;
      tried = true;
      Result<std::vector<ScoredDoc>> res = [&]() {
        std::shared_lock<std::shared_mutex> lock(rep.mutex);
        return rep.index->Search(q, alpha);
      }();
      if (res.ok()) {
        const bool failed_over = (r != 0);
        if (failed_over) {
          failovers_.fetch_add(1, std::memory_order_relaxed);
          failover_metric_->Increment();
        }
        if (q.control.stats != nullptr) {
          q.control.stats->served_replica = r;
          q.control.stats->failed_over = failed_over;
        }
        return res;
      }
      // Any per-replica failure -- storage error, deadline blown mid-read
      // -- is re-issued to the next healthy replica; the first failure is
      // kept in case all of them fall over.
      rep.read_failures.fetch_add(1, std::memory_order_relaxed);
      if (first_error.ok()) first_error = res.status();
    }
  }
  if (!first_error.ok()) return first_error;
  return Status::ResourceExhausted(
      "ReplicaSet: no healthy replica to serve read");
}

uint64_t ReplicaSet::DocumentCount() const {
  for (uint32_t r = 0; r < replicas_.size(); ++r) {
    if (replica_state(r) != ReplicaState::kHealthy) continue;
    std::shared_lock<std::shared_mutex> lock(replicas_[r]->mutex);
    return replicas_[r]->index->DocumentCount();
  }
  return 0;
}

IndexSizeInfo ReplicaSet::SizeInfo() const {
  // Replicas are byte-identical, so the logical footprint is one copy;
  // report the first healthy replica's breakdown (physical bytes are R x).
  for (uint32_t r = 0; r < replicas_.size(); ++r) {
    if (replica_state(r) != ReplicaState::kHealthy) continue;
    std::shared_lock<std::shared_mutex> lock(replicas_[r]->mutex);
    return replicas_[r]->index->SizeInfo();
  }
  return {};
}

IoStats ReplicaSet::io_stats() const {
  IoStats merged;
  for (const auto& rep : replicas_) {
    std::shared_lock<std::shared_mutex> rlock(rep->mutex);
    merged.MergeFrom(rep->index->io_stats());
  }
  return merged;
}

void ReplicaSet::ResetIoStats() {
  for (auto& rep : replicas_) {
    std::unique_lock<std::shared_mutex> lock(rep->mutex);
    rep->index->ResetIoStats();
  }
}

void ReplicaSet::ClearCache() {
  // Not a logged op: dropping cached pages changes no logical content, so
  // replicas stay byte-identical without replaying it during catch-up.
  for (auto& rep : replicas_) {
    std::unique_lock<std::shared_mutex> lock(rep->mutex);
    rep->index->ClearCache();
  }
}

void ReplicaSet::MarkFailed(uint32_t r, const char* /*why*/) {
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
  MarkFailed(r, "killed");
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
    // keep flowing on every replica.
    std::shared_lock<std::shared_mutex> src_lock(src.mutex);
    snap_mark = src.watermark.load(std::memory_order_acquire);
    save_status = ops_.save(*src.index, path);
  }
  if (!save_status.ok()) {
    RemoveSnapshot(path);
    if (IsStorageFailure(save_status)) {
      // The source's own checksum layer rejected its pages mid-snapshot:
      // the source is damaged, not the snapshot machinery. Demote it so
      // the retry picks a different replica.
      MarkFailed(source, "snapshot source corrupt");
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
    std::unique_lock<std::shared_mutex> tgt_lock(tgt.mutex);
    tgt.index = loaded.MoveValue();
    tgt.watermark.store(snap_mark, std::memory_order_release);
  }
  RemoveSnapshot(path);
  return Status::OK();
}

Status ReplicaSet::CatchUp(uint32_t r) {
  Replica& rep = *replicas_[r];
  // Holding op_mutex_ freezes the log head: once the replay below drains
  // the tail, the replica is exactly caught up, and flipping it healthy
  // before releasing the mutex means the very next write includes it.
  catchup_waiters_.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> op_lock(op_mutex_);
  catchup_waiters_.fetch_sub(1, std::memory_order_acq_rel);
  const uint64_t watermark = rep.watermark.load(std::memory_order_acquire);
  const uint64_t head = log_head_.load(std::memory_order_relaxed);
  if (watermark < head) {
    const uint64_t oldest = log_.empty() ? head + 1 : log_.front().seq;
    if (watermark + 1 < oldest) {
      return Status::OutOfRange(
          "ReplicaSet: replication log trimmed past replica watermark");
    }
  }
  std::unique_lock<std::shared_mutex> lock(rep.mutex);
  for (const Op& op : log_) {
    if (op.seq <= watermark) continue;
    Status st = ApplyOp(*rep.index, op);
    if (!st.ok() && IsStorageFailure(st)) {
      rep.write_failures.fetch_add(1, std::memory_order_relaxed);
      return st;
    }
    rep.watermark.store(op.seq, std::memory_order_release);
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
      MarkFailed(r, "no healthy snapshot source");
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
    // OutOfRange means the log was trimmed while the snapshot was being
    // taken -- retake a fresh snapshot (at a newer watermark) and retry.
    last_error = st;
  }
  MarkFailed(r, "snapshot attempts exhausted");
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
      std::shared_lock<std::shared_mutex> peer_lock(p.mutex);
      Result<std::vector<uint8_t>> res = ops_.read_page(*p.index, page);
      if (!res.ok()) {
        if (first_error.ok()) first_error = res.status();
        continue;
      }
      bytes = res.MoveValue();
    }
    std::unique_lock<std::shared_mutex> tgt_lock(rep.mutex);
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
      std::shared_lock<std::shared_mutex> lock(rep.mutex);
      pages = ops_.page_count(*rep.index);
    }
    const std::vector<uint64_t> batch = rep.scrub_cursor.NextBatch(pages);
    for (uint64_t page : batch) {
      Status st;
      {
        std::shared_lock<std::shared_mutex> lock(rep.mutex);
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
  status.log_head = log_head_.load(std::memory_order_acquire);
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
      std::shared_lock<std::shared_mutex> lock(rep.mutex);
      rs.quarantined_pages = ops_.quarantined_pages(*rep.index);
    }
    status.replicas.push_back(rs);
  }
  return status;
}

void ReplicaSet::UpdateHealthGauges() {
  const uint64_t head = log_head_.load(std::memory_order_acquire);
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
