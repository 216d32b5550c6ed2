// Unit tests for the replication stack (DESIGN.md §15): the snapshot
// envelope (storage/snapshot.h), the paced scrub cursor (storage/scrub.h),
// and ReplicaSet itself -- write replication with logical-vs-storage
// failure classification, transparent read failover, kill/recover
// lifecycle (catch-up and snapshot paths), and scrub/heal of at-rest
// corruption planted beneath the checksum layer.
//
// The load-bearing invariant everywhere: replicas applying the same ops in
// the same order from the same initial state are byte-identical, so a
// failover answer equals the primary's answer exactly (doc ids AND score
// bits), and healing a page by copying a peer's bytes is sound.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "i3/i3_index.h"
#include "i3/replica_ops.h"
#include "model/replica_set.h"
#include "storage/fault_injection.h"
#include "storage/scrub.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace i3 {
namespace {

using testutil::CorpusOptions;
using testutil::MakeCorpus;

// ---------------------------------------------------------------------------
// Snapshot envelope

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

TEST(SnapshotEnvelopeTest, RoundTripVerifies) {
  const std::string path = TempPath("i3_snapenv_roundtrip.bin");
  WriteFile(path, "the quick brown fox jumps over the lazy dog");
  ASSERT_TRUE(WriteSnapshotMeta(path, /*watermark=*/42).ok());
  auto meta = VerifySnapshot(path);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta.ValueOrDie().watermark, 42u);
  EXPECT_EQ(meta.ValueOrDie().payload_bytes, 43u);
  RemoveSnapshot(path);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".meta"));
}

TEST(SnapshotEnvelopeTest, CorruptPayloadIsRejected) {
  const std::string path = TempPath("i3_snapenv_corrupt.bin");
  WriteFile(path, std::string(256, 'x'));
  ASSERT_TRUE(WriteSnapshotMeta(path, /*watermark=*/7).ok());
  {
    // Flip one payload byte after stamping: the CRC must catch it.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(100);
    f.put('y');
  }
  auto meta = VerifySnapshot(path);
  ASSERT_FALSE(meta.ok());
  EXPECT_TRUE(meta.status().IsCorruption()) << meta.status().ToString();

  // Truncation is also corruption (length mismatch), not a clean read.
  std::filesystem::resize_file(path, 100);
  auto truncated = VerifySnapshot(path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_TRUE(truncated.status().IsCorruption())
      << truncated.status().ToString();
  RemoveSnapshot(path);
}

TEST(SnapshotEnvelopeTest, MissingFilesAreIOErrorAndRemoveIsIdempotent) {
  const std::string path = TempPath("i3_snapenv_missing.bin");
  RemoveSnapshot(path);  // nothing there: must not throw or fail
  auto meta = VerifySnapshot(path);
  ASSERT_FALSE(meta.ok());
  EXPECT_TRUE(meta.status().IsIOError()) << meta.status().ToString();

  // Payload present but meta missing is equally unusable.
  WriteFile(path, "payload without a meta");
  auto no_meta = VerifySnapshot(path);
  ASSERT_FALSE(no_meta.ok());
  EXPECT_TRUE(no_meta.status().IsIOError()) << no_meta.status().ToString();
  RemoveSnapshot(path);
  RemoveSnapshot(path);  // idempotent
}

// ---------------------------------------------------------------------------
// Scrub cursor

TEST(ScrubCursorTest, PacesWrapsAndCountsSweeps) {
  ScrubCursor cursor(4);
  EXPECT_EQ(cursor.NextBatch(0).size(), 0u);  // empty file: no work
  EXPECT_EQ(cursor.sweeps_completed(), 0u);

  // 10 pages at 4/tick: 0-3, 4-7, 8-9 (wrap), 0-3 again.
  EXPECT_EQ(cursor.NextBatch(10), (std::vector<uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(cursor.NextBatch(10), (std::vector<uint64_t>{4, 5, 6, 7}));
  EXPECT_EQ(cursor.NextBatch(10), (std::vector<uint64_t>{8, 9}));
  EXPECT_EQ(cursor.sweeps_completed(), 1u);
  EXPECT_EQ(cursor.position(), 0u);
  EXPECT_EQ(cursor.NextBatch(10), (std::vector<uint64_t>{0, 1, 2, 3}));
}

TEST(ScrubCursorTest, TinyFileIsVerifiedOncePerTick) {
  // One wrap max per tick: a 2-page file yields 2 ids, not pages_per_tick.
  ScrubCursor cursor(8);
  EXPECT_EQ(cursor.NextBatch(2), (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(cursor.sweeps_completed(), 1u);
}

TEST(ScrubCursorTest, ShrunkFileFoldsTheCursorBack) {
  ScrubCursor cursor(4);
  ASSERT_EQ(cursor.NextBatch(10).size(), 4u);  // position now 4
  // File shrank below the cursor: the next tick restarts from 0.
  EXPECT_EQ(cursor.NextBatch(3), (std::vector<uint64_t>{0, 1, 2}));
  EXPECT_GE(cursor.sweeps_completed(), 1u);
}

TEST(ScrubCursorTest, ZeroPaceIsPinnedToOne) {
  ScrubCursor cursor(0);
  EXPECT_EQ(cursor.pages_per_tick(), 1u);
  EXPECT_EQ(cursor.NextBatch(5), (std::vector<uint64_t>{0}));
}

// ---------------------------------------------------------------------------
// ReplicaSet

/// A replica set of I3 indexes, each over its own
/// Checksummed(FaultInjection(InMemory)) stack. The rig keeps pointers to
/// every replica's injector (read-side chaos) and raw in-memory file
/// (writing garbage there bypasses the checksum wrapper -- persistent
/// at-rest corruption that only a heal repairs). The page-file factory
/// re-plants those pointers whenever recovery re-homes a replica onto
/// fresh storage.
struct ReplicaRig {
  std::vector<FaultInjectionPageFile*> injectors;
  std::vector<InMemoryPageFile*> raw;
  std::unique_ptr<ReplicaSet> set;

  I3Options OptionsFor(uint32_t r) {
    I3Options opt;
    opt.space = {0.0, 0.0, 100.0, 100.0};
    opt.page_size = codec::kV2MinPageSize;
    opt.signature_bits = 64;
    opt.page_file_factory = [this, r](size_t page_size) {
      auto inner = std::make_unique<InMemoryPageFile>(page_size);
      raw[r] = inner.get();
      auto file =
          std::make_unique<FaultInjectionPageFile>(std::move(inner));
      injectors[r] = file.get();
      return file;
    };
    return opt;
  }
};

/// `replicas` empty I3 replicas, with the I3 ops unless `ops` is given.
void InitRig(ReplicaRig* rig, uint32_t replicas = 2,
             std::optional<ReplicaOps> ops = std::nullopt) {
  rig->injectors.assign(replicas, nullptr);
  rig->raw.assign(replicas, nullptr);
  std::vector<std::unique_ptr<SpatialKeywordIndex>> indexes;
  for (uint32_t r = 0; r < replicas; ++r) {
    indexes.push_back(std::make_unique<I3Index>(rig->OptionsFor(r)));
  }
  if (!ops) {
    ops = MakeI3ReplicaOps([rig](uint32_t r) { return rig->OptionsFor(r); });
  }
  rig->set = std::make_unique<ReplicaSet>(std::move(indexes), *ops);
  for (auto* f : rig->injectors) ASSERT_NE(f, nullptr);
}

CorpusOptions RigCorpus() {
  CorpusOptions copt;
  copt.num_docs = 150;
  copt.vocab_size = 20;
  return copt;
}

Query HeadTermQuery(uint32_t k) {
  Query q;
  q.location = {50, 50};
  q.terms = {0};  // Zipf head: matches on every replica's every page range
  q.k = k;
  q.semantics = Semantics::kOr;
  return q;
}

void ExpectIdentical(const std::vector<ScoredDoc>& a,
                     const std::vector<ScoredDoc>& b,
                     const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc, b[i].doc) << context << " rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << context << " rank " << i;
  }
}

TEST(ReplicaSetTest, ReplicatedSearchMatchesUnreplicatedIndex) {
  ReplicaRig rig;
  InitRig(&rig);
  I3Options solo_opt;
  solo_opt.space = {0.0, 0.0, 100.0, 100.0};
  solo_opt.page_size = codec::kV2MinPageSize;
  solo_opt.signature_bits = 64;
  I3Index solo(solo_opt);

  const auto docs = MakeCorpus(RigCorpus(), 11);
  for (const auto& d : docs) {
    ASSERT_TRUE(rig.set->Insert(d).ok());
    ASSERT_TRUE(solo.Insert(d).ok());
  }
  EXPECT_EQ(rig.set->DocumentCount(), solo.DocumentCount());

  const Query q = HeadTermQuery(25);
  auto replicated = rig.set->Search(q, 0.5);
  auto direct = solo.Search(q, 0.5);
  ASSERT_TRUE(replicated.ok()) << replicated.status().ToString();
  ASSERT_TRUE(direct.ok());
  ExpectIdentical(replicated.ValueOrDie(), direct.ValueOrDie(),
                  "replicated vs solo");

  // Every replica individually answers identically (byte-identity).
  for (uint32_t r = 0; r < rig.injectors.size(); ++r) {
    auto one = rig.set->replica(r)->Search(q, 0.5);
    ASSERT_TRUE(one.ok());
    ExpectIdentical(one.ValueOrDie(), direct.ValueOrDie(),
                    "replica " + std::to_string(r));
  }
}

TEST(ReplicaSetTest, StatusReportsHealthyCaughtUpReplicas) {
  ReplicaRig rig;
  InitRig(&rig);
  const auto docs = MakeCorpus(RigCorpus(), 21);
  for (const auto& d : docs) ASSERT_TRUE(rig.set->Insert(d).ok());

  const ReplicaSetStatus st = rig.set->GetStatus();
  EXPECT_TRUE(st.replicated);
  EXPECT_EQ(st.log_head, docs.size());
  EXPECT_EQ(st.failovers, 0u);
  EXPECT_EQ(st.recoveries, 0u);
  ASSERT_EQ(st.replicas.size(), 2u);
  for (const ReplicaStatus& r : st.replicas) {
    EXPECT_EQ(r.state, ReplicaState::kHealthy);
    EXPECT_EQ(r.watermark, docs.size());
    EXPECT_EQ(r.lag, 0u);
    EXPECT_EQ(r.quarantined_pages, 0u);
  }
}

TEST(ReplicaSetTest, FailoverServesByteIdenticalResults) {
  ReplicaRig rig;
  InitRig(&rig);
  for (const auto& d : MakeCorpus(RigCorpus(), 31)) {
    ASSERT_TRUE(rig.set->Insert(d).ok());
  }
  const Query q = HeadTermQuery(30);
  auto before = rig.set->Search(q, 0.5);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(rig.set->KillReplica(0).ok());
  EXPECT_EQ(rig.set->replica_state(0), ReplicaState::kFailed);

  QueryStats stats;
  Query counted = q;
  counted.control.stats = &stats;
  auto after = rig.set->Search(counted, 0.5);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(stats.served_replica, 1u);
  EXPECT_TRUE(stats.failed_over);
  ExpectIdentical(after.ValueOrDie(), before.ValueOrDie(), "failover");
  EXPECT_EQ(rig.set->GetStatus().failovers, 1u);
}

TEST(ReplicaSetTest, OrganicReadFailureFailsOverWithoutDemoting) {
  ReplicaRig rig;
  InitRig(&rig);
  for (const auto& d : MakeCorpus(RigCorpus(), 41)) {
    ASSERT_TRUE(rig.set->Insert(d).ok());
  }
  const Query q = HeadTermQuery(30);
  auto before = rig.set->Search(q, 0.5);
  ASSERT_TRUE(before.ok());

  // Primary's device starts failing every read. The failover read retries
  // on replica 1 and still returns the complete, identical answer; the
  // primary is NOT demoted (reads don't diverge state -- the scrubber or
  // an operator decides its fate).
  rig.injectors[0]->set_fail_all(true);
  rig.set->ClearCache();
  QueryStats stats;
  Query counted = q;
  counted.control.stats = &stats;
  auto after = rig.set->Search(counted, 0.5);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(stats.served_replica, 1u);
  EXPECT_TRUE(stats.failed_over);
  ExpectIdentical(after.ValueOrDie(), before.ValueOrDie(), "organic");
  EXPECT_EQ(rig.set->replica_state(0), ReplicaState::kHealthy);
  // Two attempts: the primary's read failed once, then replica 1 answered.
  EXPECT_EQ(rig.set->GetStatus().replicas[0].read_failures, 1u);

  // Both replicas failing is an error, not an empty result.
  rig.injectors[1]->set_fail_all(true);
  rig.set->ClearCache();
  auto none = rig.set->Search(q, 0.5);
  ASSERT_FALSE(none.ok());
  EXPECT_TRUE(none.status().IsIOError()) << none.status().ToString();
}

TEST(ReplicaSetTest, KillingTheLastHealthyReplicaIsRefused) {
  ReplicaRig rig;
  InitRig(&rig);
  ASSERT_TRUE(rig.set->KillReplica(1).ok());
  Status st = rig.set->KillReplica(0);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.code() == StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(rig.set->replica_state(0), ReplicaState::kHealthy);

  Status bad = rig.set->KillReplica(7);
  EXPECT_TRUE(bad.IsInvalidArgument()) << bad.ToString();
}

TEST(ReplicaSetTest, LogicalFailureIsUniformAndDoesNotDemote) {
  ReplicaRig rig;
  InitRig(&rig);
  const auto docs = MakeCorpus(RigCorpus(), 51);
  for (const auto& d : docs) ASSERT_TRUE(rig.set->Insert(d).ok());

  // Deleting a document that was never inserted: a deterministic logical
  // failure every replica reproduces identically.
  SpatialDocument ghost = docs[0];
  ghost.id = 999'999;
  Status dup = rig.set->Delete(ghost);
  ASSERT_FALSE(dup.ok());
  EXPECT_TRUE(dup.IsNotFound()) << dup.ToString();

  // Nobody got demoted, and the op still consumed a sequence number with
  // every watermark advancing past it (replay reproduces the non-effect).
  const ReplicaSetStatus st = rig.set->GetStatus();
  EXPECT_EQ(st.log_head, docs.size() + 1);
  for (const ReplicaStatus& r : st.replicas) {
    EXPECT_EQ(r.state, ReplicaState::kHealthy);
    EXPECT_EQ(r.watermark, docs.size() + 1);
    EXPECT_EQ(r.write_failures, 0u);
  }
}

TEST(ReplicaSetTest, StorageFailureNeverDemotesTheLastHealthyReplica) {
  // Every replica's device fails one insert. Replica 0 fails first, while
  // replica 1 is healthy, so it is demoted. Replica 1 is then the last
  // healthy replica: it returns the error and keeps serving, as a bare
  // index would, its watermark moves past the write, and the log marks
  // the write failed.
  ReplicaRig rig;
  InitRig(&rig);
  const auto docs = MakeCorpus(RigCorpus(), 56);
  for (const auto& d : docs) ASSERT_TRUE(rig.set->Insert(d).ok());

  for (auto* f : rig.injectors) f->set_fail_all(true);
  SpatialDocument extra = docs[0];
  extra.id = 500'000;
  const Status st = rig.set->Insert(extra);
  for (auto* f : rig.injectors) f->Heal();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();

  const ReplicaSetStatus status = rig.set->GetStatus();
  EXPECT_EQ(status.log_head, docs.size() + 1);
  EXPECT_EQ(rig.set->replica_state(0), ReplicaState::kFailed);
  EXPECT_EQ(status.replicas[0].watermark, docs.size());
  EXPECT_EQ(rig.set->replica_state(1), ReplicaState::kHealthy);
  EXPECT_EQ(status.replicas[1].watermark, docs.size() + 1);
  EXPECT_EQ(status.replicas[1].write_failures, 1u);
  std::vector<WriteLog::Record> tail;
  ASSERT_TRUE(rig.set->write_log().RecordsAfter(docs.size(), &tail));
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].outcome, WriteLog::Outcome::kStorageFailure);

  // The survivor serves, and the demoted replica rejoins as its copy.
  const Query q = HeadTermQuery(30);
  QueryStats stats;
  Query counted = q;
  counted.control.stats = &stats;
  ASSERT_TRUE(rig.set->Search(counted, 0.5).ok());
  EXPECT_EQ(stats.served_replica, 1u);
  ASSERT_TRUE(rig.set->RecoverReplica(0).ok());
  auto primary = rig.set->replica(0)->Search(q, 0.5);
  auto survivor = rig.set->replica(1)->Search(q, 0.5);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
  ExpectIdentical(primary.ValueOrDie(), survivor.ValueOrDie(), "rejoined");
}

TEST(ReplicaSetTest, CatchUpNeverReplaysAWriteTheSurvivorFailedOnStorage) {
  // Replica 1 is recovering. After its snapshot is taken and before its
  // catch-up, an insert fails on replica 0's device; replica 0 is the last
  // healthy replica, so it keeps serving with whatever part of the write
  // reached it. Replaying that insert on replica 1 would succeed there and
  // leave the copies different: recovery must take a fresh snapshot whose
  // watermark is past the failed write instead.
  const auto docs = MakeCorpus(RigCorpus(), 58);
  SpatialDocument extra = docs[0];
  extra.id = 500'000;
  // Declared before the rig, whose set holds the hook below.
  int loads = 0;
  Status failed_write;
  ReplicaRig rig;
  ReplicaOps ops =
      MakeI3ReplicaOps([&rig](uint32_t r) { return rig.OptionsFor(r); });
  ops.load = [&, load = ops.load](const std::string& path, uint32_t r) {
    if (++loads == 1) {
      rig.injectors[0]->set_fail_all(true);
      failed_write = rig.set->Insert(extra);
      rig.injectors[0]->Heal();
    }
    return load(path, r);
  };
  InitRig(&rig, 2, ops);
  for (const auto& d : docs) ASSERT_TRUE(rig.set->Insert(d).ok());
  ASSERT_TRUE(rig.set->KillReplica(1).ok());

  ASSERT_TRUE(rig.set->RecoverReplica(1).ok());
  EXPECT_TRUE(failed_write.IsIOError()) << failed_write.ToString();
  EXPECT_EQ(loads, 2);
  EXPECT_EQ(rig.set->replica_state(0), ReplicaState::kHealthy);
  EXPECT_EQ(rig.set->replica_state(1), ReplicaState::kHealthy);
  std::vector<WriteLog::Record> tail;
  ASSERT_TRUE(rig.set->write_log().RecordsAfter(docs.size(), &tail));
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].outcome, WriteLog::Outcome::kStorageFailure);

  Query q;
  q.location = extra.location;
  for (const WeightedTerm& t : extra.terms) q.terms.push_back(t.term);
  q.k = 10;
  q.semantics = Semantics::kOr;
  auto primary = rig.set->replica(0)->Search(q, 0.5);
  auto rejoined = rig.set->replica(1)->Search(q, 0.5);
  ASSERT_TRUE(primary.ok()) << primary.status().ToString();
  ASSERT_TRUE(rejoined.ok()) << rejoined.status().ToString();
  ExpectIdentical(rejoined.ValueOrDie(), primary.ValueOrDie(),
                  "after a failed write in the catch-up window");
}

TEST(ReplicaSetTest, CatchUpRecoversAKilledReplicaFromTheLog) {
  ReplicaRig rig;
  InitRig(&rig);
  const CorpusOptions copt = RigCorpus();
  const auto docs = MakeCorpus(copt, 61);
  for (const auto& d : docs) ASSERT_TRUE(rig.set->Insert(d).ok());

  ASSERT_TRUE(rig.set->KillReplica(1).ok());

  // Writes keep landing while replica 1 is down (primary-only).
  CorpusOptions more = copt;
  more.first_id = 10'000;
  more.num_docs = 40;
  const auto extra = MakeCorpus(more, 62);
  for (const auto& d : extra) ASSERT_TRUE(rig.set->Insert(d).ok());

  ASSERT_TRUE(rig.set->RecoverReplica(1).ok());
  EXPECT_EQ(rig.set->replica_state(1), ReplicaState::kHealthy);
  EXPECT_EQ(rig.set->GetStatus().recoveries, 1u);
  EXPECT_EQ(rig.set->GetStatus().replicas[1].lag, 0u);

  // The rejoined replica answers byte-identically to the primary.
  const Query q = HeadTermQuery(40);
  auto primary = rig.set->replica(0)->Search(q, 0.5);
  auto rejoined = rig.set->replica(1)->Search(q, 0.5);
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(rejoined.ok()) << rejoined.status().ToString();
  ExpectIdentical(rejoined.ValueOrDie(), primary.ValueOrDie(), "rejoined");

  // Recovering an already-healthy replica is a no-op, not an error.
  EXPECT_TRUE(rig.set->RecoverReplica(1).ok());
  EXPECT_EQ(rig.set->GetStatus().recoveries, 1u);
}

TEST(ReplicaSetTest, SnapshotRecoveryWhenTheLogWasTrimmed) {
  ReplicaRig rig;
  InitRig(&rig);
  const CorpusOptions copt = RigCorpus();
  const auto docs = MakeCorpus(copt, 71);
  for (const auto& d : docs) ASSERT_TRUE(rig.set->Insert(d).ok());

  ASSERT_TRUE(rig.set->KillReplica(1).ok());
  CorpusOptions more = copt;
  more.first_id = 20'000;
  // More writes than the log holds: catch-up alone cannot work.
  more.num_docs = WriteLog::kCapacity + 50;
  for (const auto& d : MakeCorpus(more, 72)) {
    ASSERT_TRUE(rig.set->Insert(d).ok());
  }

  ASSERT_TRUE(rig.set->RecoverReplica(1).ok());
  EXPECT_EQ(rig.set->replica_state(1), ReplicaState::kHealthy);

  const Query q = HeadTermQuery(40);
  auto primary = rig.set->replica(0)->Search(q, 0.5);
  auto rejoined = rig.set->replica(1)->Search(q, 0.5);
  ASSERT_TRUE(primary.ok());
  ASSERT_TRUE(rejoined.ok()) << rejoined.status().ToString();
  ExpectIdentical(rejoined.ValueOrDie(), primary.ValueOrDie(), "snapshot");

  // Serving never stopped: the set as a whole still answers.
  EXPECT_TRUE(rig.set->Search(q, 0.5).ok());
}

TEST(ReplicaSetTest, RecoveryWithoutAHealthySourceFailsCleanly) {
  ReplicaRig rig;
  InitRig(&rig);
  for (const auto& d : MakeCorpus(RigCorpus(), 81)) {
    ASSERT_TRUE(rig.set->Insert(d).ok());
  }
  ASSERT_TRUE(rig.set->KillReplica(1).ok());
  // The only candidate source fails its device: SaveTo reads hit the
  // checksum layer's Corruption, the source is demoted, and recovery runs
  // out of sources -- a clean ResourceExhausted, never a corrupt install.
  rig.injectors[0]->set_fail_all(true);
  rig.set->ClearCache();
  Status st = rig.set->RecoverReplica(1);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.code() == StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_NE(rig.set->replica_state(1), ReplicaState::kHealthy);
}

/// Runs full scrub sweeps until every page of every replica was visited
/// at least once (bounded by a generous tick budget).
void ScrubFullSweep(ReplicaSet* set) {
  for (int i = 0; i < 512; ++i) {
    Status st = set->ScrubTick();
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
}

TEST(ReplicaSetTest, ScrubDetectsAndHealsAtRestCorruption) {
  ReplicaRig rig;
  InitRig(&rig);
  for (const auto& d : MakeCorpus(RigCorpus(), 91)) {
    ASSERT_TRUE(rig.set->Insert(d).ok());
  }
  const Query q = HeadTermQuery(30);
  auto before = rig.set->replica(0)->Search(q, 0.5);
  ASSERT_TRUE(before.ok());

  // Garbage written straight to replica 1's raw in-memory file, beneath
  // the checksum wrapper: at-rest damage that persists until overwritten.
  auto* i3 = dynamic_cast<I3Index*>(rig.set->replica(1));
  ASSERT_NE(i3, nullptr);
  const uint64_t pages = i3->DataPageCount();
  ASSERT_GT(pages, 2u);
  const uint64_t victim = pages / 2;
  const size_t physical = rig.raw[1]->page_size();
  std::vector<uint8_t> garbage(physical, 0xFF);
  ASSERT_TRUE(rig.raw[1]
                  ->WritePage(victim, garbage.data(), IoCategory::kOther)
                  .ok());
  i3->ClearCache();
  EXPECT_TRUE(i3->VerifyDataPage(victim).IsCorruption());

  ScrubFullSweep(rig.set.get());

  const ReplicaSetStatus st = rig.set->GetStatus();
  EXPECT_GE(st.scrub_corrupt_found, 1u);
  EXPECT_GE(st.scrub_pages_healed, 1u);
  EXPECT_GT(st.scrub_pages_verified, 0u);

  // Healed in place from the peer: the page verifies, nothing is
  // quarantined, and replica 1 answers byte-identically again.
  EXPECT_TRUE(i3->VerifyDataPage(victim).ok());
  EXPECT_EQ(st.replicas[1].quarantined_pages, 0u);
  auto after = rig.set->replica(1)->Search(q, 0.5);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectIdentical(after.ValueOrDie(), before.ValueOrDie(), "healed");
}

TEST(ReplicaSetTest, SingleReplicaSetScrubsButCannotHeal) {
  ReplicaRig rig;
  InitRig(&rig, /*replicas=*/1);
  for (const auto& d : MakeCorpus(RigCorpus(), 101)) {
    ASSERT_TRUE(rig.set->Insert(d).ok());
  }
  auto* i3 = dynamic_cast<I3Index*>(rig.set->replica(0));
  ASSERT_NE(i3, nullptr);
  const uint64_t victim = i3->DataPageCount() / 2;
  std::vector<uint8_t> garbage(rig.raw[0]->page_size(), 0xAB);
  ASSERT_TRUE(rig.raw[0]
                  ->WritePage(victim, garbage.data(), IoCategory::kOther)
                  .ok());
  i3->ClearCache();

  // Detection still works; with no peer the heal fails cleanly
  // (ResourceExhausted surfaces from the tick) and the page stays
  // damaged rather than faking a repair.
  bool heal_refused = false;
  for (int i = 0; i < 64; ++i) {
    Status st = rig.set->ScrubTick();
    if (!st.ok()) {
      EXPECT_TRUE(st.code() == StatusCode::kResourceExhausted)
          << st.ToString();
      heal_refused = true;
    }
  }
  EXPECT_TRUE(heal_refused);
  const ReplicaSetStatus st = rig.set->GetStatus();
  EXPECT_GE(st.scrub_corrupt_found, 1u);
  EXPECT_EQ(st.scrub_pages_healed, 0u);
  EXPECT_FALSE(st.replicated);
  EXPECT_TRUE(i3->VerifyDataPage(victim).IsCorruption());
}

TEST(ReplicaSetTest, MissingOpsReportNotSupported) {
  ReplicaRig rig;
  // No hooks: recovery and scrubbing are unavailable.
  InitRig(&rig, /*replicas=*/2, ReplicaOps{});
  ReplicaSet* set = rig.set.get();
  for (const auto& d : MakeCorpus(RigCorpus(), 111)) {
    ASSERT_TRUE(set->Insert(d).ok());
  }
  ASSERT_TRUE(set->KillReplica(1).ok());
  EXPECT_TRUE(set->RecoverReplica(1).code() == StatusCode::kNotSupported);
  EXPECT_TRUE(set->ScrubTick().code() == StatusCode::kNotSupported);
  // The set still serves from what's left.
  EXPECT_TRUE(set->Search(HeadTermQuery(10), 0.5).ok());
}

}  // namespace
}  // namespace i3
