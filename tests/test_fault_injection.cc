// Failure-injection tests: every storage fault must surface as a clean
// Status. After the device heals, the index must still be usable, and any
// damage from a torn multi-page operation must be visible to the invariant
// checker rather than silently corrupting query results.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "i3/i3_index.h"
#include "storage/fault_injection.h"
#include "test_util.h"

namespace i3 {
namespace {

using testutil::CorpusOptions;
using testutil::MakeCorpus;

struct Harness {
  FaultInjectionPageFile* injector = nullptr;
  std::unique_ptr<I3Index> index;
};

Harness MakeHarness() {
  Harness h;
  I3Options opt;
  opt.space = {0.0, 0.0, 100.0, 100.0};
  opt.page_size = codec::kV2MinPageSize;
  opt.signature_bits = 64;
  opt.page_file_factory = [&h](size_t page_size) {
    auto file = std::make_unique<FaultInjectionPageFile>(
        std::make_unique<InMemoryPageFile>(page_size));
    h.injector = file.get();
    return file;
  };
  h.index = std::make_unique<I3Index>(opt);
  return h;
}

TEST(FaultInjectionTest, WrapperFailsOnCommand) {
  FaultInjectionPageFile file(std::make_unique<InMemoryPageFile>(256));
  ASSERT_TRUE(file.AllocatePage().ok());
  std::vector<uint8_t> buf(256, 0);
  ASSERT_TRUE(file.ReadPage(0, buf.data(), IoCategory::kOther).ok());
  file.set_fail_all(true);
  EXPECT_TRUE(file.ReadPage(0, buf.data(), IoCategory::kOther).IsIOError());
  EXPECT_TRUE(
      file.WritePage(0, buf.data(), IoCategory::kOther).IsIOError());
  EXPECT_TRUE(file.AllocatePage().status().IsIOError());
  file.Heal();
  EXPECT_TRUE(file.ReadPage(0, buf.data(), IoCategory::kOther).ok());
}

TEST(FaultInjectionTest, InsertFailuresReturnStatus) {
  Harness h = MakeHarness();
  CorpusOptions copt;
  copt.num_docs = 50;
  auto docs = MakeCorpus(copt, 1);
  for (size_t i = 0; i < 25; ++i) {
    ASSERT_TRUE(h.index->Insert(docs[i]).ok());
  }
  h.injector->set_fail_all(true);
  // Every subsequent insert fails cleanly -- no crash, no silent success.
  for (size_t i = 25; i < 30; ++i) {
    EXPECT_TRUE(h.index->Insert(docs[i]).IsIOError()) << i;
  }
  h.injector->Heal();
  // The device healed: fresh documents insert fine again.
  for (size_t i = 30; i < 50; ++i) {
    EXPECT_TRUE(h.index->Insert(docs[i]).ok()) << i;
  }
}

TEST(FaultInjectionTest, SearchFailuresReturnStatus) {
  Harness h = MakeHarness();
  CorpusOptions copt;
  copt.num_docs = 200;
  for (const auto& d : MakeCorpus(copt, 2)) {
    ASSERT_TRUE(h.index->Insert(d).ok());
  }
  Query q;
  q.location = {50, 50};
  q.terms = {0, 1};
  q.k = 10;
  q.semantics = Semantics::kOr;
  ASSERT_TRUE(h.index->Search(q, 0.5).ok());
  h.injector->set_fail_all(true);
  h.index->ClearCache();  // force the search to touch the broken device
  EXPECT_TRUE(h.index->Search(q, 0.5).status().IsIOError());
  h.injector->Heal();
  EXPECT_TRUE(h.index->Search(q, 0.5).ok());
}

TEST(FaultInjectionTest, EveryFaultPointIsClean) {
  // Sweep the fault point across the whole build: at every prefix of
  // successful I/Os, the failing operation must return a Status (never
  // crash), and a healed index must answer queries again. Mid-operation
  // faults may legitimately leave a torn multi-page structure behind
  // (there is no WAL -- the paper's design point is cheap in-place
  // updates), so we only demand clean reporting + continued liveness.
  CorpusOptions copt;
  copt.num_docs = 40;
  copt.vocab_size = 8;
  auto docs = MakeCorpus(copt, 3);

  for (uint64_t fault_at = 0; fault_at < 400; fault_at += 7) {
    Harness h = MakeHarness();
    h.injector->FailAfter(fault_at);
    bool failed = false;
    for (const auto& d : docs) {
      auto st = h.index->Insert(d);
      if (!st.ok()) {
        EXPECT_TRUE(st.IsIOError()) << st.ToString();
        failed = true;
        break;
      }
    }
    h.injector->Heal();
    if (!failed) continue;  // fault point beyond this workload
    // Still alive: queries run (possibly with partial data).
    Query q;
    q.location = {50, 50};
    q.terms = {0};
    q.k = 5;
    q.semantics = Semantics::kOr;
    auto res = h.index->Search(q, 0.5);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
  }
}

TEST(FaultInjectionTest, DeleteFailuresReturnStatus) {
  Harness h = MakeHarness();
  CorpusOptions copt;
  copt.num_docs = 100;
  auto docs = MakeCorpus(copt, 4);
  for (const auto& d : docs) ASSERT_TRUE(h.index->Insert(d).ok());
  h.injector->set_fail_all(true);
  EXPECT_TRUE(h.index->Delete(docs[0]).IsIOError());
  h.injector->Heal();
  EXPECT_TRUE(h.index->Delete(docs[1]).ok());
}

TEST(FaultInjectorTest, ProfileParsingRoundTrips) {
  auto p = FaultProfile::Parse(
      "seed=7,read_error=0.25,write_error=0.5,corrupt=0.125,spike=0.01,"
      "spike_us=150,fail_after=9,schedule=0:read_error/3:corrupt/5:spike");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const FaultProfile& prof = p.ValueOrDie();
  EXPECT_EQ(prof.seed, 7u);
  EXPECT_EQ(prof.read_error_rate, 0.25);
  EXPECT_EQ(prof.write_error_rate, 0.5);
  EXPECT_EQ(prof.corrupt_rate, 0.125);
  EXPECT_EQ(prof.latency_spike_rate, 0.01);
  EXPECT_EQ(prof.latency_spike_us, 150u);
  EXPECT_EQ(prof.fail_after, 9u);
  ASSERT_EQ(prof.schedule.size(), 3u);
  EXPECT_EQ(prof.schedule.at(0), FaultKind::kReadError);
  EXPECT_EQ(prof.schedule.at(3), FaultKind::kCorruption);
  EXPECT_EQ(prof.schedule.at(5), FaultKind::kLatencySpike);
  EXPECT_TRUE(prof.Armed());
  EXPECT_FALSE(FaultProfile{}.Armed());
}

TEST(FaultInjectorTest, ProfileParsingRejectsGarbage) {
  EXPECT_TRUE(FaultProfile::Parse("read_error=2.0").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(FaultProfile::Parse("bogus_key=1").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(FaultProfile::Parse("schedule=5").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(FaultProfile::Parse("schedule=5:nonsense").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(FaultProfile::Parse("noequals").status().IsInvalidArgument());
}

TEST(FaultInjectorTest, ScheduleFiresAtExactOperationIndexes) {
  FaultInjectionPageFile file(std::make_unique<InMemoryPageFile>(256));
  ASSERT_TRUE(file.AllocatePage().ok());  // not armed: doesn't count
  auto p = FaultProfile::Parse("schedule=1:read_error/2:write_error");
  ASSERT_TRUE(p.ok());
  file.injector()->SetProfile(p.ValueOrDie());
  std::vector<uint8_t> buf(256, 0);
  // Attempt 0: clean. Attempt 1: scripted read error. Attempt 2: scripted
  // write error. Attempt 3+: clean again.
  EXPECT_TRUE(file.ReadPage(0, buf.data(), IoCategory::kOther).ok());
  EXPECT_TRUE(file.ReadPage(0, buf.data(), IoCategory::kOther).IsIOError());
  EXPECT_TRUE(
      file.WritePage(0, buf.data(), IoCategory::kOther).IsIOError());
  EXPECT_TRUE(file.ReadPage(0, buf.data(), IoCategory::kOther).ok());
  EXPECT_EQ(file.injector()->faults_injected(), 2u);
}

TEST(FaultInjectorTest, ConcurrentOperationsAndReconfiguration) {
  // TSan coverage: reader/writer threads hammer the injector through the
  // decorator while a control thread keeps re-arming and healing it. The
  // assertions are weak on purpose -- the test's job is to surface data
  // races and torn state, not to pin down probabilistic outcomes.
  FaultInjectionPageFile file(std::make_unique<InMemoryPageFile>(64));
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(file.AllocatePage().ok());

  constexpr int kWorkers = 4;
  constexpr int kOpsPerWorker = 2000;
  std::atomic<bool> broken{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint8_t> buf(64, static_cast<uint8_t>(t));
      for (int i = 0; i < kOpsPerWorker; ++i) {
        // Each worker owns one page: the base file's contract requires
        // external synchronization for same-page writes, and the shared
        // state under test is the injector, not the page bytes.
        const PageId id = static_cast<PageId>(t);
        Status st = (i % 2 == 0)
                        ? file.ReadPage(id, buf.data(), IoCategory::kOther)
                        : file.WritePage(id, buf.data(), IoCategory::kOther);
        if (!st.ok() && !st.IsIOError()) broken.store(true);
      }
    });
  }
  threads.emplace_back([&] {
    FaultProfile noisy;
    noisy.read_error_rate = 0.2;
    noisy.write_error_rate = 0.2;
    noisy.corrupt_rate = 0.1;
    noisy.latency_spike_rate = 0.05;
    noisy.latency_spike_us = 5;
    for (int i = 0; i < 50; ++i) {
      noisy.seed = static_cast<uint64_t>(i + 1);
      file.injector()->SetProfile(noisy);
      file.set_fail_all(i % 5 == 0);
      file.FailAfter(static_cast<uint64_t>(i * 3));
      file.Heal();
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_FALSE(broken.load());
  // Post-heal the device is clean again.
  std::vector<uint8_t> buf(64, 0);
  EXPECT_TRUE(file.ReadPage(0, buf.data(), IoCategory::kOther).ok());
}

}  // namespace
}  // namespace i3
