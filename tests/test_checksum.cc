// Storage-integrity tests: the CRC32C primitive, the checksummed page
// decorator (round trip, fresh pages, bit-flips, misdirected writes), and
// the buffer pool's recovery policy on top of it (retry of transient read
// errors, quarantine of corrupt pages so a poisoned frame is never served).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "i3/i3_index.h"
#include "storage/buffer_pool.h"
#include "storage/checksum.h"
#include "storage/checksummed_page_file.h"
#include "storage/fault_injection.h"
#include "test_util.h"

namespace i3 {
namespace {

using testutil::CorpusOptions;
using testutil::MakeCorpus;

// --- CRC32C primitive ---

TEST(Crc32cTest, KnownVector) {
  // The iSCSI/RFC 3720 check value for "123456789".
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, EmptyAndZeroInputsDiffer) {
  EXPECT_EQ(Crc32c("", 0), 0u);
  const uint8_t zeros[8] = {};
  EXPECT_NE(Crc32c(zeros, 8), 0u);
  EXPECT_NE(Crc32c(zeros, 8), Crc32c(zeros, 4));
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t first = Crc32c(data.data(), split);
    const uint32_t then =
        Crc32c(data.data() + split, data.size() - split, first);
    EXPECT_EQ(then, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, SensitiveToEveryByte) {
  std::vector<uint8_t> buf(64, 0xAB);
  const uint32_t base = Crc32c(buf.data(), buf.size());
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] ^= 0x01;
    EXPECT_NE(Crc32c(buf.data(), buf.size()), base) << "byte " << i;
    buf[i] ^= 0x01;
  }
}

TEST(Crc32cTest, MaskIsInvertibleAndMoves) {
  for (uint32_t crc : {0u, 1u, 0xE3069283u, 0xFFFFFFFFu, 0xa282ead8u}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
    EXPECT_NE(MaskCrc(crc), crc);
  }
}

TEST(Crc32cTest, DispatchedMatchesPortableReference) {
  // Crc32c dispatches to a hardware path where the CPU offers one (SSE4.2
  // crc32, AVX-512 carryless-multiply folding). Whatever this machine
  // picked must agree bit for bit with the portable table implementation:
  // sweep lengths around every internal threshold (8-byte words, the
  // 256-byte folding cutoff, page-sized bulk), unaligned starts, and
  // continuation splits.
  std::vector<uint8_t> buf(9000);
  uint64_t lcg = 0x9E3779B97F4A7C15ull;
  for (auto& b : buf) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<uint8_t>(lcg >> 33);
  }
  for (size_t len : {0u, 1u, 7u, 8u, 9u, 15u, 63u, 255u, 256u, 257u, 319u,
                     511u, 512u, 1000u, 4095u, 4096u, 4104u, 8192u, 8987u}) {
    for (size_t off : {0u, 1u, 3u, 8u, 13u}) {
      const uint32_t want = internal::Crc32cPortable(buf.data() + off, len);
      EXPECT_EQ(Crc32c(buf.data() + off, len), want)
          << "len " << len << " off " << off;
      const size_t split = len / 3;
      EXPECT_EQ(Crc32c(buf.data() + off + split, len - split,
                       Crc32c(buf.data() + off, split)),
                want)
          << "split continuation, len " << len << " off " << off;
    }
  }
}

// --- ChecksummedPageFile ---

std::unique_ptr<ChecksummedPageFile> MakeChecksummed(size_t logical) {
  return std::make_unique<ChecksummedPageFile>(
      std::make_unique<InMemoryPageFile>(logical + kPageHeaderBytes));
}

std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> buf(n);
  for (size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return buf;
}

TEST(ChecksummedPageFileTest, ExposesLogicalPageSize) {
  auto file = MakeChecksummed(256);
  EXPECT_EQ(file->page_size(), 256u);
  EXPECT_EQ(file->base()->page_size(), 256u + kPageHeaderBytes);
}

TEST(ChecksummedPageFileTest, RoundTripsPages) {
  auto file = MakeChecksummed(128);
  for (int p = 0; p < 4; ++p) {
    ASSERT_TRUE(file->AllocatePage().ok());
  }
  for (PageId p = 0; p < 4; ++p) {
    const auto data = Pattern(128, static_cast<uint8_t>(p * 31 + 1));
    ASSERT_TRUE(file->WritePage(p, data.data(), IoCategory::kOther).ok());
  }
  for (PageId p = 0; p < 4; ++p) {
    const auto expect = Pattern(128, static_cast<uint8_t>(p * 31 + 1));
    std::vector<uint8_t> got(128, 0xCC);
    ASSERT_TRUE(file->ReadPage(p, got.data(), IoCategory::kOther).ok());
    EXPECT_EQ(got, expect) << "page " << p;
  }
  EXPECT_EQ(file->checksum_failures(), 0u);
  EXPECT_GT(file->epoch(), 0u);
}

TEST(ChecksummedPageFileTest, FreshPageReadsAsZero) {
  auto file = MakeChecksummed(64);
  ASSERT_TRUE(file->AllocatePage().ok());
  std::vector<uint8_t> got(64, 0xCC);
  ASSERT_TRUE(file->ReadPage(0, got.data(), IoCategory::kOther).ok());
  EXPECT_EQ(got, std::vector<uint8_t>(64, 0));
}

TEST(ChecksummedPageFileTest, DetectsPayloadBitFlip) {
  auto file = MakeChecksummed(128);
  ASSERT_TRUE(file->AllocatePage().ok());
  const auto data = Pattern(128, 5);
  ASSERT_TRUE(file->WritePage(0, data.data(), IoCategory::kOther).ok());

  // Flip one payload bit directly in the physical backing.
  std::vector<uint8_t> raw(file->base()->page_size());
  ASSERT_TRUE(file->base()->ReadPage(0, raw.data(), IoCategory::kOther).ok());
  raw[kPageHeaderBytes + 40] ^= 0x10;
  ASSERT_TRUE(
      file->base()->WritePage(0, raw.data(), IoCategory::kOther).ok());

  std::vector<uint8_t> got(128);
  Status st = file->ReadPage(0, got.data(), IoCategory::kOther);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(file->checksum_failures(), 1u);
}

TEST(ChecksummedPageFileTest, DetectsHeaderDamage) {
  auto file = MakeChecksummed(128);
  ASSERT_TRUE(file->AllocatePage().ok());
  const auto data = Pattern(128, 9);
  ASSERT_TRUE(file->WritePage(0, data.data(), IoCategory::kOther).ok());

  std::vector<uint8_t> raw(file->base()->page_size());
  ASSERT_TRUE(file->base()->ReadPage(0, raw.data(), IoCategory::kOther).ok());
  raw[1] ^= 0xFF;  // magic byte
  ASSERT_TRUE(
      file->base()->WritePage(0, raw.data(), IoCategory::kOther).ok());

  std::vector<uint8_t> got(128);
  EXPECT_TRUE(
      file->ReadPage(0, got.data(), IoCategory::kOther).IsCorruption());
}

TEST(ChecksummedPageFileTest, DetectsMisdirectedWrite) {
  auto file = MakeChecksummed(128);
  ASSERT_TRUE(file->AllocatePage().ok());
  ASSERT_TRUE(file->AllocatePage().ok());
  const auto a = Pattern(128, 1);
  const auto b = Pattern(128, 2);
  ASSERT_TRUE(file->WritePage(0, a.data(), IoCategory::kOther).ok());
  ASSERT_TRUE(file->WritePage(1, b.data(), IoCategory::kOther).ok());

  // A misdirected write lands page 0's (internally consistent) image in
  // page 1's slot. The CRC is valid; the embedded page id is not.
  std::vector<uint8_t> raw(file->base()->page_size());
  ASSERT_TRUE(file->base()->ReadPage(0, raw.data(), IoCategory::kOther).ok());
  ASSERT_TRUE(
      file->base()->WritePage(1, raw.data(), IoCategory::kOther).ok());

  std::vector<uint8_t> got(128);
  ASSERT_TRUE(file->ReadPage(0, got.data(), IoCategory::kOther).ok());
  EXPECT_TRUE(
      file->ReadPage(1, got.data(), IoCategory::kOther).IsCorruption());
}

TEST(ChecksummedPageFileTest, ChargesExactlyOnePhysicalAccessPerLogical) {
  auto file = MakeChecksummed(128);
  ASSERT_TRUE(file->AllocatePage().ok());
  const auto data = Pattern(128, 3);
  file->mutable_io_stats()->Reset();
  ASSERT_TRUE(file->WritePage(0, data.data(), IoCategory::kI3DataFile).ok());
  std::vector<uint8_t> got(128);
  ASSERT_TRUE(file->ReadPage(0, got.data(), IoCategory::kI3DataFile).ok());
  EXPECT_EQ(file->io_stats().TotalWrites(), 1u);
  EXPECT_EQ(file->io_stats().TotalReads(), 1u);
}

// --- BufferPool recovery policy over an injected device ---

struct PoolRig {
  std::unique_ptr<ChecksummedPageFile> file;
  FaultInjectionPageFile* faults = nullptr;  // owned by `file`
  std::unique_ptr<BufferPool> pool;
};

/// Checksummed(FaultInjection(InMemory)) under a pool -- the production
/// stacking order, so injected damage below the checksum layer is detected
/// above it.
PoolRig MakePoolRig(size_t logical, BufferPoolOptions opts) {
  PoolRig rig;
  auto faulty = std::make_unique<FaultInjectionPageFile>(
      std::make_unique<InMemoryPageFile>(logical + kPageHeaderBytes));
  rig.faults = faulty.get();
  rig.file = std::make_unique<ChecksummedPageFile>(std::move(faulty));
  rig.pool = std::make_unique<BufferPool>(rig.file.get(), opts);
  return rig;
}

FaultProfile MustParse(const std::string& spec) {
  auto p = FaultProfile::Parse(spec);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return p.ValueOrDie();
}

TEST(BufferPoolRecoveryTest, RetriesTransientReadError) {
  PoolRig rig = MakePoolRig(128, {.capacity_pages = 2});
  ASSERT_TRUE(rig.pool->AllocatePage().ok());
  const auto data = Pattern(128, 11);
  ASSERT_TRUE(
      rig.pool->WritePage(0, data.data(), IoCategory::kI3DataFile).ok());
  rig.pool->Clear();

  // The next attempted operation (the device read below) fails once; the
  // pool's retry gets a clean second attempt.
  rig.faults->injector()->SetProfile(MustParse("schedule=0:read_error"));
  std::vector<uint8_t> got(128);
  ASSERT_TRUE(rig.pool->ReadPage(0, got.data(), IoCategory::kI3DataFile).ok());
  EXPECT_EQ(got, data);
  EXPECT_EQ(rig.pool->retries(), 1u);
  EXPECT_EQ(rig.pool->quarantined_count(), 0u);
}

TEST(BufferPoolRecoveryTest, PersistentReadErrorPropagatesAfterRetries) {
  PoolRig rig =
      MakePoolRig(128, {.capacity_pages = 2, .simulated_miss_latency_us = 0,
                        .max_read_retries = 2, .retry_backoff_us = 1});
  ASSERT_TRUE(rig.pool->AllocatePage().ok());
  const auto data = Pattern(128, 12);
  ASSERT_TRUE(
      rig.pool->WritePage(0, data.data(), IoCategory::kI3DataFile).ok());
  rig.pool->Clear();

  rig.faults->set_fail_all(true);
  std::vector<uint8_t> got(128);
  Status st = rig.pool->ReadPage(0, got.data(), IoCategory::kI3DataFile);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(rig.pool->retries(), 2u);  // max_read_retries, then give up

  rig.faults->Heal();
  ASSERT_TRUE(rig.pool->ReadPage(0, got.data(), IoCategory::kI3DataFile).ok());
  EXPECT_EQ(got, data);
}

TEST(BufferPoolRecoveryTest, WriteErrorsAreNotRetried) {
  PoolRig rig = MakePoolRig(128, {.capacity_pages = 2});
  ASSERT_TRUE(rig.pool->AllocatePage().ok());
  rig.faults->injector()->SetProfile(MustParse("schedule=0:write_error"));
  const auto data = Pattern(128, 13);
  EXPECT_TRUE(rig.pool->WritePage(0, data.data(), IoCategory::kI3DataFile)
                  .IsIOError());
  EXPECT_EQ(rig.pool->retries(), 0u);
}

TEST(BufferPoolRecoveryTest, QuarantinesCorruptPageUntilVerifiedRead) {
  PoolRig rig = MakePoolRig(128, {.capacity_pages = 4});
  ASSERT_TRUE(rig.pool->AllocatePage().ok());
  const auto data = Pattern(128, 21);
  ASSERT_TRUE(
      rig.pool->WritePage(0, data.data(), IoCategory::kI3DataFile).ok());
  rig.pool->Clear();

  // Every device read returns damaged bytes; the checksum layer converts
  // that to Corruption and the pool must quarantine, not retry.
  rig.faults->injector()->SetProfile(MustParse("corrupt=1.0"));
  std::vector<uint8_t> got(128);
  Status st = rig.pool->ReadPage(0, got.data(), IoCategory::kI3DataFile);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_EQ(rig.pool->retries(), 0u);
  EXPECT_TRUE(rig.pool->IsQuarantined(0));
  EXPECT_EQ(rig.pool->quarantined_count(), 1u);

  // Still quarantined: repeated reads keep going to the (still corrupting)
  // device instead of serving any cached frame.
  EXPECT_TRUE(rig.pool->ReadPage(0, got.data(), IoCategory::kI3DataFile)
                  .IsCorruption());

  // Read-side corruption is transient: after Heal the stored page is
  // intact, the verified read clears the quarantine.
  rig.faults->Heal();
  ASSERT_TRUE(rig.pool->ReadPage(0, got.data(), IoCategory::kI3DataFile).ok());
  EXPECT_EQ(got, data);
  EXPECT_FALSE(rig.pool->IsQuarantined(0));
  EXPECT_EQ(rig.pool->quarantined_count(), 0u);
}

TEST(BufferPoolRecoveryTest, WriteThroughClearsQuarantine) {
  PoolRig rig = MakePoolRig(128, {.capacity_pages = 4});
  ASSERT_TRUE(rig.pool->AllocatePage().ok());
  const auto data = Pattern(128, 22);
  ASSERT_TRUE(
      rig.pool->WritePage(0, data.data(), IoCategory::kI3DataFile).ok());
  rig.pool->Clear();

  rig.faults->injector()->SetProfile(MustParse("corrupt=1.0"));
  std::vector<uint8_t> got(128);
  ASSERT_TRUE(rig.pool->ReadPage(0, got.data(), IoCategory::kI3DataFile)
                  .IsCorruption());
  ASSERT_TRUE(rig.pool->IsQuarantined(0));

  // A successful write-through replaces the page image and re-caches it;
  // the quarantine lifts and the (clean) frame is servable even though
  // device reads still corrupt.
  const auto fresh = Pattern(128, 23);
  ASSERT_TRUE(
      rig.pool->WritePage(0, fresh.data(), IoCategory::kI3DataFile).ok());
  EXPECT_FALSE(rig.pool->IsQuarantined(0));
  ASSERT_TRUE(rig.pool->ReadPage(0, got.data(), IoCategory::kI3DataFile).ok());
  EXPECT_EQ(got, fresh);
}

TEST(BufferPoolRecoveryTest, CachedFrameOfCorruptPageIsDropped) {
  PoolRig rig = MakePoolRig(128, {.capacity_pages = 4});
  ASSERT_TRUE(rig.pool->AllocatePage().ok());
  const auto data = Pattern(128, 24);
  ASSERT_TRUE(
      rig.pool->WritePage(0, data.data(), IoCategory::kI3DataFile).ok());
  // The write-through cached a clean frame. Hit it once to prove it.
  std::vector<uint8_t> got(128);
  ASSERT_TRUE(rig.pool->ReadPage(0, got.data(), IoCategory::kI3DataFile).ok());
  const uint64_t hits_before = rig.pool->hits();
  EXPECT_GT(hits_before, 0u);

  // Force a device read (cold cache) that corrupts: the stale frame from
  // before the Clear must not resurrect later.
  rig.pool->Clear();
  rig.faults->injector()->SetProfile(MustParse("corrupt=1.0"));
  ASSERT_TRUE(rig.pool->ReadPage(0, got.data(), IoCategory::kI3DataFile)
                  .IsCorruption());
  rig.faults->Heal();
  ASSERT_TRUE(rig.pool->ReadPage(0, got.data(), IoCategory::kI3DataFile).ok());
  EXPECT_EQ(got, data);
}

// --- End to end through I3: corruption is detected, never served ---

struct I3Rig {
  FaultInjectionPageFile* faults = nullptr;
  std::unique_ptr<I3Index> index;
};

void InitI3Rig(I3Rig* rig) {
  I3Options opt;
  opt.space = {0.0, 0.0, 100.0, 100.0};
  opt.page_size = codec::kV2MinPageSize;
  opt.signature_bits = 64;
  // checksum_pages defaults to true; the factory receives the *physical*
  // page size (logical + header).
  opt.page_file_factory = [rig](size_t page_size) {
    auto file = std::make_unique<FaultInjectionPageFile>(
        std::make_unique<InMemoryPageFile>(page_size));
    rig->faults = file.get();
    return file;
  };
  rig->index = std::make_unique<I3Index>(opt);
}

TEST(ChecksummedIndexTest, FactoryReceivesPhysicalPageSize) {
  I3Rig rig;
  InitI3Rig(&rig);
  ASSERT_NE(rig.faults, nullptr);
  EXPECT_EQ(rig.faults->page_size(),
            rig.index->options().page_size + kPageHeaderBytes);
}

TEST(ChecksummedIndexTest, CorruptionSurfacesAsStatusNeverAsWrongTopK) {
  I3Rig rig;
  InitI3Rig(&rig);
  CorpusOptions copt;
  copt.num_docs = 200;
  for (const auto& d : MakeCorpus(copt, 7)) {
    ASSERT_TRUE(rig.index->Insert(d).ok());
  }

  Query q;
  q.location = {50, 50};
  q.terms = {0, 1};
  q.k = 10;
  q.semantics = Semantics::kOr;
  auto baseline = rig.index->Search(q, 0.5);
  ASSERT_TRUE(baseline.ok());
  ASSERT_FALSE(baseline.ValueOrDie().empty());

  // Every device read now returns flipped bytes. A search that touches the
  // device must fail with Corruption -- silently wrong results are the
  // failure mode this layer exists to prevent.
  rig.faults->injector()->SetProfile(MustParse("corrupt=1.0"));
  rig.index->ClearCache();
  auto res = rig.index->Search(q, 0.5);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCorruption()) << res.status().ToString();

  // Read-side damage only: after the device heals, results are
  // byte-identical to the no-fault baseline.
  rig.faults->Heal();
  rig.index->ClearCache();
  auto healed = rig.index->Search(q, 0.5);
  ASSERT_TRUE(healed.ok());
  const auto& a = baseline.ValueOrDie();
  const auto& b = healed.ValueOrDie();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc, b[i].doc) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
  }
}

TEST(ChecksummedIndexTest, ChecksumsOffIsAnUncheckedAblation) {
  I3Rig rig;
  I3Options opt;
  opt.space = {0.0, 0.0, 100.0, 100.0};
  opt.page_size = codec::kV2MinPageSize;
  opt.signature_bits = 64;
  opt.checksum_pages = false;
  const size_t logical = opt.page_size;
  opt.page_file_factory = [&rig, logical](size_t page_size) {
    EXPECT_EQ(page_size, logical);  // no header overhead without checksums
    auto file = std::make_unique<FaultInjectionPageFile>(
        std::make_unique<InMemoryPageFile>(page_size));
    rig.faults = file.get();
    return file;
  };
  rig.index = std::make_unique<I3Index>(opt);
  CorpusOptions copt;
  copt.num_docs = 50;
  for (const auto& d : MakeCorpus(copt, 8)) {
    ASSERT_TRUE(rig.index->Insert(d).ok());
  }
  EXPECT_GT(rig.index->DocumentCount(), 0u);
}

}  // namespace
}  // namespace i3
