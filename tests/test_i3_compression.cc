// Differential tests of the compressed page format against the
// BruteForceIndex oracle. The codec's losslessness plus the deterministic
// score/doc-id tie-break of the top-k heap make the exact answer
// independent of the quadtree shape and page layout, so an I3 index must
// return the oracle's top-k lists *byte for byte* -- doc ids and score
// bits, not merely score-equivalent lists -- across semantics, k, alpha,
// and eta. Also covered: structural invariants under insert/delete churn,
// clean error paths when a compressed block is damaged with page checksums
// disabled, per-write I/O charges, and persistence round trips.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "i3/cell_codec.h"
#include "i3/i3_index.h"
#include "model/brute_force.h"
#include "storage/fault_injection.h"
#include "test_util.h"

namespace i3 {
namespace {

using testutil::CorpusOptions;
using testutil::MakeCorpus;
using testutil::MakeQueries;

// A corpus whose keywords go dense: ~9000 tuples over a 15-term vocabulary
// means hundreds of tuples per keyword, far past the one-page envelope of
// a 4KB page.
CorpusOptions DenseCorpus() {
  CorpusOptions opt;
  opt.num_docs = 3000;
  opt.vocab_size = 15;
  opt.max_terms = 4;
  return opt;
}

I3Options Options(uint32_t eta = 64) {
  I3Options opt;
  opt.space = {0.0, 0.0, 100.0, 100.0};
  opt.signature_bits = eta;
  return opt;
}

std::unique_ptr<I3Index> Build(const std::vector<SpatialDocument>& docs,
                               const I3Options& opt) {
  auto index = std::make_unique<I3Index>(opt);
  for (const SpatialDocument& d : docs) {
    EXPECT_TRUE(index->Insert(d).ok());
  }
  return index;
}

std::unique_ptr<BruteForceIndex> Oracle(
    const std::vector<SpatialDocument>& docs) {
  auto oracle = std::make_unique<BruteForceIndex>(Options().space);
  for (const SpatialDocument& d : docs) {
    EXPECT_TRUE(oracle->Insert(d).ok());
  }
  return oracle;
}

// Byte-identical result lists: same docs in the same order with bit-equal
// scores. SameScores' epsilon tolerance is deliberately NOT used here.
void ExpectIdenticalResults(const std::vector<ScoredDoc>& a,
                            const std::vector<ScoredDoc>& b,
                            const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc, b[i].doc) << what << " rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << what << " rank " << i;
  }
}

void ExpectIdenticalAnswers(SpatialKeywordIndex* want, I3Index* got,
                            const Query& q, double alpha,
                            const std::string& what) {
  auto r1 = want->Search(q, alpha);
  auto r2 = got->Search(q, alpha);
  ASSERT_TRUE(r1.ok()) << what << ": " << r1.status().message();
  ASSERT_TRUE(r2.ok()) << what << ": " << r2.status().message();
  ExpectIdenticalResults(r1.ValueOrDie(), r2.ValueOrDie(), what);
}

TEST(I3CompressionTest, TopKIsByteIdenticalToBruteForce) {
  const CorpusOptions copt = DenseCorpus();
  const auto docs = MakeCorpus(copt, 1);
  auto oracle = Oracle(docs);
  auto index = Build(docs, Options());
  ASSERT_GT(index->SummaryNodeCount(), 0u);

  for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
    for (uint32_t k : {1u, 5u, 20u}) {
      for (double alpha : {0.0, 0.5, 1.0}) {
        const auto queries = MakeQueries(copt, 10, 2, k, sem, 99 + k);
        for (size_t i = 0; i < queries.size(); ++i) {
          ExpectIdenticalAnswers(
              oracle.get(), index.get(), queries[i], alpha,
              std::string(SemanticsName(sem)) + " k=" + std::to_string(k) +
                  " alpha=" + std::to_string(alpha) + " q=" +
                  std::to_string(i));
        }
      }
    }
  }
}

TEST(I3CompressionTest, TopKIsByteIdenticalAcrossEta) {
  CorpusOptions copt = DenseCorpus();
  copt.num_docs = 1200;
  const auto docs = MakeCorpus(copt, 2);
  auto oracle = Oracle(docs);
  for (uint32_t eta : {32u, 64u, 300u}) {
    auto index = Build(docs, Options(eta));
    for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
      const auto queries = MakeQueries(copt, 8, 2, 10, sem, eta);
      for (size_t i = 0; i < queries.size(); ++i) {
        ExpectIdenticalAnswers(oracle.get(), index.get(), queries[i], 0.5,
                               std::string(SemanticsName(sem)) + " eta=" +
                                   std::to_string(eta) + " q=" +
                                   std::to_string(i));
      }
    }
  }
}

TEST(I3CompressionTest, InvariantsHoldAfterChurnAndAnswersStayIdentical) {
  CorpusOptions copt = DenseCorpus();
  copt.num_docs = 1200;
  const auto docs = MakeCorpus(copt, 4);
  auto oracle = Oracle(docs);
  auto index = Build(docs, Options());

  uint64_t tuples = 0;
  for (const auto& d : docs) tuples += d.terms.size();
  auto check = index->CheckInvariants();
  ASSERT_TRUE(check.ok()) << check.status().message();
  EXPECT_EQ(check.ValueOrDie(), tuples);

  for (size_t i = 0; i < docs.size(); i += 3) {
    ASSERT_TRUE(oracle->Delete(docs[i]).ok());
    ASSERT_TRUE(index->Delete(docs[i]).ok());
    tuples -= docs[i].terms.size();
  }
  check = index->CheckInvariants();
  ASSERT_TRUE(check.ok()) << check.status().message();
  EXPECT_EQ(check.ValueOrDie(), tuples);

  for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
    const auto queries = MakeQueries(copt, 10, 2, 10, sem, 7);
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectIdenticalAnswers(oracle.get(), index.get(), queries[i], 0.5,
                             std::string("post-churn ") +
                                 SemanticsName(sem) + " q=" +
                                 std::to_string(i));
    }
  }
}

TEST(I3CompressionTest, DeferredFetchPruningFires) {
  const CorpusOptions copt = DenseCorpus();
  auto index = Build(MakeCorpus(copt, 5), Options());
  uint64_t skipped = 0, pruned = 0;
  for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
    for (const Query& q : MakeQueries(copt, 20, 2, 5, sem, 11)) {
      ASSERT_TRUE(index->Search(q, 0.5).ok());
      const I3SearchStats stats = index->last_search_stats();
      skipped += stats.cells_skipped;
      pruned += stats.blockmax_prunes;
    }
  }
  // The lazy-fetch machinery must actually be saving page reads on a
  // workload this dense, not just sitting inert.
  EXPECT_GT(skipped + pruned, 0u);
}

// ------------------------------------------------------------ fault paths

struct FaultHarness {
  FaultInjectionPageFile* injector = nullptr;
  InMemoryPageFile* backing = nullptr;  // the physical bytes under it
  std::unique_ptr<I3Index> index;
};

FaultHarness MakeFaultHarness(const std::vector<SpatialDocument>& docs) {
  FaultHarness h;
  I3Options opt = Options();
  // Checksums off: the codec's own bounds checks are the only line of
  // defense, which is exactly what these tests probe.
  opt.checksum_pages = false;
  opt.page_file_factory = [&h](size_t page_size) {
    auto base = std::make_unique<InMemoryPageFile>(page_size);
    h.backing = base.get();
    auto file = std::make_unique<FaultInjectionPageFile>(std::move(base));
    h.injector = file.get();
    return file;
  };
  h.index = std::make_unique<I3Index>(opt);
  for (const SpatialDocument& d : docs) {
    EXPECT_TRUE(h.index->Insert(d).ok());
  }
  return h;
}

TEST(I3CompressionTest, CorruptedBlocksFailCleanlyAndHeal) {
  CorpusOptions copt = DenseCorpus();
  copt.num_docs = 800;
  const auto docs = MakeCorpus(copt, 6);
  FaultHarness h = MakeFaultHarness(docs);
  auto reference = Oracle(docs);
  const auto queries = MakeQueries(copt, 20, 2, 10, Semantics::kOr, 13);

  // Phase 1 -- transient wire damage: every page read comes back with a
  // random flipped byte. A flip may land in a payload (decodes to wrong
  // values; that is the failure mode checksum_pages exists for) or in the
  // structure, which must surface as Status::Corruption -- never a crash
  // or an out-of-bounds read (ASan-checked in the sanitizer matrix).
  FaultProfile profile;
  profile.seed = 17;
  profile.corrupt_rate = 1.0;
  h.injector->injector()->SetProfile(profile);
  h.index->ClearCache();
  for (const Query& q : queries) {
    auto res = h.index->Search(q, 0.5);
    if (!res.ok()) {
      EXPECT_TRUE(res.status().IsCorruption()) << res.status().message();
    }
    h.index->ClearCache();  // force the next query back to the device
  }
  h.injector->injector()->Heal();

  // Phase 2 -- deterministic structural damage: blow up the used-bytes
  // header field of every stored v2 page. Any query that touches a data
  // page must now report Corruption, and with the top-k heap empty-handed
  // until a page decodes, every query touches at least one.
  std::vector<std::pair<PageId, uint8_t>> saved;
  for (PageId p = 0; p < h.backing->PageCount(); ++p) {
    uint8_t* bytes = const_cast<uint8_t*>(h.backing->PeekPage(p));
    if (codec::IsV2Page(bytes, kDefaultPageSize)) {
      saved.emplace_back(p, bytes[11]);
      bytes[11] = 0xFF;  // used_bytes far beyond the page size
    }
  }
  ASSERT_FALSE(saved.empty());
  h.index->ClearCache();
  uint64_t corrupt_seen = 0;
  for (const Query& q : queries) {
    auto res = h.index->Search(q, 0.5);
    if (!res.ok()) {
      EXPECT_TRUE(res.status().IsCorruption()) << res.status().message();
      ++corrupt_seen;
    } else {
      // Only a query that never reached a data page may still succeed,
      // and then it cannot have produced any results.
      EXPECT_TRUE(res.ValueOrDie().empty());
    }
  }
  EXPECT_GT(corrupt_seen, 0u);
  for (const auto& [p, byte] : saved) {
    const_cast<uint8_t*>(h.backing->PeekPage(p))[11] = byte;
  }

  // Hard I/O failure is passed through untranslated.
  h.injector->injector()->set_fail_all(true);
  h.index->ClearCache();
  auto res = h.index->Search(queries[0], 0.5);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsIOError()) << res.status().message();

  // After the device heals, the index is intact: answers match the
  // oracle byte for byte.
  h.injector->injector()->Heal();
  h.index->ClearCache();
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectIdenticalAnswers(reference.get(), h.index.get(), queries[i], 0.5,
                           "healed q=" + std::to_string(i));
  }
  auto check = h.index->CheckInvariants();
  ASSERT_TRUE(check.ok()) << check.status().message();
}

// ------------------------------------------------------------ persistence

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

// Data-file charges of each index write with an uncached pool (every
// access charged): one read and one write for a new keyword, an append and
// a non-dense delete; a dense delete also reads the leaf again to rebuild
// its summary.
TEST(I3CompressionTest, UncachedWriteChargesPerOperation) {
  I3Options opt = Options();
  opt.buffer_pool.capacity_pages = 0;
  I3Index index(opt);
  auto doc = [](DocId id, TermId term, double x, double y) {
    SpatialDocument d;
    d.id = id;
    d.location = {x, y};
    d.terms = {{term, 0.5f}};
    return d;
  };
  // Data-file (reads, writes) charged since the previous call.
  IoStats last = index.io_stats();
  auto charged = [&]() {
    const IoStats now = index.io_stats();
    const std::pair<uint64_t, uint64_t> delta{
        now.reads(IoCategory::kI3DataFile) -
            last.reads(IoCategory::kI3DataFile),
        now.writes(IoCategory::kI3DataFile) -
            last.writes(IoCategory::kI3DataFile)};
    last = now;
    return delta;
  };
  const std::pair<uint64_t, uint64_t> one_each{1, 1};

  ASSERT_TRUE(index.Insert(doc(1, 1, 10.0, 10.0)).ok());
  EXPECT_EQ(charged(), one_each) << "new keyword";
  ASSERT_TRUE(index.Insert(doc(2, 1, 10.5, 10.5)).ok());
  EXPECT_EQ(charged(), one_each) << "append to a non-dense cell";
  ASSERT_TRUE(index.Delete(doc(2, 1, 10.5, 10.5)).ok());
  EXPECT_EQ(charged(), one_each) << "non-dense delete";

  // Grow keyword 2 until it is dense.
  Rng rng(17);
  std::vector<SpatialDocument> dense;
  for (DocId id = 100; index.SummaryNodeCount() == 0; ++id) {
    dense.push_back(doc(id, 2, rng.UniformDouble(0.0, 100.0),
                        rng.UniformDouble(0.0, 100.0)));
    ASSERT_TRUE(index.Insert(dense.back()).ok());
  }
  charged();
  const SpatialDocument& victim = dense[dense.size() / 2];
  ASSERT_TRUE(index.Delete(victim).ok());
  EXPECT_EQ(charged(), std::make_pair(uint64_t{2}, uint64_t{1}))
      << "dense delete";
  ASSERT_TRUE(index.Insert(victim).ok());
  EXPECT_EQ(charged(), one_each) << "append to a dense leaf cell";
  EXPECT_TRUE(index.CheckInvariants().ok());
}

// SaveTo writes tuples, not pages, so a round trip rebuilds every page in
// its canonical encoding, at the smallest and the default page size; the
// loaded index answers as the saved one and stays maintainable.
TEST(I3CompressionTest, PersistRoundTripsAtEveryPageSize) {
  CorpusOptions copt = DenseCorpus();
  copt.num_docs = 900;
  const auto docs = MakeCorpus(copt, 8);
  const auto queries = MakeQueries(copt, 12, 2, 10, Semantics::kAnd, 19);

  for (size_t page_size : {codec::kV2MinPageSize, kDefaultPageSize}) {
    const std::string name = "page " + std::to_string(page_size);
    I3Options opt = Options();
    opt.page_size = page_size;
    auto source = Build(docs, opt);
    TempFile file("i3_compression_" + std::to_string(page_size) + ".idx");
    ASSERT_TRUE(source->SaveTo(file.path).ok()) << name;

    auto loaded_res = I3Index::LoadFrom(file.path, Options());
    ASSERT_TRUE(loaded_res.ok())
        << name << ": " << loaded_res.status().message();
    auto loaded = loaded_res.MoveValue();
    EXPECT_EQ(loaded->options().page_size, page_size) << name;
    EXPECT_EQ(loaded->DocumentCount(), source->DocumentCount()) << name;
    EXPECT_EQ(loaded->DataPageCount(), source->DataPageCount()) << name;

    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectIdenticalAnswers(source.get(), loaded.get(), queries[i], 0.5,
                             name + " q=" + std::to_string(i));
    }

    // The loaded index must stay fully maintainable.
    CorpusOptions extra = copt;
    extra.num_docs = 100;
    extra.first_id = 10000;
    for (const SpatialDocument& d : MakeCorpus(extra, 9)) {
      ASSERT_TRUE(loaded->Insert(d).ok()) << name;
    }
    auto check = loaded->CheckInvariants();
    ASSERT_TRUE(check.ok()) << name << ": " << check.status().message();
  }
}

}  // namespace
}  // namespace i3
