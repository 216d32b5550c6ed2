// Tests of the I3 extensions beyond the paper's core algorithms:
// range-constrained keyword search and index persistence (save/load).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <unordered_set>
#include <vector>

#include "i3/i3_index.h"
#include "model/brute_force.h"
#include "test_util.h"

namespace i3 {
namespace {

using testutil::CorpusOptions;
using testutil::MakeCorpus;
using testutil::MakeQueries;
using testutil::SameScores;

I3Options SmallOptions() {
  I3Options opt;
  opt.space = {0.0, 0.0, 100.0, 100.0};
  opt.page_size = codec::kV2MinPageSize;
  opt.signature_bits = 64;
  return opt;
}

/// Reference range search over raw documents.
std::vector<ScoredDoc> BruteRange(const std::vector<SpatialDocument>& docs,
                                  const Rect& range,
                                  std::vector<TermId> terms,
                                  Semantics semantics) {
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  std::vector<ScoredDoc> out;
  for (const auto& d : docs) {
    if (!range.Contains(d.location)) continue;
    double text = 0.0;
    size_t matched = 0;
    for (TermId t : terms) {
      const float w = d.WeightOf(t);
      if (w > 0) {
        text += w;
        ++matched;
      }
    }
    const bool ok = semantics == Semantics::kAnd ? matched == terms.size()
                                                 : matched > 0;
    if (ok) out.push_back({d.id, text, d.location});
  }
  std::sort(out.begin(), out.end(), [](const ScoredDoc& a,
                                       const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  });
  return out;
}

TEST(SearchRangeTest, MatchesBruteForceScan) {
  CorpusOptions copt;
  copt.num_docs = 700;
  copt.vocab_size = 25;
  auto docs = MakeCorpus(copt, 61);
  I3Index index(SmallOptions());
  for (const auto& d : docs) ASSERT_TRUE(index.Insert(d).ok());
  ASSERT_GE(index.SummaryNodeCount(), 48u);  // plenty of dense cells

  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const double x = rng.UniformDouble(0, 70);
    const double y = rng.UniformDouble(0, 70);
    const double w = rng.UniformDouble(5, 30);
    const Rect range{x, y, x + w, y + w};
    std::vector<TermId> terms;
    const int qn = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < qn; ++i) {
      terms.push_back(static_cast<TermId>(rng.UniformInt(0, 24)));
    }
    const Semantics sem =
        trial % 2 == 0 ? Semantics::kAnd : Semantics::kOr;
    auto got = index.SearchRange(range, terms, sem);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = BruteRange(docs, range, terms, sem);
    ASSERT_EQ(got.ValueOrDie().size(), want.size()) << "trial " << trial;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR(got.ValueOrDie()[i].score, want[i].score, 1e-9);
    }
  }
}

TEST(SearchRangeTest, LimitTruncates) {
  CorpusOptions copt;
  copt.num_docs = 300;
  copt.vocab_size = 10;
  I3Index index(SmallOptions());
  for (const auto& d : MakeCorpus(copt, 3)) {
    ASSERT_TRUE(index.Insert(d).ok());
  }
  auto res = index.SearchRange({0, 0, 100, 100}, {0, 1, 2},
                               Semantics::kOr, /*limit=*/7);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.ValueOrDie().size(), 7u);
  // Results sorted by decreasing textual score.
  for (size_t i = 1; i < res.ValueOrDie().size(); ++i) {
    EXPECT_GE(res.ValueOrDie()[i - 1].score, res.ValueOrDie()[i].score);
  }
}

TEST(SearchRangeTest, EmptyRegionAndMissingTerms) {
  I3Index index(SmallOptions());
  SpatialDocument d{1, {50, 50}, {{1, 0.5f}}};
  ASSERT_TRUE(index.Insert(d).ok());
  // Region with no documents.
  auto res = index.SearchRange({0, 0, 10, 10}, {1}, Semantics::kOr);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.ValueOrDie().empty());
  // AND with an unknown keyword.
  res = index.SearchRange({0, 0, 100, 100}, {1, 999}, Semantics::kAnd);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.ValueOrDie().empty());
  // No keywords at all.
  EXPECT_TRUE(index.SearchRange({0, 0, 100, 100}, {}, Semantics::kOr)
                  .status()
                  .IsInvalidArgument());
}

TEST(PersistenceTest, SaveLoadRoundTrip) {
  CorpusOptions copt;
  copt.num_docs = 600;
  copt.vocab_size = 30;
  auto docs = MakeCorpus(copt, 71);

  I3Index original(SmallOptions());
  for (const auto& d : docs) ASSERT_TRUE(original.Insert(d).ok());

  const std::string path = "/tmp/i3_persist_test.idx";
  ASSERT_TRUE(original.SaveTo(path).ok());

  auto loaded_res = I3Index::LoadFrom(path);
  ASSERT_TRUE(loaded_res.ok()) << loaded_res.status().ToString();
  auto& loaded = *loaded_res.ValueOrDie();

  EXPECT_EQ(loaded.DocumentCount(), original.DocumentCount());
  EXPECT_EQ(loaded.KeywordCount(), original.KeywordCount());
  EXPECT_EQ(loaded.SummaryNodeCount(), original.SummaryNodeCount());
  auto check = loaded.CheckInvariants();
  ASSERT_TRUE(check.ok()) << check.status().ToString();

  for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
    for (const Query& q : MakeQueries(copt, 15, 3, 10, sem, 14)) {
      auto a = original.Search(q, 0.5);
      auto b = loaded.Search(q, 0.5);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_TRUE(SameScores(a.ValueOrDie(), b.ValueOrDie()));
    }
  }
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadedIndexAcceptsUpdates) {
  CorpusOptions copt;
  copt.num_docs = 200;
  copt.vocab_size = 15;
  auto docs = MakeCorpus(copt, 81);
  I3Index original(SmallOptions());
  BruteForceIndex oracle(SmallOptions().space);
  for (const auto& d : docs) {
    ASSERT_TRUE(original.Insert(d).ok());
    ASSERT_TRUE(oracle.Insert(d).ok());
  }
  const std::string path = "/tmp/i3_persist_updates.idx";
  ASSERT_TRUE(original.SaveTo(path).ok());
  auto loaded_res = I3Index::LoadFrom(path);
  ASSERT_TRUE(loaded_res.ok());
  auto& loaded = *loaded_res.ValueOrDie();

  // Continue mutating the loaded index.
  CorpusOptions extra_opt = copt;
  extra_opt.num_docs = 100;
  extra_opt.first_id = 5000;
  for (const auto& d : MakeCorpus(extra_opt, 82)) {
    ASSERT_TRUE(loaded.Insert(d).ok());
    ASSERT_TRUE(oracle.Insert(d).ok());
  }
  for (size_t i = 0; i < docs.size(); i += 2) {
    ASSERT_TRUE(loaded.Delete(docs[i]).ok());
    ASSERT_TRUE(oracle.Delete(docs[i]).ok());
  }
  auto check = loaded.CheckInvariants();
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  for (const Query& q : MakeQueries(copt, 10, 2, 10, Semantics::kOr, 15)) {
    auto a = loaded.Search(q, 0.5);
    auto b = oracle.Search(q, 0.5);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(SameScores(a.ValueOrDie(), b.ValueOrDie()));
  }
  std::remove(path.c_str());
}

/// The bytes of the file at `path`.
std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(is), {});
}

void WriteFileBytes(const std::string& path, const std::vector<char>& b) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(b.data(), static_cast<std::streamsize>(b.size()));
}

// SaveTo's layout (i3_persist.cc): the page size sits at byte 40 and the
// signature length at byte 48, after the magic, version and space. Each
// structural field the index cannot serve -- a zero signature length (every
// AND search would divide by it), a page below the smallest page size, a
// summary signature one word short (it would load as an empty signature
// and prune documents it holds) -- is refused as Corruption.
TEST(PersistenceTest, LoadRejectsFieldsTheIndexCannotServe) {
  CorpusOptions copt;
  copt.num_docs = 400;
  copt.vocab_size = 15;
  I3Options opt = SmallOptions();
  opt.signature_bits = 300;  // five words per signature
  I3Index original(opt);
  for (const auto& d : MakeCorpus(copt, 91)) {
    ASSERT_TRUE(original.Insert(d).ok());
  }
  ASSERT_GT(original.SummaryNodeCount(), 0u);
  const std::string path = testing::TempDir() + "/i3_persist_doctored.idx";
  ASSERT_TRUE(original.SaveTo(path).ok());
  const std::vector<char> saved = ReadFileBytes(path);
  ASSERT_TRUE(I3Index::LoadFrom(path).ok());

  auto load_doctored = [&](const std::vector<char>& bytes) {
    WriteFileBytes(path, bytes);
    return I3Index::LoadFrom(path).status();
  };
  auto put_u32 = [](std::vector<char>* b, size_t at, uint32_t v) {
    std::memcpy(b->data() + at, &v, 4);
  };
  auto get_u64 = [&saved](size_t at) {
    uint64_t v;
    std::memcpy(&v, saved.data() + at, 8);
    return v;
  };

  std::vector<char> doctored = saved;
  put_u32(&doctored, 48, 0);
  Status st = load_doctored(doctored);
  EXPECT_TRUE(st.IsCorruption()) << "zero signature length: " << st.ToString();

  doctored = saved;
  const uint64_t small_page = codec::kV2MinPageSize / 2;
  std::memcpy(doctored.data() + 40, &small_page, 8);
  st = load_doctored(doctored);
  EXPECT_TRUE(st.IsCorruption()) << "page size: " << st.ToString();

  // The head file starts after the options (55 bytes), the doc count and
  // next source (12) and the lookup table (8 + 17 per entry); its node
  // count comes first, then the first node's self entry: word count, five
  // words, max_s. Dropping its last word keeps the rest of the file intact.
  const size_t lookup_at = 55 + 12;
  const size_t nodes_at = lookup_at + 8 + 17 * get_u64(lookup_at);
  ASSERT_EQ(get_u64(nodes_at), original.SummaryNodeCount());
  const size_t entry_at = nodes_at + 8;
  doctored = saved;
  put_u32(&doctored, entry_at, 4);
  const size_t last_word = entry_at + 4 + 4 * 8;
  doctored.erase(doctored.begin() + last_word,
                 doctored.begin() + last_word + 8);
  st = load_doctored(doctored);
  EXPECT_TRUE(st.IsCorruption()) << "short signature: " << st.ToString();

  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadErrors) {
  EXPECT_TRUE(I3Index::LoadFrom("/tmp/i3_does_not_exist.idx")
                  .status()
                  .IsIOError());
  const std::string path = "/tmp/i3_bad_magic.idx";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not an index", f);
    std::fclose(f);
  }
  EXPECT_TRUE(I3Index::LoadFrom(path).status().IsCorruption());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace i3
