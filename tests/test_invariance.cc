// Result-invariance property tests: query answers must not depend on
// physical tuning parameters. Signature length eta affects only pruning
// power (never correctness); page size affects only cell capacity; the
// S2I frequency threshold affects only storage layout; I3's ablation
// switches affect only cost. Every configuration must return identical
// ranked scores on identical workloads.

#include <gtest/gtest.h>

#include <memory>

#include "i3/i3_index.h"
#include "model/brute_force.h"
#include "s2i/s2i_index.h"
#include "test_util.h"

namespace i3 {
namespace {

using testutil::CorpusOptions;
using testutil::MakeCorpus;
using testutil::MakeQueries;
using testutil::SameScores;

CorpusOptions Corpus() {
  CorpusOptions copt;
  copt.num_docs = 600;
  copt.vocab_size = 30;
  return copt;
}

std::vector<Query> Workload(const CorpusOptions& copt) {
  std::vector<Query> out;
  for (Semantics sem : {Semantics::kAnd, Semantics::kOr}) {
    for (uint32_t qn : {1u, 2u, 4u}) {
      auto qs = MakeQueries(copt, 8, qn, 10, sem, 100 + qn);
      out.insert(out.end(), qs.begin(), qs.end());
    }
  }
  return out;
}

class EtaInvarianceTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(EtaInvarianceTest, ResultsIndependentOfSignatureLength) {
  const CorpusOptions copt = Corpus();
  const auto docs = MakeCorpus(copt, 55);
  const auto queries = Workload(copt);

  BruteForceIndex oracle(copt.space);
  for (const auto& d : docs) ASSERT_TRUE(oracle.Insert(d).ok());

  I3Options opt;
  opt.space = copt.space;
  opt.page_size = codec::kV2MinPageSize;
  opt.signature_bits = GetParam();
  I3Index index(opt);
  for (const auto& d : docs) ASSERT_TRUE(index.Insert(d).ok());

  for (const Query& q : queries) {
    auto got = index.Search(q, 0.5);
    auto want = oracle.Search(q, 0.5);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_TRUE(SameScores(got.ValueOrDie(), want.ValueOrDie()))
        << "eta=" << GetParam();
  }
}

// eta = 1 is the degenerate all-collide signature; eta = 4096 is sparse.
INSTANTIATE_TEST_SUITE_P(Sweep, EtaInvarianceTest,
                         ::testing::Values(1u, 7u, 64u, 300u, 4096u));

class PageSizeInvarianceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PageSizeInvarianceTest, ResultsIndependentOfPageSize) {
  const CorpusOptions copt = Corpus();
  const auto docs = MakeCorpus(copt, 56);
  const auto queries = Workload(copt);

  BruteForceIndex oracle(copt.space);
  for (const auto& d : docs) ASSERT_TRUE(oracle.Insert(d).ok());

  I3Options opt;
  opt.space = copt.space;
  opt.page_size = GetParam();
  opt.signature_bits = 64;
  I3Index index(opt);
  for (const auto& d : docs) ASSERT_TRUE(index.Insert(d).ok());
  auto check = index.CheckInvariants();
  ASSERT_TRUE(check.ok()) << check.status().ToString();

  for (const Query& q : queries) {
    auto got = index.Search(q, 0.5);
    auto want = oracle.Search(q, 0.5);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_TRUE(SameScores(got.ValueOrDie(), want.ValueOrDie()))
        << "page_size=" << GetParam();
  }
}

// 512B, the smallest page, splits the most; 8KB pages split the least.
INSTANTIATE_TEST_SUITE_P(Sweep, PageSizeInvarianceTest,
                         ::testing::Values(size_t{512}, size_t{1024},
                                           size_t{2048}, size_t{4096},
                                           size_t{8192}));

class S2IThresholdInvarianceTest
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(S2IThresholdInvarianceTest, ResultsIndependentOfThreshold) {
  const CorpusOptions copt = Corpus();
  const auto docs = MakeCorpus(copt, 57);
  const auto queries = Workload(copt);

  BruteForceIndex oracle(copt.space);
  for (const auto& d : docs) ASSERT_TRUE(oracle.Insert(d).ok());

  S2IOptions opt;
  opt.space = copt.space;
  opt.page_size = 256;
  opt.frequency_threshold = GetParam();
  S2IIndex index(opt);
  for (const auto& d : docs) ASSERT_TRUE(index.Insert(d).ok());

  for (const Query& q : queries) {
    auto got = index.Search(q, 0.5);
    auto want = oracle.Search(q, 0.5);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_TRUE(SameScores(got.ValueOrDie(), want.ValueOrDie()))
        << "T=" << GetParam();
  }
}

// T = 1: almost everything in trees. T = 10^6: everything flat.
INSTANTIATE_TEST_SUITE_P(Sweep, S2IThresholdInvarianceTest,
                         ::testing::Values(1u, 8u, 128u, 1000000u));

TEST(AblationInvarianceTest, PruningSwitchesNeverChangeResults) {
  const CorpusOptions copt = Corpus();
  const auto docs = MakeCorpus(copt, 58);
  const auto queries = Workload(copt);

  std::vector<std::unique_ptr<I3Index>> variants;
  for (bool signatures : {true, false}) {
    for (bool screen : {true, false}) {
      I3Options opt;
      opt.space = copt.space;
      opt.page_size = codec::kV2MinPageSize;
      opt.signature_bits = 64;
      opt.signature_pruning = signatures;
      opt.summary_screen = screen;
      auto idx = std::make_unique<I3Index>(opt);
      for (const auto& d : docs) ASSERT_TRUE(idx->Insert(d).ok());
      variants.push_back(std::move(idx));
    }
  }
  for (const Query& q : queries) {
    auto want = variants[0]->Search(q, 0.5);
    ASSERT_TRUE(want.ok());
    for (size_t v = 1; v < variants.size(); ++v) {
      auto got = variants[v]->Search(q, 0.5);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(SameScores(got.ValueOrDie(), want.ValueOrDie()))
          << "variant " << v;
    }
  }
}

TEST(MaxSplitLevelInvarianceTest, ShallowTreesStillCorrect) {
  const CorpusOptions copt = Corpus();
  const auto docs = MakeCorpus(copt, 59);
  const auto queries = Workload(copt);
  BruteForceIndex oracle(copt.space);
  for (const auto& d : docs) ASSERT_TRUE(oracle.Insert(d).ok());

  for (uint8_t max_level : {1, 2, 4, 24}) {
    I3Options opt;
    opt.space = copt.space;
    opt.page_size = codec::kV2MinPageSize;
    opt.signature_bits = 64;
    opt.max_split_level = max_level;  // low levels force overflow chains
    I3Index index(opt);
    for (const auto& d : docs) ASSERT_TRUE(index.Insert(d).ok());
    for (const Query& q : queries) {
      auto got = index.Search(q, 0.5);
      auto want = oracle.Search(q, 0.5);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(want.ok());
      EXPECT_TRUE(SameScores(got.ValueOrDie(), want.ValueOrDie()))
          << "max_split_level=" << int{max_level};
    }
  }
}

}  // namespace
}  // namespace i3
