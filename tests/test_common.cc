// Unit tests of the common substrate: Status/Result, geometry, RNG/Zipf,
// the arena, small vectors, and deadlines.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/arena.h"
#include "common/deadline.h"
#include "common/geo.h"
#include "common/rng.h"
#include "common/small_vec.h"
#include "common/status.h"
#include "obs/clock.h"

namespace i3 {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("no such doc");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "no such doc");
  EXPECT_EQ(st.ToString(), "NotFound: no such doc");
}

TEST(StatusTest, CopyIsCheapAndShared) {
  Status a = Status::IOError("disk gone");
  Status b = a;
  EXPECT_TRUE(b.IsIOError());
  EXPECT_EQ(b.message(), "disk gone");
}

Status Fails() { return Status::InvalidArgument("bad"); }
Status Propagates() {
  I3_RETURN_NOT_OK(Fails());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(Propagates().IsInvalidArgument());
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err(Status::OutOfRange("past end"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveValueTransfersOwnership) {
  Result<std::string> r(std::string("payload"));
  std::string s = r.MoveValue();
  EXPECT_EQ(s, "payload");
}

TEST(GeoTest, DistanceAndSquaredDistance) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(Distance({1, 1}, {1, 1}), 0.0);
}

TEST(GeoTest, RectBasics) {
  Rect r{0, 0, 10, 20};
  EXPECT_DOUBLE_EQ(r.Width(), 10.0);
  EXPECT_DOUBLE_EQ(r.Height(), 20.0);
  EXPECT_DOUBLE_EQ(r.Area(), 200.0);
  EXPECT_DOUBLE_EQ(r.Margin(), 30.0);
  EXPECT_EQ(r.Center(), (Point{5, 10}));
  EXPECT_TRUE(r.Contains(Point{0, 0}));    // closed boundary
  EXPECT_TRUE(r.Contains(Point{10, 20}));
  EXPECT_FALSE(r.Contains(Point{10.001, 5}));
}

TEST(GeoTest, EmptyRectUnion) {
  Rect e = Rect::Empty();
  EXPECT_TRUE(e.IsEmpty());
  const Rect r{1, 2, 3, 4};
  EXPECT_EQ(e.Union(r), r);
  EXPECT_EQ(r.Union(e), r);
  e.Expand(Point{5, 6});
  EXPECT_EQ(e, Rect::FromPoint({5, 6}));
}

TEST(GeoTest, IntersectsAndContains) {
  const Rect a{0, 0, 10, 10};
  const Rect b{5, 5, 15, 15};
  const Rect c{11, 11, 12, 12};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.Contains(Rect{1, 1, 9, 9}));
  EXPECT_FALSE(a.Contains(b));
}

TEST(GeoTest, MinMaxDistance) {
  const Rect r{0, 0, 10, 10};
  EXPECT_DOUBLE_EQ(r.MinDistance({5, 5}), 0.0);       // inside
  EXPECT_DOUBLE_EQ(r.MinDistance({13, 14}), 5.0);     // corner 3-4-5
  EXPECT_DOUBLE_EQ(r.MinDistance({-3, 5}), 3.0);      // edge
  EXPECT_DOUBLE_EQ(r.MaxDistance({0, 0}), std::sqrt(200.0));
}

TEST(GeoTest, Enlargement) {
  const Rect r{0, 0, 10, 10};
  EXPECT_DOUBLE_EQ(r.Enlargement(Rect::FromPoint({5, 5})), 0.0);
  EXPECT_DOUBLE_EQ(r.Enlargement(Rect::FromPoint({20, 10})), 100.0);
}

TEST(GeoTest, HaversineKnownDistance) {
  // London (-0.1276, 51.5072) to Paris (2.3522, 48.8566): ~344 km.
  const double km =
      HaversineKm({-0.1276, 51.5072}, {2.3522, 48.8566});
  EXPECT_NEAR(km, 344.0, 5.0);
  EXPECT_DOUBLE_EQ(HaversineKm({10, 20}, {10, 20}), 0.0);
}

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(ZipfTest, ProbabilitiesSumToOne) {
  ZipfSampler zipf(100, 1.0);
  double total = 0.0;
  for (size_t r = 0; r < 100; ++r) total += zipf.Probability(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, SkewFavorsLowRanks) {
  ZipfSampler zipf(1000, 1.0);
  Rng rng(11);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[0], counts[9] * 5);   // rank 0 ~10x rank 9
  EXPECT_GT(counts[0], counts[99] * 50);
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  ZipfSampler zipf(10, 0.0);
  for (size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(zipf.Probability(r), 0.1, 1e-9);
  }
}

// ----------------------------------------------------------------- arena

TEST(ArenaTest, BumpAllocatesAndAligns) {
  Arena arena(64);
  auto* a = static_cast<uint8_t*>(arena.Allocate(3, 1));
  auto* b = static_cast<uint64_t*>(arena.Allocate(8, 8));
  EXPECT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  *b = 42;  // must be writable
  EXPECT_GE(arena.BytesUsed(), 11u);
}

TEST(ArenaTest, GrowsPastOneBlock) {
  Arena arena(64);
  for (int i = 0; i < 100; ++i) {
    auto* p = arena.AllocateArray<uint64_t>(4);
    p[0] = static_cast<uint64_t>(i);
  }
  EXPECT_GE(arena.BytesReserved(), 100u * 32u);
}

TEST(ArenaTest, ResetRetainsBlocks) {
  Arena arena(64);
  for (int i = 0; i < 100; ++i) arena.Allocate(32);
  const size_t reserved = arena.BytesReserved();
  arena.Reset();
  EXPECT_EQ(arena.BytesUsed(), 0u);
  EXPECT_EQ(arena.BytesReserved(), reserved);
  // The retained blocks absorb the same workload without growing.
  for (int i = 0; i < 100; ++i) arena.Allocate(32);
  EXPECT_EQ(arena.BytesReserved(), reserved);
}

// -------------------------------------------------------------- small vec

TEST(SmallVecTest, InlineThenSpill) {
  Arena arena;
  SmallVec<uint32_t, 4> v;
  for (uint32_t i = 0; i < 20; ++i) v.PushBack(&arena, i);
  ASSERT_EQ(v.size(), 20u);
  for (uint32_t i = 0; i < 20; ++i) EXPECT_EQ(v[i], i);
  EXPECT_GE(v.capacity(), 20u);
}

TEST(SmallVecTest, ClearKeepsCapacity) {
  Arena arena;
  SmallVec<uint32_t, 2> v;
  for (uint32_t i = 0; i < 10; ++i) v.PushBack(&arena, i);
  const uint32_t cap = v.capacity();
  v.Clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);
}

TEST(SmallVecTest, RelocatesByMemcpy) {
  // A SmallVec's bytes may be copied to a new address and the copy must
  // stay valid (inline storage is discriminated by capacity, not by a
  // self-pointer), so enclosing types stay trivially copyable.
  Arena arena;
  SmallVec<uint32_t, 4> v;
  for (uint32_t i = 0; i < 3; ++i) v.PushBack(&arena, i + 1);
  alignas(SmallVec<uint32_t, 4>) uint8_t raw[sizeof(SmallVec<uint32_t, 4>)];
  std::memcpy(raw, &v, sizeof(v));
  auto* moved = reinterpret_cast<SmallVec<uint32_t, 4>*>(raw);
  ASSERT_EQ(moved->size(), 3u);
  EXPECT_EQ((*moved)[0], 1u);
  EXPECT_EQ((*moved)[2], 3u);
}

TEST(DeadlineTimerTest, DefaultIsUnbounded) {
  DeadlineTimer t;
  EXPECT_FALSE(t.bounded());
  EXPECT_FALSE(t.Expired());
  EXPECT_EQ(t.RemainingMicros(), UINT64_MAX);
  t.WaitUntilExpired();  // no-op, must not hang
}

TEST(DeadlineTimerTest, ZeroSteadyNanosMeansUnbounded) {
  const DeadlineTimer t = DeadlineTimer::AtSteadyNanos(0);
  EXPECT_FALSE(t.bounded());
  EXPECT_FALSE(t.Expired());
}

TEST(DeadlineTimerTest, PastDeadlineIsExpired) {
  const DeadlineTimer at = DeadlineTimer::AtSteadyNanos(1);
  EXPECT_TRUE(at.bounded());
  EXPECT_TRUE(at.Expired());
  EXPECT_EQ(at.RemainingMicros(), 0u);
  at.WaitUntilExpired();  // already expired: returns immediately

  const DeadlineTimer after = DeadlineTimer::AfterMicros(0);
  EXPECT_TRUE(after.bounded());
  EXPECT_TRUE(after.Expired());
}

TEST(DeadlineTimerTest, InteropsWithObsClock) {
  // QueryControl deadlines are obs::NowNanos() values; AtSteadyNanos must
  // agree with that scale.
  const DeadlineTimer t =
      DeadlineTimer::AtSteadyNanos(obs::NowNanos() + 60'000'000'000ull);
  EXPECT_TRUE(t.bounded());
  EXPECT_FALSE(t.Expired());
  const uint64_t remaining = t.RemainingMicros();
  EXPECT_GT(remaining, 50'000'000u);   // ~60s out
  EXPECT_LE(remaining, 60'000'000u);
}

TEST(DeadlineTimerTest, SleepForWaitsAtLeastTheRequestedTime) {
  // One case per wait policy: below the spin threshold and above it.
  for (uint64_t us : {10ull, 200ull}) {
    const uint64_t t0 = obs::NowNanos();
    DeadlineTimer::SleepFor(us);
    EXPECT_GE(obs::NowNanos() - t0, us * 1000) << us << "us";
  }
  const uint64_t t0 = obs::NowNanos();
  DeadlineTimer::SleepFor(0);  // exact no-op
  EXPECT_LT(obs::NowNanos() - t0, 1'000'000u);
}

TEST(DeadlineTimerTest, WaitUntilExpiredReachesTheDeadline) {
  const DeadlineTimer t = DeadlineTimer::AfterMicros(300);
  t.WaitUntilExpired();
  EXPECT_TRUE(t.Expired());
  EXPECT_EQ(t.RemainingMicros(), 0u);
}

}  // namespace
}  // namespace i3
